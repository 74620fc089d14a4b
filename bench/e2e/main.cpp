/**
 * @file
 * End-to-end benchmark of the PIM-HE stack.
 *
 * One process runs one workload (workloads.h) as a closed loop with a
 * single client: the next query is issued when the previous one has
 * returned, with no think time. Set-up (contexts, keys, system, plan,
 * operands and one warm-up query) is repeated --setups times (default
 * five) and its median reported as setup_s; the last instance is then
 * measured for --seconds (or for exactly --queries queries).
 *
 * Two clocks are reported. Host time is what the simulator takes on
 * the host running it; modelled time is what the simulated UPMEM system
 * would take, read per query from the new tail of each DpuSet's
 * launch history. With --trace 1 the benchmark also records spans
 * around every call into a layer and reports per-layer self times,
 * checks that they partition each query (host closure) and that the
 * modelled phases sum to the modelled total (modelled closure), and
 * writes a Chrome trace plus per-query layer times next to --result.
 *
 *   e2e_bench --workload mean --seed 1 --seconds 20 --trace 0
 *             [--queries N] [--setups N] [--inject-mismatch]
 *             [--result FILE]
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and the metrics of the run's mode (end-to-end untraced,
 * per-layer traced). Exit status: 0 when every query passed its check
 * and both closures hold, 1 when a query (or the warm-up) fails its
 * check, 2 on a closure violation.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/timer.h"
#include "obs/artifact.h"
#include "obs/calib.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using namespace e2e;
namespace pim = pimhe::pim;
using pimhe::obs::JsonValue;

constexpr int kCertifyCalls = 20;   //!< explicit certifyPlan calls (trace)
// p80 is the highest percentile with ten samples beyond it at 50
// queries, which the slowest workload clears with margin in a run.
constexpr double kTailPercentile = 80;
// The launch history grows with every launch, so peak RSS at exit
// would rise with host speed. Sampling it after a fixed number of
// queries keeps it a measure of memory for a fixed amount of work.
constexpr std::size_t kRssQueries = 40;
constexpr double kProbeEveryS = 0.25; //!< speed-probe cadence (below)

/** Cumulative accounting of one DpuSet at a query boundary. */
struct SetCursor
{
    std::size_t launches = 0;
    std::uint64_t busBytes = 0;
    double preLaunchMs = 0;
    pim::TwoTrackClock clock;
};

SetCursor
cursorOf(const pim::DpuSet &set)
{
    SetCursor c;
    c.launches = set.launches().size();
    c.busBytes = set.transferTotals().busBytes();
    c.preLaunchMs = set.preLaunchDownloadMs();
    c.clock = set.pipelineStats().clock;
    return c;
}

/** Modelled accounting and simulator host time of one query. */
struct QueryPim
{
    double modelledMs = 0; //!< Σ launch totalMs, or Δ makespan (async)
    double kernelMs = 0;
    double h2dMs = 0;
    double d2hMs = 0;
    double overheadMs = 0;
    double serialMs = 0; //!< Δ serial track of the pipeline clock
    double busBusyMs = 0;
    double dpuBusyMs = 0;
    double overlapSavedMs = 0;
    double cycles = 0; //!< Σ critical-path DPU cycles of the launches
    double instructions = 0;
    double launches = 0;
    double busBytes = 0;
    double residentHits = 0;
    double residentMisses = 0;
    double residentBytesAvoided = 0;
    double simMs[2] = {0, 0}; //!< Σ hostWallMs: system set, convolver
};

/**
 * Read one query's accounting from the tail each DpuSet grew since the
 * cursors, then advance them. Per-launch values are summed afresh, so
 * the same query shape always yields bit-identical sums; only the
 * pipeline clock is read as a difference of cumulative cursors.
 */
QueryPim
accountQuery(const Workload &wl, std::vector<SetCursor> &cur,
             pimhe::ResidentCacheStats &res)
{
    QueryPim q;
    double launch_total = 0;
    double makespan = 0;
    const auto sets = wl.dpuSets();
    for (std::size_t k = 0; k < sets.size(); ++k) {
        const pim::DpuSet &set = *sets[k];
        const auto &ls = set.launches();
        for (std::size_t i = cur[k].launches; i < ls.size(); ++i) {
            const pim::LaunchStats &l = ls[i];
            launch_total += l.totalMs();
            q.kernelMs += l.kernelMs;
            q.h2dMs += l.hostToDpuMs;
            q.d2hMs += l.dpuToHostMs;
            q.overheadMs += l.launchOverheadMs;
            q.cycles += l.maxCycles;
            q.simMs[k] += l.hostWallMs;
            for (const auto &d : l.dpus)
                q.instructions += static_cast<double>(d.totalInstructions());
        }
        q.launches += static_cast<double>(ls.size() - cur[k].launches);
        const double pre = set.preLaunchDownloadMs() - cur[k].preLaunchMs;
        launch_total += pre;
        q.d2hMs += pre;
        q.busBytes += static_cast<double>(
            set.transferTotals().busBytes() - cur[k].busBytes);
        const pim::TwoTrackClock &c = set.pipelineStats().clock;
        q.serialMs += c.serialMs - cur[k].clock.serialMs;
        q.busBusyMs += c.busBusyMs - cur[k].clock.busBusyMs;
        q.dpuBusyMs += c.dpuBusyMs - cur[k].clock.dpuBusyMs;
        makespan += c.makespanMs() - cur[k].clock.makespanMs();
        cur[k] = cursorOf(set);
    }
    q.modelledMs = wl.pipelined() ? makespan : launch_total;
    if (wl.pipelined())
        q.overlapSavedMs = q.serialMs - q.modelledMs;

    const pimhe::ResidentCacheStats &now = wl.residentStats();
    q.residentHits = static_cast<double>(now.hits - res.hits);
    q.residentMisses = static_cast<double>(now.misses - res.misses);
    q.residentBytesAvoided =
        static_cast<double>(now.bytesAvoided - res.bytesAvoided);
    res = now;
    return q;
}

/** Host self times (ms) and span counts of one traced query. */
struct QueryLayers
{
    double totalMs = 0; //!< bench.query duration
    double benchSelfMs = 0;
    double encryptMs = 0;
    double decryptMs = 0;
    double pimheSelfMs = 0;
    double convolveSelfMs = 0;
    double simMs = 0;
    double convolveCalls = 0;
};

/**
 * Fold the recorded spans into per-query layer self times. Simulator
 * wall time runs inside the pimhe.* (system set) and poly.convolve
 * (convolver set) spans, so it is taken out of their self time and
 * becomes its own layer, pim.sim. The async stream simulates on the
 * pipeline worker concurrently with the caller, so there pim.sim stays
 * outside the caller's partition.
 */
std::vector<QueryLayers>
layersOf(const SpanRecorder &rec, const std::vector<QueryPim> &pims,
         bool pipelined)
{
    std::vector<QueryLayers> out(pims.size());
    const auto self = rec.selfUs();
    const auto &spans = rec.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.query >= out.size())
            continue;
        QueryLayers &q = out[s.query];
        const std::string name = s.name;
        const double ms = self[i] / 1e3;
        if (name == "bench.query") {
            q.totalMs += (s.endUs - s.startUs) / 1e3;
            q.benchSelfMs += ms;
        } else if (name == "bfv.encrypt") {
            q.encryptMs += ms;
        } else if (name == "bfv.decrypt") {
            q.decryptMs += ms;
        } else if (name == "poly.convolve") {
            q.convolveSelfMs += ms;
            q.convolveCalls += 1;
        } else {
            q.pimheSelfMs += ms;
        }
    }
    for (std::size_t k = 0; k < out.size(); ++k) {
        out[k].simMs = pims[k].simMs[0] + pims[k].simMs[1];
        if (!pipelined) {
            out[k].pimheSelfMs -= pims[k].simMs[0];
            out[k].convolveSelfMs -= pims[k].simMs[1];
        }
    }
    return out;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string clock; //!< host, host-raw, modelled, count, run-total
    bool inLastLine;   //!< part of the run's final JSON line
};

template <typename F>
double
medianOf(const std::vector<QueryPim> &qs, F field)
{
    std::vector<double> xs;
    for (const QueryPim &q : qs)
        xs.push_back(field(q));
    std::sort(xs.begin(), xs.end());
    return pimhe::p50(xs);
}

template <typename F>
double
meanOf(const std::vector<QueryLayers> &qs, F field)
{
    double sum = 0;
    for (const QueryLayers &q : qs)
        sum += field(q);
    return sum / static_cast<double>(qs.size());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
totalModeledMs(const Workload &wl)
{
    double sum = 0;
    for (const pim::DpuSet *s : wl.dpuSets())
        sum += s->totalModeledMs();
    return sum;
}

std::string
stemOf(const std::string &path)
{
    const std::string ext = ".json";
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
        return path.substr(0, path.size() - ext.size());
    return path;
}

/**
 * Machine-speed probe: a fixed task the benchmark owns, half memory
 * (copy 8 MiB between two buffers) and half integer compute (four
 * independent multiply chains). On a shared host the whole process
 * slows down and speeds up with its neighbours' load, by up to 2x
 * within minutes, and the probe slows with it: on a shared 4-vCPU VM
 * the interquartile spread of per-run query times fell from 8-12% raw
 * to 2-8% once divided by the probe time. Host-clock metrics are
 * therefore reported at a reference speed, raw x kReferenceMs /
 * (median probe time of the run), with the raw values and the probe
 * time alongside. Probes run between queries, while the library is
 * idle.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : src_(kBytes, 1), dst_(kBytes, 0) {}

    /** Run the task once; returns its duration (ms). */
    double
    sample()
    {
        const pimhe::Timer t;
        std::memcpy(dst_.data(), src_.data(), kBytes);
        std::uint64_t c[4] = {1, 2, 3, dst_[samples_.size()]};
        for (int i = 0; i < kChainSteps; ++i)
            for (std::uint64_t &x : c)
                x = x * 0x9E3779B97F4A7C15ULL + (x >> 29);
        sink_ = sink_ + (c[0] ^ c[1] ^ c[2] ^ c[3]);
        samples_.push_back(t.elapsedMs());
        return samples_.back();
    }

    double
    medianMs() const
    {
        std::vector<double> sorted = samples_;
        std::sort(sorted.begin(), sorted.end());
        return pimhe::p50(sorted);
    }

    /** Factor that takes a host time of this run to reference speed. */
    double scale() const { return kReferenceMs / medianMs(); }

  private:
    static constexpr std::size_t kBytes = std::size_t{8} << 20;
    static constexpr int kChainSteps = 1 << 19;
    static constexpr double kReferenceMs = 3.0;

    std::vector<std::uint8_t> src_;
    std::vector<std::uint8_t> dst_;
    std::vector<double> samples_;
    volatile std::uint64_t sink_ = 0;
};

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text << "\n";
    f.close();
    return !f.fail();
}

} // namespace

int
main(int argc, char **argv)
{
    pimhe::CliArgs args(argc, argv,
                        {"workload", "seed", "seconds", "trace", "queries",
                         "setups", "inject-mismatch", "result"});
    const std::string name = args.getString("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 20);
    const bool trace = args.getBool("trace", false);
    const auto fixed_queries = args.getInt("queries", 0);
    // Set-ups per run; setup_s is their median.
    const auto setups = std::max<std::int64_t>(1, args.getInt("setups", 5));
    const bool inject = args.getBool("inject-mismatch", false);
    const std::string result_path = args.getString("result", "");

    // Library-internal instrumentation stays off whatever PIMHE_OBS
    // says: the benchmark measures the program, not its tracer.
    pimhe::obs::Tracer::global().setEnabled(false);
    pimhe::obs::Registry::global().setEnabled(false);
    pimhe::obs::Calibration::global().setEnabled(false);

    SpanRecorder rec;
    SpeedProbe probe;
    std::unique_ptr<Workload> wl;
    std::vector<double> setup_s;
    bool warmup_ok = true;
    for (std::int64_t i = 0; i < setups; ++i) {
        wl.reset();
        probe.sample();
        const pimhe::Timer t;
        wl = makeWorkload(name, seed, rec);
        if (!wl) {
            std::cerr << "unknown workload '" << name
                      << "' (mean, variance, vec_add, vec_mul_stream)\n";
            return 64;
        }
        // The warm-up lets lazy work finish (the first certifyPlan
        // probes the cycle fits); it is not a sample.
        warmup_ok = wl->query(rec, false) && warmup_ok;
        setup_s.push_back(t.elapsedSeconds());
    }
    std::sort(setup_s.begin(), setup_s.end());

    // ---- measured phase ----
    std::vector<SetCursor> cur;
    for (const pim::DpuSet *s : wl->dpuSets())
        cur.push_back(cursorOf(*s));
    pimhe::ResidentCacheStats res = wl->residentStats();
    const double modeled_before = totalModeledMs(*wl);

    std::vector<double> wall_ms;
    std::vector<QueryPim> pims;
    std::size_t failed = 0;
    double peak_rss_mb = 0;
    double probe_ms = 0; //!< probe time inside the measured phase
    rec.setOn(trace);
    const pimhe::Timer phase;
    pimhe::Timer since_probe;
    for (std::uint32_t q = 0;
         fixed_queries > 0 ? q < fixed_queries
                           : phase.elapsedSeconds() < seconds;
         ++q) {
        rec.setQuery(q);
        const pimhe::Timer t;
        bool ok;
        {
            SpanRecorder::Scope span(rec, "bench.query");
            ok = wl->query(rec, inject);
        }
        wall_ms.push_back(t.elapsedMs());
        failed += ok ? 0 : 1;
        pims.push_back(accountQuery(*wl, cur, res));
        if (wall_ms.size() == kRssQueries)
            peak_rss_mb = peakRssMb();
        if (since_probe.elapsedSeconds() >= kProbeEveryS) {
            probe_ms += probe.sample();
            since_probe.reset();
        }
    }
    const double phase_s = phase.elapsedSeconds() - probe_ms / 1e3;
    rec.setOn(false);
    if (peak_rss_mb == 0)
        peak_rss_mb = peakRssMb();
    const std::size_t attempted = wall_ms.size();

    // ---- modelled closure: phases sum to the modelled total ----
    double phase_sum = 0;
    double modelled_err = 0;
    for (const QueryPim &q : pims) {
        const double parts = q.kernelMs + q.h2dMs + q.d2hMs + q.overheadMs;
        const double whole = wl->pipelined() ? q.serialMs : q.modelledMs;
        modelled_err = std::max(modelled_err,
                                std::abs(parts - whole) / whole);
        if (wl->pipelined() && q.modelledMs > q.serialMs * (1 + 1e-12))
            modelled_err = 1; // a makespan above the serial time
        phase_sum += parts;
    }
    const double modeled_delta = totalModeledMs(*wl) - modeled_before;
    modelled_err = std::max(
        modelled_err, std::abs(phase_sum - modeled_delta) / modeled_delta);
    const bool modelled_ok = modelled_err <= 1e-9;

    // ---- end-to-end metrics ----
    std::vector<double> sorted = wall_ms;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Metric> metrics;
    const auto add = [&](std::string n, double v, std::string unit,
                         std::string clock, bool last_line) {
        metrics.push_back({std::move(n), v, std::move(unit),
                           std::move(clock), last_line});
    };
    const double n_q = static_cast<double>(attempted);
    // Host times at reference speed (see SpeedProbe); raw alongside.
    const double scale = probe.scale();
    const auto add_host = [&](const std::string &n, double raw,
                              const std::string &unit, bool rate,
                              bool last_line) {
        add(n, rate ? raw / scale : raw * scale, unit, "host", last_line);
        add(n + ".raw", raw, unit, "host-raw", false);
    };
    add_host("host_ms_p50", pimhe::p50(sorted), "ms", false, !trace);
    add_host("host_ms_p80", pimhe::percentile(sorted, kTailPercentile),
             "ms", false, !trace);
    add_host("ct_per_s",
             static_cast<double>(wl->inputsPerQuery()) * n_q / phase_s,
             "ct/s", true, !trace);
    add_host("setup_s", pimhe::p50(setup_s), "s", false, !trace);
    add("peak_rss_mb", peak_rss_mb, "MB", "host", !trace);
    add("host.probe_ms", probe.medianMs(), "ms", "host-raw", false);
    add("fail_ratio", static_cast<double>(failed) / n_q, "fraction",
        "count", false);
    add("samples", n_q, "queries", "run-total", false);

    // ---- per-layer metrics: modelled clock and counts ----
    const auto med = [&](auto field) { return medianOf(pims, field); };
    add("modelled_ms", med([](const QueryPim &q) { return q.modelledMs; }),
        "model_ms", "modelled", trace);
    add("pim.kernel_ms", med([](const QueryPim &q) { return q.kernelMs; }),
        "model_ms", "modelled", trace);
    add("pim.h2d_ms", med([](const QueryPim &q) { return q.h2dMs; }),
        "model_ms", "modelled", trace);
    add("pim.d2h_ms", med([](const QueryPim &q) { return q.d2hMs; }),
        "model_ms", "modelled", trace);
    add("pim.overhead_ms",
        med([](const QueryPim &q) { return q.overheadMs; }), "model_ms",
        "modelled", trace);
    add("pim.pipe.bus_busy_ms",
        med([](const QueryPim &q) { return q.busBusyMs; }), "model_ms",
        "modelled", trace);
    add("pim.pipe.dpu_busy_ms",
        med([](const QueryPim &q) { return q.dpuBusyMs; }), "model_ms",
        "modelled", trace);
    add("pim.pipe.overlap_saved_ms",
        med([](const QueryPim &q) { return q.overlapSavedMs; }),
        "model_ms", "modelled", false);
    add("pim.launches", med([](const QueryPim &q) { return q.launches; }),
        "count", "count", trace);
    add("pim.dpu_cycles", med([](const QueryPim &q) { return q.cycles; }),
        "cycles", "count", trace);
    add("pim.instructions",
        med([](const QueryPim &q) { return q.instructions; }), "count",
        "count", trace);
    add("pim.bus_bytes", med([](const QueryPim &q) { return q.busBytes; }),
        "bytes", "count", trace);
    add("pimhe.resident_hits",
        med([](const QueryPim &q) { return q.residentHits; }), "count",
        "count", false);
    add("pimhe.resident_misses",
        med([](const QueryPim &q) { return q.residentMisses; }), "count",
        "count", false);
    add("pimhe.resident_bytes_avoided",
        med([](const QueryPim &q) { return q.residentBytesAvoided; }),
        "bytes", "count", false);
    double history = 0;
    for (const pim::DpuSet *s : wl->dpuSets())
        history += static_cast<double>(s->launches().size());
    add("pim.history_launches", history, "count", "run-total", trace);

    // ---- per-layer metrics: host clock (traced runs only) ----
    double host_err = 0;
    bool host_ok = true;
    std::vector<QueryLayers> layers;
    if (trace) {
        layers = layersOf(rec, pims, wl->pipelined());
        double total = 0;
        double parts = 0;
        for (const QueryLayers &l : layers) {
            const double sim = wl->pipelined() ? 0 : l.simMs;
            const double ps[] = {l.benchSelfMs, l.encryptMs, l.decryptMs,
                                 l.pimheSelfMs, l.convolveSelfMs, sim};
            for (const double p : ps) {
                host_ok = host_ok && p >= -1e-3 * l.totalMs;
                parts += p;
            }
            total += l.totalMs;
        }
        host_err = std::abs(parts - total) / total;
        host_ok = host_ok && rec.wellNested() && host_err <= 0.01;

        const auto mean = [&](auto field) {
            return meanOf(layers, field) * scale;
        };
        add("bfv.encrypt_ms",
            mean([](const QueryLayers &l) { return l.encryptMs; }), "ms",
            "host", false);
        add("bfv.decrypt_ms",
            mean([](const QueryLayers &l) { return l.decryptMs; }), "ms",
            "host", false);
        add("pimhe.self_ms",
            mean([](const QueryLayers &l) { return l.pimheSelfMs; }), "ms",
            "host", true);
        add("poly.convolve_calls",
            meanOf(layers,
                   [](const QueryLayers &l) { return l.convolveCalls; }),
            "count", "count", false);
        add("poly.convolve_self_ms",
            mean([](const QueryLayers &l) { return l.convolveSelfMs; }),
            "ms", "host", false);
        const double sim_ms =
            mean([](const QueryLayers &l) { return l.simMs; });
        add("pim.sim_ms", sim_ms, "ms", "host", true);
        double instr = 0;
        for (const QueryPim &q : pims)
            instr += q.instructions;
        add("pim.sim_minstr_per_s", instr / n_q / sim_ms / 1e3, "Minstr/s",
            "host", true);
        add("bench.self_ms",
            mean([](const QueryLayers &l) { return l.benchSelfMs; }), "ms",
            "host", true);

        // runPlan certifies on every call; time that gate on its own.
        // It is a share of pimhe.self_ms, not an addition to it.
        if (wl->certify()) {
            const pimhe::Timer t;
            for (int i = 0; i < kCertifyCalls; ++i)
                wl->certify();
            add("analysis.certify_ms", t.elapsedMs() / kCertifyCalls * scale,
                "ms", "host", false);
        }
    }

    const bool correct = warmup_ok && failed == 0 && modelled_ok && host_ok;

    // ---- report ----
    std::cout << std::setprecision(12);
    for (const Metric &m : metrics)
        std::cout << name << " " << m.name << " " << m.value << " "
                  << m.unit << "\n";
    if (!warmup_ok)
        std::cerr << "warm-up query failed its check\n";
    if (!modelled_ok)
        std::cerr << "modelled closure violated: relative error "
                  << modelled_err << "\n";
    if (!host_ok)
        std::cerr << "host closure violated: relative error " << host_err
                  << (rec.wellNested() ? "" : " (spans mis-nested)") << "\n";

    if (!result_path.empty()) {
        JsonValue doc = JsonValue::makeObject();
        doc.set("schema", JsonValue("pimhe-e2e/v1"));
        doc.set("meta",
                pimhe::obs::metaJson(pimhe::obs::currentRunMeta(
                    "workload=" + name + " seed=" + std::to_string(seed) +
                    " trace=" + (trace ? "1" : "0"))));
        doc.set("workload", JsonValue(name));
        doc.set("seed", JsonValue(seed));
        doc.set("trace", JsonValue(trace));
        doc.set("inject_mismatch", JsonValue(inject));
        doc.set("attempted", JsonValue(std::uint64_t{attempted}));
        doc.set("failed", JsonValue(std::uint64_t{failed}));
        doc.set("correct", JsonValue(correct));
        doc.set("modelled_closure_err", JsonValue(modelled_err));
        doc.set("host_closure_err", JsonValue(host_err));
        JsonValue samples = JsonValue::makeArray();
        for (const double s : setup_s)
            samples.push(JsonValue(s));
        doc.set("setup_samples_s", std::move(samples));
        JsonValue ms = JsonValue::makeObject();
        for (const Metric &m : metrics) {
            JsonValue v = JsonValue::makeObject();
            v.set("value", JsonValue(m.value));
            v.set("unit", JsonValue(m.unit));
            v.set("clock", JsonValue(m.clock));
            ms.set(m.name, std::move(v));
        }
        doc.set("metrics", std::move(ms));
        bool ok = writeFile(result_path, doc.dump(2));

        if (trace) {
            const std::string stem = stemOf(result_path);
            ok = writeFile(stem + ".chrome.json",
                           rec.chromeTrace().dump()) && ok;
            JsonValue per_query = JsonValue::makeArray();
            for (std::size_t k = 0; k < layers.size(); ++k) {
                const QueryLayers &l = layers[k];
                JsonValue row = JsonValue::makeObject();
                row.set("query", JsonValue(std::uint64_t{k}));
                row.set("bench.query_ms", JsonValue(l.totalMs));
                row.set("bench.self_ms", JsonValue(l.benchSelfMs));
                row.set("bfv.encrypt_ms", JsonValue(l.encryptMs));
                row.set("bfv.decrypt_ms", JsonValue(l.decryptMs));
                row.set("pimhe.self_ms", JsonValue(l.pimheSelfMs));
                row.set("poly.convolve_self_ms",
                        JsonValue(l.convolveSelfMs));
                row.set("poly.convolve_calls", JsonValue(l.convolveCalls));
                row.set("pim.sim_ms", JsonValue(l.simMs));
                row.set("modelled_ms", JsonValue(pims[k].modelledMs));
                row.set("pim.launches", JsonValue(pims[k].launches));
                per_query.push(std::move(row));
            }
            JsonValue ldoc = JsonValue::makeObject();
            ldoc.set("workload", JsonValue(name));
            ldoc.set("seed", JsonValue(seed));
            ldoc.set("sim_in_partition", JsonValue(!wl->pipelined()));
            ldoc.set("queries", std::move(per_query));
            ok = writeFile(stem + ".layers.json", ldoc.dump(1)) && ok;
        }
        if (!ok) {
            std::cerr << "cannot write results next to " << result_path
                      << "\n";
            return 3;
        }
    }

    JsonValue line = JsonValue::makeObject();
    line.set("correct", JsonValue(correct));
    line.set("attempted", JsonValue(std::uint64_t{attempted}));
    line.set("failed", JsonValue(std::uint64_t{failed}));
    JsonValue ms = JsonValue::makeObject();
    for (const Metric &m : metrics) {
        if (!m.inLastLine)
            continue;
        JsonValue v = JsonValue::makeObject();
        v.set("value", JsonValue(m.value));
        v.set("unit", JsonValue(m.unit));
        ms.set(m.name, std::move(v));
    }
    line.set("metrics", std::move(ms));
    std::cout << line.dump() << std::endl;

    if (!warmup_ok || failed > 0)
        return 1;
    return correct ? 0 : 2;
}
