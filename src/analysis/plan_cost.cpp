/**
 * @file
 * Per-backend cost composition for HE op DAGs (see plan_cost.h).
 */

#include "analysis/plan_cost.h"

#include <algorithm>
#include <deque>
#include <iomanip>
#include <sstream>

#include "common/logging.h"
#include "pim/config.h"
#include "pim/pipeline.h"

namespace pimhe {
namespace analysis {

namespace {

/**
 * Where a node's value lives in the pim-resident walk. The cache
 * inserts host copies and uploads lazily, so a value can be valid on
 * both sides at once: Both means MRAM reuse is free AND host
 * consumption is free (the host copy never went stale). Only
 * DeviceOnly values — kernel outputs allocated device-side — pay a
 * download when a host op consumes them. Collapsing Both into a
 * single "Device" state (as the first model version did) overcharged
 * every host consumption of an uploaded-but-never-written value,
 * which the calibration layer flagged against measured transfers.
 */
enum class Loc : std::uint8_t
{
    Host,
    Both,
    DeviceOnly,
};

/** Geometry and rate helpers shared by the three backend walks. */
struct CostCtx
{
    const CostSpec &spec;
    std::uint64_t elemBytes;
    std::uint64_t ctElems;   //!< 2 components * n coefficients
    std::uint64_t sliceBytes; //!< per-DPU resident slice stride
    std::uint64_t sliceElems;
    std::uint64_t regionBytes; //!< one resident ciphertext, all DPUs
    std::uint64_t convUpBytes;   //!< two operand polynomials
    std::uint64_t convDownBytes; //!< n wide accumulators

    explicit
    CostCtx(const CostSpec &s)
        : spec(s), elemBytes(s.limbs * 4),
          ctElems(2ULL * s.n),
          sliceBytes(0), sliceElems(0), regionBytes(0), convUpBytes(0),
          convDownBytes(0)
    {
        sliceBytes = pim::sliceLayout(ctElems, s.numDpus, elemBytes).stride;
        sliceElems = sliceBytes / elemBytes;
        regionBytes = s.numDpus * sliceBytes;
        convUpBytes = 2ULL * s.n * elemBytes;
        convDownBytes = s.n * pim::convAccLimbs(s.limbs) * 4;
    }

    /** One elementwise launch over per-DPU `elems` elements. */
    double
    launchMs(const LinearCycleFit &fit, std::uint64_t per_dpu_elems)
        const
    {
        return fit.at(per_dpu_elems) / (spec.clockMhz * 1e3);
    }

    /**
     * Bytes of one staged batch of `cts` ciphertexts: stagedOp puts a
     * whole operand vector in one padded slice per DPU.
     */
    std::uint64_t
    stagedBytes(std::uint64_t cts) const
    {
        return spec.numDpus *
               pim::sliceLayout(cts * ctElems, spec.numDpus, elemBytes)
                   .stride;
    }

    /** Per-DPU elements of a whole-ciphertext elementwise op. */
    std::uint64_t
    perDpu(std::uint64_t elems) const
    {
        return pim::sliceLayout(elems, spec.numDpus, elemBytes).perDpu;
    }

    /**
     * One row-sharded negacyclic convolution on the PIM system. Each
     * DPU pays the full per-launch base (startup never shards) plus
     * the per-row work of the rows_per_dpu rows it owns.
     */
    double
    convMs() const
    {
        const std::uint64_t rows_per_dpu =
            (spec.n + spec.numDpus - 1) / spec.numDpus;
        return spec.convCycles.shard(spec.n, rows_per_dpu) /
               (spec.clockMhz * 1e3);
    }

    double
    hostElemMs(std::uint64_t elems, double ns_per_elem) const
    {
        return static_cast<double>(elems) * ns_per_elem /
               (spec.hostThreads * 1e6);
    }

    /** One schoolbook convolution on the host (single conv = one
     *  thread; the host parallelises across ciphertexts, not within
     *  one product). */
    double
    hostConvMs() const
    {
        const double nn = static_cast<double>(spec.n);
        return nn * nn * spec.hostConvMacNs / 1e6;
    }

    double overheadMs() const { return spec.launchOverheadUs / 1e3; }
};

/**
 * Replays the staged backend's launch charges through the SAME
 * two-track clock DpuSet drives for its measured pipelineStats(),
 * with the depth-2 schedule the async engine runs: uploads accumulate
 * until the launch consumes them (exactly like pendingUploadBytes_)
 * and are charged onto the bus at SUBMIT time, while a launch's
 * kernel half and its result download are deferred until a third
 * launch is submitted behind it (the harvest of the oldest op in
 * PimHeSystem's window of two) — so launch N+1's upload overlaps
 * launch N's kernel, exactly as in the async op stream. The resulting
 * makespan is the model's forecast of running the staged plan
 * pipelined.
 */
struct PipelineReplay
{
    /** Submitted launch whose kernel/download await harvest. */
    struct InFlight
    {
        pim::PipelineSpan span; //!< upload half already charged
        double kernelMs = 0;    //!< kernel + overhead
        double downloadMs = 0;  //!< result download (0 = none)
    };

    pim::TwoTrackClock clock;
    double pendingUploadMs = 0;
    std::size_t launches = 0;
    std::deque<InFlight> inFlight; //!< at most 2 (the async window)

    void upload(double ms) { pendingUploadMs += ms; }

    void
    kernel(double kernel_plus_overhead_ms)
    {
        // A full window: harvest the oldest in-flight launch BEFORE
        // staging this one — the engine's submission-order merge.
        if (inFlight.size() == 2)
            retire();
        InFlight f;
        f.span = clock.chargeUpload(pendingUploadMs,
                                    /*synchronous=*/false, launches);
        pendingUploadMs = 0;
        f.kernelMs = kernel_plus_overhead_ms;
        inFlight.push_back(f);
        ++launches;
    }

    void
    download(double ms)
    {
        if (inFlight.empty()) // pre-launch download: no producer
            clock.chargeDownload(ms, 0.0);
        else
            inFlight.back().downloadMs += ms;
    }

    void
    retire()
    {
        InFlight f = inFlight.front();
        inFlight.pop_front();
        clock.chargeKernel(f.span, f.kernelMs);
        if (f.downloadMs > 0)
            clock.chargeDownload(f.downloadMs, f.span.kernelEndMs);
    }

    void
    finish()
    {
        while (!inFlight.empty())
            retire();
    }
};

/** Charge one PIM launch (kernel + overhead) to a backend. */
void
chargeLaunch(BackendCost &b, double kernel_ms, const CostCtx &c,
             PipelineReplay *pipe = nullptr)
{
    b.kernelMs += kernel_ms;
    b.overheadMs += c.overheadMs();
    ++b.launches;
    if (pipe != nullptr)
        pipe->kernel(kernel_ms + c.overheadMs());
}

void
chargeUpload(BackendCost &b, std::uint64_t bytes, const CostCtx &c,
             PipelineReplay *pipe = nullptr)
{
    b.uploadedBytes += bytes;
    const double ms =
        pim::busMs(bytes, c.spec.numDpus, c.spec.hostToDpuGbps);
    b.transferMs += ms;
    if (pipe != nullptr)
        pipe->upload(ms);
}

void
chargeDownload(BackendCost &b, std::uint64_t bytes, const CostCtx &c,
               PipelineReplay *pipe = nullptr)
{
    b.downloadedBytes += bytes;
    const double ms =
        pim::busMs(bytes, c.spec.numDpus, c.spec.dpuToHostGbps);
    b.transferMs += ms;
    if (pipe != nullptr)
        pipe->download(ms);
}

/** Convolutions one node expands into (0 = not conv-backed). */
std::uint64_t
convCount(const HeNode &node, const CostSpec &spec)
{
    switch (node.op) {
      case HeOp::Mul:
        return 4 + 2 * spec.relinDigits;
      case HeOp::Square:
        return 3 + 2 * spec.relinDigits;
      case HeOp::MulPlain:
        return 2;
      case HeOp::Input:
      case HeOp::Add:
      case HeOp::Reduce:
      case HeOp::Output:
        return 0;
    }
    return 0;
}

} // namespace

std::uint64_t
residentCiphertextBytes(const CostSpec &spec)
{
    return CostCtx(spec).regionBytes;
}

double
modeledDownloadMs(const CostSpec &spec, std::uint64_t bytes)
{
    return pim::busMs(bytes, spec.numDpus, spec.dpuToHostGbps);
}

std::string
BackendCost::describe() const
{
    std::ostringstream os;
    os << backend << ": " << std::fixed << std::setprecision(3)
       << totalMs() << " ms (kernel " << kernelMs << ", transfer "
       << transferMs << ", overhead " << overheadMs << "; "
       << launches << " launch(es), " << uploadedBytes << " B up, "
       << downloadedBytes << " B down, " << residentBytesReused
       << " B reuse)";
    return os.str();
}

std::string
PipelineForecast::describe() const
{
    std::ostringstream os;
    os << "pipelined: " << std::fixed << std::setprecision(3)
       << makespanMs << " ms makespan (bus " << busMs << ", dpu "
       << dpuMs << "; serial " << serialMs << ", "
       << std::setprecision(2) << speedup() << "x, " << launches
       << " launch(es))";
    return os.str();
}

std::string
CostReport::summary() const
{
    std::ostringstream os;
    if (!ok()) {
        os << "cost '" << subject << "': REJECTED\n  "
           << violations.front().describe();
        return os.str();
    }
    os << "cost '" << subject << "': " << std::fixed
       << std::setprecision(3) << pimStaged.totalMs()
       << " ms staged, " << pimResident.totalMs() << " ms resident, "
       << host.totalMs() << " ms host -> " << recommended;
    return os.str();
}

CostReport
estimateCost(const HeDag &dag, const CostSpec &spec)
{
    PIMHE_ASSERT(spec.n >= 1 && spec.limbs >= 1 && spec.numDpus >= 1,
                 "degenerate cost spec");
    const CostCtx c(spec);
    CostReport report;
    report.subject = spec.name;
    report.pimStaged.backend = "pim-staged";
    report.pimResident.backend = "pim-resident";
    report.host.backend = "host";

    BackendCost &st = report.pimStaged;
    BackendCost &re = report.pimResident;
    BackendCost &ho = report.host;
    // Every pim-staged charge is mirrored into the pipeline replay so
    // the walk also yields the overlap-aware forecast.
    PipelineReplay pipe;

    // pim-resident value locations; host/pim-staged keep everything
    // on the host between launches.
    std::vector<Loc> loc(dag.size(), Loc::Host);

    // Ensure an operand is device-resident: a host-only value pays
    // one upload (an input's first device use), anything already in
    // MRAM counts as a re-upload avoided (the TransferTotals residency
    // metric). Both move the cache's padded regions.
    const auto ensureDevice = [&](NodeId id) {
        if (loc[id] != Loc::Host) {
            re.residentBytesReused += c.regionBytes;
        } else {
            chargeUpload(re, c.regionBytes, c);
            loc[id] = Loc::Both;
        }
    };
    // Materialise an operand on the host: only device-only kernel
    // outputs pay a download; values with a live host copy are free.
    const auto ensureHost = [&](NodeId id) {
        if (loc[id] == Loc::DeviceOnly) {
            chargeDownload(re, c.regionBytes, c);
            loc[id] = Loc::Both;
        }
    };
    // Resident arena obligation: `regions` pinned slices of
    // `slices` * sliceBytes total per DPU.
    const auto checkArena = [&](NodeId id, std::uint64_t slices,
                                const char *what) {
        const std::uint64_t need = slices * c.sliceBytes;
        if (need > spec.residentArenaBytes) {
            Violation v;
            v.resource = Resource::Staging;
            v.budget = spec.residentArenaBytes;
            v.usage = need;
            std::ostringstream os;
            os << "resident arena: " << dag.describe(id) << " pins "
               << slices << " slice(s) = " << need
               << " bytes/DPU of " << spec.residentArenaBytes << " ("
               << what << ")";
            v.what = os.str();
            report.violations.push_back(v);
        }
    };
    // Shared convolution leg: `count` broadcast-staged convolutions
    // through the PIM convolver (identical for both PIM backends),
    // or host schoolbook products for the host backend.
    const auto chargeConvs = [&](std::uint64_t count) {
        for (BackendCost *b : {&st, &re}) {
            PipelineReplay *p = (b == &st) ? &pipe : nullptr;
            for (std::uint64_t i = 0; i < count; ++i) {
                chargeUpload(*b, c.convUpBytes, c, p);
                chargeLaunch(*b, c.convMs(), c, p);
                chargeDownload(*b, c.convDownBytes, c, p);
            }
        }
        ho.kernelMs += static_cast<double>(count) * c.hostConvMs();
    };

    // Per-backend delta of one node: full-struct snapshots before and
    // after the node's charges, so attribution gets bytes and launch
    // counts alongside the ms deltas.
    const auto deltaOf = [](const BackendCost &after,
                            const BackendCost &before) {
        OpBackendDelta d;
        d.ms = after.totalMs() - before.totalMs();
        d.kernelMs = after.kernelMs - before.kernelMs;
        d.busBytes = (after.uploadedBytes - before.uploadedBytes) +
                     (after.downloadedBytes - before.downloadedBytes);
        d.launches = after.launches - before.launches;
        return d;
    };

    for (NodeId id = 0; id < dag.size(); ++id) {
        const HeNode &node = dag[id];
        const BackendCost st0 = st;
        const BackendCost re0 = re;
        const BackendCost ho0 = ho;

        switch (node.op) {
          case HeOp::Input:
            // Resident: registered with the cache, which keeps the
            // caller's host copy and uploads it at first device use.
            break;

          case HeOp::Add: {
            // Staged: upload both operands, one elementwise launch,
            // download the sum.
            chargeUpload(st, 2 * c.stagedBytes(1), c, &pipe);
            chargeLaunch(st, c.launchMs(spec.addCycles,
                                        c.perDpu(c.ctElems)), c,
                         &pipe);
            chargeDownload(st, c.stagedBytes(1), c, &pipe);
            // Resident: operands stay in MRAM, output device-only.
            checkArena(id, 3, "a, b and out of a binary resident op");
            ensureDevice(node.args[0]);
            ensureDevice(node.args[1]);
            chargeLaunch(re, c.launchMs(spec.addCycles,
                                        c.perDpu(c.ctElems)), c);
            loc[id] = Loc::DeviceOnly; // kernel output, no host copy
            ho.kernelMs += c.hostElemMs(c.ctElems, spec.hostAddNs);
            break;
          }

          case HeOp::MulPlain:
          case HeOp::Mul:
          case HeOp::Square:
            // The convolver multiplies host copies.
            for (const NodeId a : node.args)
                ensureHost(a);
            chargeConvs(convCount(node, spec));
            break;

          case HeOp::Reduce: {
            const std::uint64_t f = node.args.size();
            for (const NodeId a : node.args)
                ensureHost(a); // packed insert flattens host copies
            // Resident: one term is its own sum and stays on the
            // host; more are one packed upload and log2(f) in-place
            // folds.
            if (f > 1) {
                checkArena(id, f, "packed slices of a tree reduction");
                chargeUpload(re, f * c.regionBytes, c);
                for (std::uint64_t m = f; m > 1; m = (m + 1) / 2) {
                    const std::uint64_t pairs = m / 2;
                    chargeLaunch(re,
                                 c.launchMs(spec.addCycles,
                                            pairs * c.sliceElems), c);
                }
                loc[id] = Loc::DeviceOnly; // folded in MRAM, host stale
            }
            // Staged: tree of staged adds, re-uploading every round.
            std::uint64_t m = f;
            while (m > 1) {
                const std::uint64_t half = m / 2;
                chargeUpload(st, 2 * c.stagedBytes(half), c, &pipe);
                chargeLaunch(st,
                             c.launchMs(spec.addCycles,
                                        c.perDpu(half * c.ctElems)),
                             c, &pipe);
                chargeDownload(st, c.stagedBytes(half), c, &pipe);
                m = half + (m % 2);
            }
            ho.kernelMs += static_cast<double>(f - 1) *
                           c.hostElemMs(c.ctElems, spec.hostAddNs);
            break;
          }

          case HeOp::Output:
            ensureHost(node.args[0]);
            break;
        }

        OpCostRow row;
        row.node = id;
        row.op = node.op;
        row.pimStaged = deltaOf(st, st0);
        row.pimResident = deltaOf(re, re0);
        row.host = deltaOf(ho, ho0);
        report.rows.push_back(row);
    }

    pipe.finish();
    report.pipelined.busMs = pipe.clock.busBusyMs;
    report.pipelined.dpuMs = pipe.clock.dpuBusyMs;
    report.pipelined.makespanMs = pipe.clock.makespanMs();
    report.pipelined.serialMs = pipe.clock.serialMs;
    report.pipelined.launches = pipe.launches;

    const BackendCost *best = &report.pimStaged;
    for (const BackendCost *b : {&report.pimResident, &report.host})
        if (b->totalMs() < best->totalMs())
            best = b;
    report.recommended = best->backend;
    return report;
}

} // namespace analysis
} // namespace pimhe
