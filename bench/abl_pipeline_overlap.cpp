/**
 * @file
 * Ablation — async pipelined launches: how much transfer time the
 * async pipeline's window of two hides under DPU compute on a
 * multi-launch streaming workload, with the determinism contract
 * checked alongside.
 *
 * One experiment, a full simulation with the pre-launch static
 * verifier armed: a streaming elementwise op sequence (the
 * ciphertext-batch shape). The same 16 launches run synchronously and
 * through launchAsync, each op staged into its own MRAM slot with at
 * most two ops in flight (the same staged-op body as the sync run).
 * The two-track clock's serial track reproduces the synchronous
 * accounting; the makespan is the max of the bus and DPU tracks, and
 * the ratio is exactly the transfer time the pipeline hides.
 *
 * The band checks are acceptance gates for the pipeline engine
 * itself (>= 1.5x modelled throughput on the op stream, overlapping
 * transfer/kernel span pairs present, results AND per-launch modelled
 * stats bit-identical to the synchronous path), so the process exits
 * nonzero when any fails. The bench runs as a ctest
 * (bench/CMakeLists.txt).
 */

#include "bench_util.h"
#include "common/rng.h"
#include "pimhe/orchestrator.h"

using namespace pimhe;
using namespace pimhe::bench;

namespace {

constexpr std::size_t kLimbs = 2;
constexpr std::size_t kOps = 16;
constexpr std::size_t kDegree = 512;
constexpr std::size_t kDpus = 2;
constexpr unsigned kTasklets = 12;

pim::SystemConfig
makeSystem(std::size_t dpus)
{
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    return cfg;
}

/** Random ciphertext with coefficients below q (the kernels run the
 *  same arithmetic on encrypted and raw data; skipping keygen keeps
 *  the bench fast). */
Ciphertext<kLimbs>
randomCiphertext(Rng &rng, const BfvContext<kLimbs> &ctx)
{
    const std::size_t n = ctx.ring().degree();
    Ciphertext<kLimbs> ct;
    for (std::size_t c = 0; c < 2; ++c) {
        ct.comps.emplace_back(n);
        for (std::size_t i = 0; i < n; ++i) {
            WideInt<kLimbs> w;
            for (std::size_t l = 0; l < kLimbs; ++l)
                w.setLimb(l, rng.next32());
            ct[c][i] = mod(w, ctx.ring().modulus());
        }
    }
    return ct;
}

bool
ciphertextsEqual(const std::vector<Ciphertext<kLimbs>> &a,
                 const std::vector<Ciphertext<kLimbs>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size())
            return false;
        for (std::size_t c = 0; c < a[i].size(); ++c)
            if (!(a[i][c] == b[i][c]))
                return false;
    }
    return true;
}

/** Every modelled LaunchStats field bit-identical (the wall-clock
 *  observability fields are outside the contract). */
bool
launchesIdentical(const std::vector<pim::LaunchStats> &a,
                  const std::vector<pim::LaunchStats> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t l = 0; l < a.size(); ++l) {
        if (a[l].maxCycles != b[l].maxCycles ||
            a[l].kernelMs != b[l].kernelMs ||
            a[l].hostToDpuMs != b[l].hostToDpuMs ||
            a[l].dpuToHostMs != b[l].dpuToHostMs ||
            a[l].launchOverheadMs != b[l].launchOverheadMs)
            return false;
        if (a[l].dpus.size() != b[l].dpus.size())
            return false;
        for (std::size_t d = 0; d < a[l].dpus.size(); ++d)
            if (a[l].dpus[d].cycles != b[l].dpus[d].cycles)
                return false;
    }
    return true;
}

} // namespace

int
main()
{
    Report report("abl_pipeline_overlap", "S5",
                  "async pipelined launch overlap",
                  "pipelined op stream >= 1.5x modelled throughput vs "
                  "synchronous; results and modelled stats "
                  "bit-identical");

    bool all_pass = true;
    const auto gate = [&](const std::string &label, double value,
                          double lo, double hi) {
        report.bandCheck(label, value, lo, hi);
        all_pass = all_pass && value >= lo && value <= hi;
    };

    // ---- streaming elementwise op sequence ----
    const BfvParams<kLimbs> params =
        standardParams<kLimbs>().withDegree(kDegree);
    BfvContext<kLimbs> ctx(params);
    Rng rng(0x0A51C0DE);
    std::vector<std::vector<Ciphertext<kLimbs>>> lhs, rhs;
    for (std::size_t i = 0; i < kOps; ++i) {
        lhs.push_back({randomCiphertext(rng, ctx)});
        rhs.push_back({randomCiphertext(rng, ctx)});
    }

    std::cout << "op stream: " << kOps << " elementwise adds, n = "
              << kDegree << ", " << kLimbs * 32
              << "-bit coefficients, " << kDpus << " DPUs, "
              << kTasklets << " tasklets\n\n";

    PimHeSystem<kLimbs> sync(ctx, makeSystem(kDpus), kDpus, kTasklets);
    std::vector<std::vector<Ciphertext<kLimbs>>> sync_out;
    for (std::size_t i = 0; i < kOps; ++i)
        sync_out.push_back(sync.addCiphertextVectors(lhs[i], rhs[i]));

    PimHeSystem<kLimbs> async(ctx, makeSystem(kDpus), kDpus,
                              kTasklets);
    std::vector<PimHeSystem<kLimbs>::AsyncOp> ops;
    for (std::size_t i = 0; i < kOps; ++i)
        ops.push_back(async.addAsync(lhs[i], rhs[i]));
    std::vector<std::vector<Ciphertext<kLimbs>>> async_out;
    for (auto &op : ops)
        async_out.push_back(op.get());
    async.finishAsync();

    const pim::PipelineStats &ps = async.dpuSet().pipelineStats();
    Table t({"path", "bus ms", "dpu ms", "makespan ms", "serial ms",
             "speedup"});
    t.addRow({"synchronous", "-", "-",
              Table::fmt(sync.totalModeledMs(), 3),
              Table::fmt(sync.totalModeledMs(), 3), "1.000"});
    t.addRow({"pipelined", Table::fmt(ps.clock.busBusyMs, 3),
              Table::fmt(ps.clock.dpuBusyMs, 3),
              Table::fmt(ps.makespanMs(), 3),
              Table::fmt(ps.serialMs(), 3),
              Table::fmt(ps.speedup(), 3)});
    report.table(t);
    report.series("stream_speedup", {ps.speedup()});
    report.series("stream_makespan_ms", {ps.makespanMs()});
    report.series("stream_serial_ms", {ps.serialMs()});
    report.series("overlapping_pairs",
                  {static_cast<double>(ps.overlappingPairs())});

    bool results_equal = true;
    for (std::size_t i = 0; i < kOps; ++i)
        results_equal =
            results_equal && ciphertextsEqual(sync_out[i], async_out[i]);

    std::cout << "\nband checks:\n";
    gate("op stream modelled speedup", ps.speedup(), 1.5, 16.0);
    gate("transfer/kernel span pairs overlapping",
         static_cast<double>(ps.overlappingPairs()), 1.0, 1e9);
    gate("async results bit-equal to sync", results_equal ? 1.0 : 0.0,
         1.0, 1.0);
    gate("modelled LaunchStats bit-identical",
         launchesIdentical(sync.dpuSet().launches(),
                           async.dpuSet().launches())
             ? 1.0
             : 0.0,
         1.0, 1.0);
    // The pipeline's serial track must reproduce the synchronous
    // engine's accounting (same doubles, same order).
    gate("serial track / synchronous modelled time",
         ps.serialMs() / sync.totalModeledMs(), 0.999999, 1.000001);

    const int rc = report.write();
    return all_pass ? rc : 1;
}
