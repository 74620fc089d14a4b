/**
 * @file
 * Ablation — compiled-kernel fast path: wall-clock throughput of the
 * simulator at increasing DPU counts, interpreter vs fast execution
 * mode, on the same multi-DPU vector-multiply launch the host-parallel
 * ablation uses, at 64 bits and at the paper's 109-bit width. The
 * fast path exists because instruction-level interpretation makes the
 * simulated-DPU count the wall-clock bottleneck; this bench measures
 * exactly that ratio, while asserting every modelled quantity
 * (critical-path cycles, kernel time, copy times) stays bit-identical
 * between the two modes — the property the shadow-mode differential
 * suite proves per kernel.
 */

#include "bench_util.h"
#include "common/thread_pool.h"
#include "pimhe/fast_kernels.h"

using namespace pimhe;
using namespace pimhe::bench;

namespace {

pim::LaunchStats
runOnce(pim::ExecMode mode, std::size_t dpus, std::size_t host_threads,
        unsigned tasklets, std::size_t limbs, std::size_t per_dpu_elems)
{
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.hostThreads = host_threads;
    cfg.execMode = mode;
    pim::DpuSet set(cfg, dpus);

    const pimhe_kernels::VecKernelParams kp =
        pimhe_kernels::standardVecParams(limbs, per_dpu_elems);
    const std::size_t arr_bytes = kp.mramB;

    // Nonzero operands so the fast path's arithmetic really runs.
    std::vector<std::uint8_t> a(arr_bytes, 0), b(arr_bytes, 0);
    for (std::size_t i = 0; i < arr_bytes; i += 8) {
        a[i] = static_cast<std::uint8_t>(i * 37 + 11);
        b[i] = static_cast<std::uint8_t>(i * 61 + 5);
    }
    for (std::size_t d = 0; d < dpus; ++d) {
        set.copyToMram(d, kp.mramA, a);
        set.copyToMram(d, kp.mramB, b);
    }
    // Modelled stats come from the first launch — the only one that
    // carries the pending upload bytes, so its hostToDpuMs is the
    // deterministic value the bit-identical check compares. The wall
    // clock is the median of five launches: one slow or fast outlier
    // on a shared host moves it no further than its neighbours.
    // (Taking whole stats from whichever launch was faster made
    // hostToDpuMs depend on which index won the wall race per mode,
    // flaking the identity check.)
    const auto ck = pimhe_kernels::compiledVecMulModQ(kp);
    set.launch(tasklets, ck);
    pim::LaunchStats stats = set.lastLaunch();
    std::vector<double> wall = {stats.hostWallMs};
    while (wall.size() < 5) {
        set.launch(tasklets, ck);
        wall.push_back(set.lastLaunch().hostWallMs);
    }
    std::sort(wall.begin(), wall.end());
    stats.hostWallMs = p50(wall);
    return stats;
}

bool
modelledIdentical(const pim::LaunchStats &x, const pim::LaunchStats &y)
{
    if (x.maxCycles != y.maxCycles || x.kernelMs != y.kernelMs ||
        x.hostToDpuMs != y.hostToDpuMs ||
        x.dpuToHostMs != y.dpuToHostMs ||
        x.dpus.size() != y.dpus.size())
        return false;
    for (std::size_t d = 0; d < x.dpus.size(); ++d)
        if (x.dpus[d].cycles != y.dpus[d].cycles)
            return false;
    return true;
}

/** One sweep's verdicts: the speedup at 256 DPUs, and whether every
 *  modelled stat matched between the modes. */
struct Sweep
{
    double speedupAt256 = 0;
    bool identical = true;
};

/** Interpreter vs fast wall-clock of the `limbs`-limb multiply at
 *  64, 256 and 512 DPUs: one table and the two wall series (suffixed
 *  with `suffix`). */
Sweep
sweep(Report &report, std::size_t limbs, const std::string &suffix)
{
    const unsigned tasklets = 12;
    const std::size_t per_dpu = 4096;
    const std::size_t host_threads = 8;
    const std::size_t hw = resolveHostThreads(0);

    std::cout << "full simulation: " << (limbs == 4 ? 109 : 32 * limbs)
              << "-bit vector mul, " << per_dpu << " elements/DPU, "
              << tasklets << " tasklets, " << host_threads
              << " host threads (host has " << hw << " thread(s))\n";

    Table t({"DPUs", "interpret (ms)", "fast (ms)", "speedup",
             "bit-identical"});
    Sweep out;
    std::vector<double> interp_ms, fast_ms;
    for (const std::size_t dpus : {64ul, 256ul, 512ul}) {
        const auto interp = runOnce(pim::ExecMode::Interpret, dpus,
                                    host_threads, tasklets, limbs,
                                    per_dpu);
        const auto fast = runOnce(pim::ExecMode::Fast, dpus,
                                  host_threads, tasklets, limbs,
                                  per_dpu);
        const bool same = modelledIdentical(interp, fast);
        out.identical = out.identical && same;
        const double sp =
            interp.hostWallMs / std::max(fast.hostWallMs, 1e-9);
        if (dpus == 256)
            out.speedupAt256 = sp;
        t.addRow({std::to_string(dpus), Table::fmt(interp.hostWallMs, 2),
                  Table::fmt(fast.hostWallMs, 2), Table::fmtSpeedup(sp),
                  same ? "yes" : "NO"});
        interp_ms.push_back(interp.hostWallMs);
        fast_ms.push_back(fast.hostWallMs);
    }
    report.table(t);
    report.series("interpret_wall_ms" + suffix, interp_ms);
    report.series("fast_wall_ms" + suffix, fast_ms);
    return out;
}

} // namespace

int
main()
{
    Report report("abl_fastpath_scaling", "S4",
                  "compiled-kernel fast path",
                  "fast mode beats instruction-level interpretation "
                  "by >= 4x wall-clock at 256 DPUs (64-bit multiply) "
                  "and >= 3.5x at the paper's 109-bit width; modelled "
                  "stats bit-identical between modes");

    // The 64-bit multiply has had native host lanes longest; the
    // 109-bit one is the paper's Fig. 1b width (4 limbs).
    const Sweep w64 = sweep(report, 2, "");
    std::cout << "\n";
    const Sweep w109 = sweep(report, 4, "_109b");
    const bool all_identical = w64.identical && w109.identical;

    std::cout << "\nband checks:\n";
    report.bandCheck("modelled stats identical in both modes",
                     all_identical ? 1.0 : 0.0, 1.0, 1.0);
    report.bandCheck("fast-path speedup at 256 DPUs", w64.speedupAt256,
                     4.0, 100000.0);
    // The 109-bit lane spends most of a fast launch in its own
    // arithmetic, so its speedup sits below the 64-bit one; without
    // the lane the ratio reads about 2x.
    report.bandCheck("fast-path speedup at 256 DPUs (109-bit)",
                     w109.speedupAt256, 3.5, 100000.0);
    const int rc = report.write();
    return all_identical ? rc : 1;
}
