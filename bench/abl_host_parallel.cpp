/**
 * @file
 * Ablation — host-parallel execution engine: full instruction-level
 * simulation of a multi-DPU vector-multiply launch at increasing host
 * thread counts. Unlike the figure benches (closed-form cost model),
 * this drives `DpuSet::launch` itself, so it measures the *simulator's*
 * wall-clock throughput — the quantity the engine exists to improve —
 * while asserting the modelled cycles stay bit-identical to the
 * single-threaded run (the engine's determinism contract).
 *
 * On a single-core host the speedup column reads ~1x by physics; the
 * bit-identical verdict is the part that must always PASS.
 */

#include "bench_util.h"
#include "common/thread_pool.h"
#include "pimhe/cost_model.h"

using namespace pimhe;
using namespace pimhe::bench;

namespace {

pim::LaunchStats
runOnce(std::size_t host_threads, std::size_t dpus, unsigned tasklets,
        std::size_t limbs, std::size_t per_dpu_elems)
{
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.hostThreads = host_threads;
    pim::DpuSet set(cfg, dpus);

    const pimhe_kernels::VecKernelParams kp =
        pimhe_kernels::standardVecParams(limbs, per_dpu_elems);
    const std::size_t arr_bytes = kp.mramB;

    std::vector<std::uint8_t> zeros(arr_bytes, 0);
    for (std::size_t d = 0; d < dpus; ++d) {
        set.copyToMram(d, kp.mramA, zeros);
        set.copyToMram(d, kp.mramB, zeros);
    }
    set.launch(tasklets, pimhe_kernels::makeVecMulModQKernel(kp));
    return set.lastLaunch();
}

} // namespace

int
main()
{
    Report report("abl_host_parallel", "S3",
                  "host-parallel execution engine",
                  "simulator wall-clock scales with host threads; "
                  "modelled cycles bit-identical at every count");

    const std::size_t dpus = 64;
    const unsigned tasklets = 12;
    const std::size_t limbs = 2;
    const std::size_t per_dpu = 2048;
    const std::size_t hw = resolveHostThreads(0);

    std::cout << "full simulation: " << dpus << " DPUs x " << per_dpu
              << " elements, 64-bit vector mul, " << tasklets
              << " tasklets (host has " << hw << " thread(s))\n";

    const auto base = runOnce(1, dpus, tasklets, limbs, per_dpu);
    Table t({"host threads", "wall (ms)", "speedup", "bit-identical"});
    t.addRow({"1", Table::fmt(base.hostWallMs, 2), "1.00x", "yes"});

    bool all_identical = true;
    double best = 1.0;
    std::vector<double> wall_ms{base.hostWallMs};
    for (const std::size_t threads : {2ul, 4ul, 8ul}) {
        const auto run = runOnce(threads, dpus, tasklets, limbs, per_dpu);
        const bool same = run.maxCycles == base.maxCycles &&
                          run.kernelMs == base.kernelMs &&
                          run.hostToDpuMs == base.hostToDpuMs;
        all_identical = all_identical && same;
        const double sp =
            base.hostWallMs / std::max(run.hostWallMs, 1e-9);
        best = std::max(best, sp);
        t.addRow({std::to_string(threads), Table::fmt(run.hostWallMs, 2),
                  Table::fmtSpeedup(sp), same ? "yes" : "NO"});
        wall_ms.push_back(run.hostWallMs);
    }
    report.table(t);
    report.series("host_wall_ms", wall_ms);

    std::cout << "\nband checks:\n";
    report.bandCheck("modelled cycles identical at all thread counts",
                     all_identical ? 1.0 : 0.0, 1.0, 1.0);
    if (hw >= 4)
        report.bandCheck("best wall-clock speedup (>=4 host threads)",
                         best, 2.0, 64.0);
    else
        std::cout << "  [SKIP] wall-clock speedup band (host has "
                  << hw << " thread(s); need >= 4 to observe >= 2x)\n";
    const int rc = report.write();
    return all_identical ? rc : 1;
}
