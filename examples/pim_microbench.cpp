/**
 * @file
 * Drive the PIM simulator directly: run the vector add / multiply
 * kernels at a chosen shape and print the full launch breakdown —
 * handy for exploring the hardware model without the HE layers.
 *
 *   ./build/examples/pim_microbench --op mul --elems 4096 \
 *       --limbs 4 --tasklets 12 --dpus 4
 *
 * Also demonstrates the host-parallel execution engine: the same
 * launch is simulated across --wall-dpus DPUs with 1 host thread and
 * with --host-threads (default: auto), reporting the wall-clock
 * speedup and checking the modelled cycles are bit-identical.
 */

#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "pimhe/cost_model.h"

using namespace pimhe;

namespace {

/** One engine run: stage, launch, return the LaunchStats copy. */
pim::LaunchStats
runEngineDemo(const pim::SystemConfig &base, std::size_t host_threads,
              std::size_t dpus, unsigned tasklets, perf::OpKind op,
              std::size_t limbs, std::size_t per_dpu_elems)
{
    pim::SystemConfig cfg = base;
    cfg.hostThreads = host_threads;
    cfg.numDpus = std::max(cfg.numDpus, dpus);
    pim::DpuSet set(cfg, dpus);

    const pimhe_kernels::VecKernelParams kp =
        pimhe_kernels::standardVecParams(limbs, per_dpu_elems);
    const std::size_t arr_bytes = kp.mramB;

    std::vector<std::uint8_t> zeros(arr_bytes, 0);
    for (std::size_t d = 0; d < dpus; ++d) {
        set.copyToMram(d, kp.mramA, zeros);
        set.copyToMram(d, kp.mramB, zeros);
    }
    set.launch(tasklets,
               op == perf::OpKind::VecMul
                   ? pimhe_kernels::makeVecMulModQKernel(kp)
                   : pimhe_kernels::makeVecAddModQKernel(kp));
    return set.lastLaunch();
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"op", "elems", "limbs", "tasklets", "dpus",
                  "native-mul", "host-threads", "wall-dpus"});
    const std::string op_name = args.getString("op", "add");
    const std::size_t elems =
        static_cast<std::size_t>(args.getInt("elems", 8192));
    const std::size_t limbs =
        static_cast<std::size_t>(args.getInt("limbs", 4));
    const unsigned tasklets =
        static_cast<unsigned>(args.getInt("tasklets", 12));
    const std::size_t dpus =
        static_cast<std::size_t>(args.getInt("dpus", 2524));
    const bool native_mul = args.getBool("native-mul", false);

    if (limbs != 1 && limbs != 2 && limbs != 4)
        fatal("--limbs must be 1, 2 or 4");
    const perf::OpKind op = op_name == "mul" ? perf::OpKind::VecMul
                                             : perf::OpKind::VecAdd;

    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = std::max<std::size_t>(dpus, 1);
    cfg.dpu.nativeMul32 = native_mul;
    PimCostModel model(cfg, tasklets);

    std::cout << "simulated UPMEM system: " << cfg.numDpus
              << " DPUs @ " << cfg.dpu.clockMhz << " MHz, "
              << tasklets << " tasklets"
              << (native_mul ? ", native 32-bit multiplier" : "")
              << "\n";
    std::cout << "operation: " << (limbs * 32) << "-bit vector "
              << op_name << " over " << elems << " elements\n\n";

    // Exact per-DPU simulation for the single-DPU shape.
    const std::size_t used = model.dpusUsed(elems);
    const std::size_t per_dpu = (elems + used - 1) / used;
    const double cycles =
        model.simulateElementwiseCycles(op, limbs, per_dpu);

    Table t({"metric", "value"});
    t.addRow({"DPUs used", std::to_string(used)});
    t.addRow({"elements per DPU", std::to_string(per_dpu)});
    t.addRow({"simulated cycles per DPU", Table::fmt(cycles, 0)});
    t.addRow({"instructions per element",
              Table::fmt(cycles / static_cast<double>(per_dpu), 1)});
    const auto b = model.elementwiseMs(op, limbs, elems);
    t.addRow({"kernel time (ms)", Table::fmt(b.computeMs, 4)});
    t.addRow({"launch overhead (ms)", Table::fmt(b.overheadMs, 4)});
    const auto bt =
        model.elementwiseWithTransfersMs(op, limbs, elems);
    t.addRow({"with host staging (ms)", Table::fmt(bt.totalMs(), 4)});
    t.print(std::cout);

    // ----- host-parallel execution engine demo -----
    const std::size_t wall_dpus = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.getInt("wall-dpus", 64)));
    const std::size_t host_threads = resolveHostThreads(
        static_cast<std::size_t>(args.getInt("host-threads", 0)));
    const std::size_t demo_per_dpu =
        std::max<std::size_t>(per_dpu, 128);

    std::cout << "\nhost-parallel execution engine: " << wall_dpus
              << " DPUs x " << demo_per_dpu << " elements, "
              << host_threads << " host thread(s) vs 1\n";
    const auto seq = runEngineDemo(cfg, 1, wall_dpus, tasklets, op,
                                   limbs, demo_per_dpu);
    const auto par = runEngineDemo(cfg, host_threads, wall_dpus,
                                   tasklets, op, limbs, demo_per_dpu);
    const bool identical = seq.maxCycles == par.maxCycles &&
                           seq.kernelMs == par.kernelMs;

    Table e({"host threads", "wall ms", "modelled kernel ms"});
    e.addRow({"1", Table::fmt(seq.hostWallMs, 2),
              Table::fmt(seq.kernelMs, 4)});
    e.addRow({std::to_string(par.hostThreads),
              Table::fmt(par.hostWallMs, 2),
              Table::fmt(par.kernelMs, 4)});
    e.print(std::cout);
    std::cout << "wall-clock speedup: "
              << Table::fmt(seq.hostWallMs /
                                std::max(par.hostWallMs, 1e-9),
                            2)
              << "x with " << par.hostThreads << " host thread(s); "
              << "modelled cycles bit-identical: "
              << (identical ? "yes" : "NO — ENGINE BUG") << "\n";
    return identical ? 0 : 1;
}
