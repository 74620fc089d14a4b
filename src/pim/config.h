/**
 * @file
 * Configuration of the simulated UPMEM-like PIM system.
 *
 * Default values model the first-generation UPMEM system evaluated in
 * the paper: 2,524 DPUs at 425 MHz with 158 GB of PIM memory. The
 * microarchitectural constants (dispatch interval, DMA costs, transfer
 * bandwidths) follow the published PrIM characterisation of the same
 * hardware (Gomez-Luna et al., IEEE Access 2022); they are collected
 * here so every modelling assumption is visible and overridable.
 */

#ifndef PIMHE_PIM_CONFIG_H
#define PIMHE_PIM_CONFIG_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "pim/checker.h"

namespace pimhe {
namespace pim {

/**
 * How DpuSet::launch executes a CompiledKernel (see pim/dpu.h):
 *
 *  - Interpret: per-intrinsic TaskletCtx interpretation — the
 *    functional + timing oracle, with the dynamic conflict checker
 *    attached when enabled.
 *  - Fast: the kernel's FastKernel implementation — vectorized host
 *    loops computing the same MRAM effects and charging the same
 *    per-tasklet counters through the closed-form cost mirror. No
 *    dynamic checker (the static verifier/prover still run).
 *  - Shadow: both paths on every DPU; any divergence in semantic
 *    outputs or modelled stats panics with the kernel, DPU and first
 *    diverging byte range. Inherits all interpreter-side analyses.
 *  - Auto: resolve from the PIMHE_EXEC_MODE environment variable
 *    ("interpret" | "fast" | "shadow"), defaulting to Interpret.
 *
 * Kernels launched as a plain pim::Kernel (no compiled fast path)
 * always interpret, regardless of mode.
 */
enum class ExecMode
{
    Auto,
    Interpret,
    Fast,
    Shadow,
};

/**
 * Resolve ExecMode::Auto: PIMHE_EXEC_MODE when set (the tooling uses
 * it to rerun whole suites under fast/shadow without code changes),
 * otherwise Interpret. Explicit modes pass through untouched.
 */
inline ExecMode
resolveExecMode(ExecMode configured)
{
    if (configured != ExecMode::Auto)
        return configured;
    const char *env = std::getenv("PIMHE_EXEC_MODE");
    if (env == nullptr || *env == '\0')
        return ExecMode::Interpret;
    if (std::strcmp(env, "interpret") == 0)
        return ExecMode::Interpret;
    if (std::strcmp(env, "fast") == 0)
        return ExecMode::Fast;
    if (std::strcmp(env, "shadow") == 0)
        return ExecMode::Shadow;
    panic("unknown PIMHE_EXEC_MODE '", env,
          "' (want interpret|fast|shadow)");
}

/** Per-DPU and system-level hardware parameters. */
struct DpuConfig
{
    /** DPU pipeline clock in MHz (UPMEM gen1: 425 MHz, some 350). */
    double clockMhz = 425.0;

    /**
     * Fine-grained multithreading dispatch interval: a tasklet may
     * issue a new instruction at most every `dispatchInterval` cycles
     * (the 14-stage pipeline's revolver section), so throughput
     * saturates at 11 tasklets — the effect the paper observes.
     */
    unsigned dispatchInterval = 11;

    /** Maximum hardware tasklets per DPU. */
    unsigned maxTasklets = 24;

    /** WRAM size in bytes (64 KB scratchpad). */
    std::size_t wramBytes = 64 * 1024;

    /** MRAM size in bytes (64 MB DRAM bank). */
    std::size_t mramBytes = 64ULL * 1024 * 1024;

    /** Fixed cycles of a WRAM<->MRAM DMA transfer (setup latency). */
    double dmaFixedCycles = 77.0;

    /** Additional DMA cycles per byte transferred. */
    double dmaCyclesPerByte = 0.5;

    /**
     * When true, model a hypothetical future DPU with a native
     * 32x32->64 multiplier (1 issue slot per half of the product)
     * instead of the gen1 shift-and-add mul_step sequence. Used by the
     * abl_native_mul experiment for the paper's Key Takeaway 2.
     */
    bool nativeMul32 = false;

    /**
     * Cross-tasklet conflict checker (see pim/checker.h). Off by
     * default; when enabled every Dpu::run ends with a conflict sweep
     * whose report lands in DpuRunStats::conflicts.
     */
    CheckerConfig checker;
};

/** Whole-system parameters. */
struct SystemConfig
{
    DpuConfig dpu;

    /** Number of DPUs in the system (paper's testbed: 2,524). */
    std::size_t numDpus = 2524;

    /**
     * Aggregate host->DPU copy bandwidth in GB/s for parallel
     * transfers across many ranks (PrIM measures ~6.7 GB/s).
     */
    double hostToDpuGbps = 6.0;

    /** Aggregate DPU->host copy bandwidth in GB/s (~4.7 GB/s). */
    double dpuToHostGbps = 4.4;

    /** Fixed host-side launch/teardown overhead per kernel, in us. */
    double launchOverheadUs = 20.0;

    /**
     * Host threads used to execute independent simulated DPUs
     * concurrently (wall-clock only — modelled results, times and
     * checker reports are bit-identical at any value). 0 means auto:
     * the PIMHE_HOST_THREADS environment variable when set, otherwise
     * the machine's hardware concurrency.
     */
    std::size_t hostThreads = 0;

    /**
     * When true, DpuSet::launch overloads that receive a
     * KernelFootprint (analysis/footprint.h) run the static
     * LaunchVerifier before any simulated cycle and panic on a
     * violated budget, with the report retained in
     * DpuSet::lastVerify(). Off by default so ad-hoc experiments pay
     * nothing; the test suite turns it on.
     */
    bool verifyBeforeLaunch = false;

    /**
     * Execution mode for compiled-kernel launches (see ExecMode).
     * Resolved once per DpuSet via resolveExecMode(), so Auto defers
     * to the PIMHE_EXEC_MODE environment variable.
     */
    ExecMode execMode = ExecMode::Auto;

    /**
     * Per-DPU MRAM budget the resident ciphertext cache may manage
     * (see pimhe/resident.h). 0 means the whole MRAM bank. Tests set
     * tiny values to force LRU eviction churn; real runs leave the
     * default. Clamped to dpu.mramBytes (residentArenaBytes).
     */
    std::uint64_t residentCapacityBytes = 0;

    /** Per-DPU bytes the resident cache manages: residentCapacityBytes
     *  clamped to the bank. The only copy of the clamp: the cache and
     *  the plan cost model call it. */
    std::uint64_t
    residentArenaBytes() const
    {
        return residentCapacityBytes == 0
                   ? dpu.mramBytes
                   : std::min<std::uint64_t>(residentCapacityBytes,
                                             dpu.mramBytes);
    }

    /** Total PIM-enabled memory capacity in bytes (158 GB). */
    double
    totalMemoryBytes() const
    {
        return static_cast<double>(numDpus) *
               static_cast<double>(dpu.mramBytes);
    }
};

/** The paper's evaluated UPMEM system. */
inline SystemConfig
paperSystem()
{
    return SystemConfig{};
}

/**
 * Modelled bus time (ms) of one host<->DPU transfer of `bytes` that
 * touches `dpus` DPUs: every DPU link sustains kPerDpuGbps, and the
 * bus saturates at `aggregate_gbps` (SystemConfig::hostToDpuGbps or
 * dpuToHostGbps). The only copy of the formula: the simulator, the
 * figure model (PimCostModel) and the plan cost model all call it.
 */
inline double
busMs(std::uint64_t bytes, std::size_t dpus, double aggregate_gbps)
{
    if (bytes == 0)
        return 0;
    constexpr double kPerDpuGbps = 0.33;
    const double gbps =
        std::min(aggregate_gbps,
                 kPerDpuGbps * static_cast<double>(dpus));
    return static_cast<double>(bytes) / (gbps * 1e6);
}

/**
 * Per-DPU share of `elems` elements of `elem_bytes` each over `dpus`
 * DPUs: ceil(elems / dpus) elements per DPU (the tail DPU zero-padded,
 * so all run one shape), their stride rounded up to the 8-byte DMA
 * granule so every kernel transfer stays aligned. The only copy of the
 * layout decision: pimhe/resident.h's Geometry (staged and resident
 * MRAM regions) and the plan cost model call it.
 */
struct SliceLayout
{
    std::uint64_t perDpu = 0; //!< elements per DPU
    std::uint64_t stride = 0; //!< their bytes, DMA-aligned
};

inline SliceLayout
sliceLayout(std::uint64_t elems, std::size_t dpus, std::size_t elem_bytes)
{
    const std::uint64_t per_dpu = (elems + dpus - 1) / dpus;
    return {per_dpu, (per_dpu * elem_bytes + 7) / 8 * 8};
}

/**
 * Two's-complement accumulator limbs of the negacyclic convolution
 * kernel over `limbs`-limb coefficients: a product spans 2 * limbs,
 * one more limb absorbs the sum over n terms, and the count rounds up
 * to even so each accumulator is whole 8-byte DMA granules. The only
 * copy: ConvKernelParams::accLimbs, the plan cost model and the
 * interval analyzer call it.
 */
inline std::size_t
convAccLimbs(std::size_t limbs)
{
    const std::size_t raw = 2 * limbs + 1;
    return raw + (raw & 1);
}

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_CONFIG_H
