/**
 * @file
 * Execution statistics collected by the PIM simulator.
 */

#ifndef PIMHE_PIM_STATS_H
#define PIMHE_PIM_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "pim/checker.h"
#include "pim/config.h"

namespace pimhe {
namespace pim {

/** Per-tasklet issue/stall counters. */
struct TaskletStats
{
    std::uint64_t instructions = 0; //!< issue slots consumed
    std::uint64_t dmaTransfers = 0; //!< blocking MRAM transfers
    std::uint64_t dmaBytes = 0;     //!< bytes moved over DMA
    double dmaStallCycles = 0;      //!< latency the tasklet waited out
};

/** Per-DPU result of one kernel launch. */
struct DpuRunStats
{
    std::vector<TaskletStats> tasklets;
    double cycles = 0; //!< modelled execution cycles for this DPU

    /** Checker findings for this run (empty unless cfg.checker is
     *  enabled — and then hopefully still empty). */
    ConflictReport conflicts;

    /**
     * Shadow-mode verdict: empty when the fast path reproduced the
     * interpreter bit-exactly (or the run was not a shadow run), else
     * a diagnostic naming the kernel, the diverging output byte range
     * or stats field, and both values. DpuSet::launch panics on any
     * non-empty entry after the join, in DPU index order.
     */
    std::string shadowDivergence;

    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t sum = 0;
        for (const auto &t : tasklets)
            sum += t.instructions;
        return sum;
    }
};

/**
 * System-level result of one kernel launch across all used DPUs.
 *
 * Determinism contract: every modelled field (dpus — including order,
 * cycles and conflict reports — maxCycles, kernelMs, hostToDpuMs,
 * dpuToHostMs, launchOverheadMs) is bit-identical at any host thread
 * count. Only the host* observability fields below reflect real
 * wall-clock behaviour and are excluded from that contract.
 */
struct LaunchStats
{
    std::vector<DpuRunStats> dpus;
    double maxCycles = 0;     //!< critical-path DPU cycles
    double kernelMs = 0;      //!< maxCycles / clock
    double hostToDpuMs = 0;   //!< modelled input copy time
    double dpuToHostMs = 0;   //!< modelled output copy time
    double launchOverheadMs = 0;

    /** Wall-clock the host actually spent simulating this launch.
     *  Diagnostic only: never part of modelled time or determinism
     *  comparisons. */
    double hostWallMs = 0;

    /** Host threads the execution engine used for this launch. */
    std::size_t hostThreads = 1;

    /** Resolved execution mode this launch ran under (never Auto). */
    ExecMode execMode = ExecMode::Interpret;

    /** Conflicts found across all DPUs of this launch. */
    std::uint64_t
    totalConflicts() const
    {
        std::uint64_t sum = 0;
        for (const auto &d : dpus)
            sum += d.conflicts.totalConflicts;
        return sum;
    }

    /** True when no DPU reported conflicts or diagnostics. */
    bool
    conflictClean() const
    {
        for (const auto &d : dpus)
            if (!d.conflicts.clean())
                return false;
        return true;
    }

    /** End-to-end modelled time for this launch. */
    double
    totalMs() const
    {
        return kernelMs + hostToDpuMs + dpuToHostMs + launchOverheadMs;
    }
};

/**
 * Lifetime host<->DPU transfer accounting for one DpuSet, split into
 * per-direction buckets so benches can report exactly how many bytes
 * an orchestration strategy moved — and how many it *avoided* moving
 * by reusing MRAM-resident operands. All fields are modelled values
 * driven by the sequential accounting path, so they are bit-identical
 * at any host thread count.
 */
struct TransferTotals
{
    std::uint64_t uploads = 0;         //!< copyToMram/broadcast calls
    std::uint64_t downloads = 0;       //!< copyFromMram calls
    std::uint64_t uploadedBytes = 0;   //!< host->DPU bytes (bus view)
    std::uint64_t downloadedBytes = 0; //!< DPU->host bytes

    /** Bytes an operation would have re-uploaded but found already
     *  resident in MRAM (reported by the resident ciphertext cache). */
    std::uint64_t residentBytesReused = 0;

    double uploadModeledMs = 0;   //!< sum of launches' hostToDpuMs
    double downloadModeledMs = 0; //!< post-launch download time
    double preLaunchDownloadMs = 0;

    /** Total bytes that actually crossed the host<->DPU bus. */
    std::uint64_t
    busBytes() const
    {
        return uploadedBytes + downloadedBytes;
    }

    /** Total modelled transfer time across all buckets. */
    double
    totalModeledMs() const
    {
        return uploadModeledMs + downloadModeledMs +
               preLaunchDownloadMs;
    }
};

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_STATS_H
