/**
 * @file
 * Determinism stress tests for the host-parallel DPU execution engine.
 *
 * The engine's contract: host threads are a wall-clock optimisation
 * only. Results, modelled cycles/times, LaunchStats ordering and
 * checker conflict reports must be bit-identical at 1, 2, 8 or 16
 * host threads, and the fail-fast checker path must abort with the
 * same message (lowest-index dirty DPU) at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "common/thread_pool.h"
#include "pim/system.h"
#include "pimhe/kernels.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using pimhe::testing::kSeed;

// ----- ThreadPool unit tests -----

TEST(ThreadPool, CoversAllIndicesExactlyOnce)
{
    ThreadPool pool(16);
    EXPECT_EQ(pool.threadCount(), 16u);
    std::vector<int> hits(1000, 0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges)
{
    ThreadPool pool(8);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
    std::vector<int> hits(3, 0);
    pool.parallelFor(3, [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ThreadPool, PoolOfOneRunsInlineOnCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(16);
    pool.parallelFor(ids.size(), [&](std::size_t i) {
        ids[i] = std::this_thread::get_id();
    });
    for (const auto &id : ids)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ReusableAcrossManyBatches)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> total{0};
    for (int batch = 0; batch < 64; ++batch)
        pool.parallelFor(17, [&](std::size_t i) {
            total.fetch_add(i, std::memory_order_relaxed);
        });
    EXPECT_EQ(total.load(), 64u * (16u * 17u / 2u));
}

// ----- PIMHE_HOST_THREADS resolution -----

TEST(HostThreads, ExplicitConfigWins)
{
    setenv("PIMHE_HOST_THREADS", "7", 1);
    EXPECT_EQ(resolveHostThreads(3), 3u);
    unsetenv("PIMHE_HOST_THREADS");
}

TEST(HostThreads, EnvOverridesAuto)
{
    setenv("PIMHE_HOST_THREADS", "5", 1);
    EXPECT_EQ(resolveHostThreads(0), 5u);
    unsetenv("PIMHE_HOST_THREADS");
}

TEST(HostThreads, BadEnvFallsBackToHardware)
{
    setenv("PIMHE_HOST_THREADS", "zero", 1);
    const std::size_t resolved = resolveHostThreads(0);
    unsetenv("PIMHE_HOST_THREADS");
    EXPECT_GE(resolved, 1u);
}

TEST(HostThreads, KnobFlowsIntoLaunchStats)
{
    SystemConfig cfg;
    cfg.numDpus = 2;
    cfg.hostThreads = 2;
    DpuSet set(cfg, 2);
    set.launch(1, [](TaskletCtx &ctx) { ctx.charge(1); });
    EXPECT_EQ(set.lastLaunch().hostThreads, 2u);

    setenv("PIMHE_HOST_THREADS", "3", 1);
    SystemConfig auto_cfg;
    auto_cfg.numDpus = 2;
    DpuSet auto_set(auto_cfg, 2);
    unsetenv("PIMHE_HOST_THREADS");
    auto_set.launch(1, [](TaskletCtx &ctx) { ctx.charge(1); });
    EXPECT_EQ(auto_set.lastLaunch().hostThreads, 3u);
}

// ----- engine determinism across thread counts -----

/** Everything a workload run produces that the contract covers. */
struct Snapshot
{
    std::vector<LaunchStats> launches;
    std::vector<std::uint8_t> results;
    double totalModeledMs = 0;
};

/**
 * A realistic mixed workload: 24 DPUs with per-DPU distinct operands,
 * one add launch and one mul launch of the shipped elementwise
 * kernels with the conflict checker recording, then a full readback.
 */
Snapshot
runWorkload(std::size_t host_threads)
{
    constexpr std::size_t kDpus = 24;
    constexpr std::uint32_t kElems = 96;
    constexpr std::uint32_t kLimbs = 2;

    SystemConfig cfg;
    cfg.numDpus = kDpus;
    cfg.hostThreads = host_threads;
    cfg.dpu.checker.enabled = true;

    const auto kp = pimhe_kernels::standardVecParams(kLimbs, kElems);
    const std::size_t arr_bytes = kp.mramB;

    DpuSet set(cfg, kDpus);
    Rng rng(kSeed);
    for (std::size_t d = 0; d < kDpus; ++d) {
        std::vector<std::uint8_t> buf(arr_bytes);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next32());
        set.copyToMram(d, kp.mramA, buf);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next32());
        set.copyToMram(d, kp.mramB, buf);
    }

    set.launch(12, pimhe_kernels::makeVecAddModQKernel(kp));
    set.launch(11, pimhe_kernels::makeVecMulModQKernel(kp));

    Snapshot snap;
    snap.results.resize(kDpus * arr_bytes);
    for (std::size_t d = 0; d < kDpus; ++d)
        set.copyFromMram(d, kp.mramOut,
                         std::span<std::uint8_t>(
                             snap.results.data() + d * arr_bytes,
                             arr_bytes));
    snap.launches = set.launches();
    snap.totalModeledMs = set.totalModeledMs();
    return snap;
}

/** Bitwise comparison of every modelled LaunchStats field. */
void
expectLaunchesIdentical(const Snapshot &ref, const Snapshot &got,
                        std::size_t threads)
{
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    ASSERT_EQ(ref.launches.size(), got.launches.size());
    for (std::size_t l = 0; l < ref.launches.size(); ++l) {
        const LaunchStats &a = ref.launches[l];
        const LaunchStats &b = got.launches[l];
        SCOPED_TRACE("launch " + std::to_string(l));
        EXPECT_EQ(a.maxCycles, b.maxCycles);
        EXPECT_EQ(a.kernelMs, b.kernelMs);
        EXPECT_EQ(a.hostToDpuMs, b.hostToDpuMs);
        EXPECT_EQ(a.dpuToHostMs, b.dpuToHostMs);
        EXPECT_EQ(a.launchOverheadMs, b.launchOverheadMs);
        ASSERT_EQ(a.dpus.size(), b.dpus.size());
        for (std::size_t d = 0; d < a.dpus.size(); ++d) {
            SCOPED_TRACE("dpu " + std::to_string(d));
            EXPECT_EQ(a.dpus[d].cycles, b.dpus[d].cycles);
            ASSERT_EQ(a.dpus[d].tasklets.size(),
                      b.dpus[d].tasklets.size());
            for (std::size_t t = 0; t < a.dpus[d].tasklets.size();
                 ++t) {
                const TaskletStats &ta = a.dpus[d].tasklets[t];
                const TaskletStats &tb = b.dpus[d].tasklets[t];
                EXPECT_EQ(ta.instructions, tb.instructions);
                EXPECT_EQ(ta.dmaTransfers, tb.dmaTransfers);
                EXPECT_EQ(ta.dmaBytes, tb.dmaBytes);
                EXPECT_EQ(ta.dmaStallCycles, tb.dmaStallCycles);
            }
            const ConflictReport &ca = a.dpus[d].conflicts;
            const ConflictReport &cb = b.dpus[d].conflicts;
            EXPECT_EQ(ca.totalConflicts, cb.totalConflicts);
            EXPECT_EQ(ca.accessesRecorded, cb.accessesRecorded);
            EXPECT_EQ(ca.suppressedConflicts, cb.suppressedConflicts);
            EXPECT_EQ(ca.diagnostics.size(), cb.diagnostics.size());
            EXPECT_EQ(ca.summary(), cb.summary());
        }
    }
    EXPECT_EQ(ref.results, got.results);
    EXPECT_EQ(ref.totalModeledMs, got.totalModeledMs);
}

TEST(ParallelExec, BitIdenticalAcrossThreadCounts)
{
    const Snapshot ref = runWorkload(1);
    EXPECT_GT(ref.totalModeledMs, 0.0);
    for (const std::size_t threads : {2u, 8u, 16u})
        expectLaunchesIdentical(ref, runWorkload(threads), threads);
}

TEST(ParallelExec, RepeatedRunsAreStable)
{
    const Snapshot first = runWorkload(8);
    expectLaunchesIdentical(first, runWorkload(8), 8);
}

TEST(ParallelExec, WallClockFieldsAreObservability)
{
    const Snapshot snap = runWorkload(8);
    for (const auto &l : snap.launches) {
        EXPECT_EQ(l.hostThreads, 8u);
        EXPECT_GE(l.hostWallMs, 0.0);
        // Never folded into modelled time.
        EXPECT_EQ(l.totalMs(), l.kernelMs + l.hostToDpuMs +
                                   l.dpuToHostMs + l.launchOverheadMs);
    }
}

// ----- fail-fast under parallel execution -----

/** Every tasklet stores to WRAM byte 0: a write/write race. */
Kernel
racyKernel()
{
    return [](TaskletCtx &ctx) { ctx.wramStore32(0, ctx.id()); };
}

TEST(ParallelExecDeathTest, FailFastReportsLowestDirtyDpu)
{
    // The panic must name DPU 0 — the lowest dirty index — no matter
    // which host thread finishes its DPU first.
    for (const std::size_t threads : {1u, 8u}) {
        EXPECT_DEATH(
            {
                SystemConfig cfg;
                cfg.numDpus = 8;
                cfg.hostThreads = threads;
                cfg.dpu.checker.enabled = true;
                cfg.dpu.checker.failFast = true;
                DpuSet set(cfg, 8);
                set.launch(4, racyKernel());
            },
            "conflict check failed on DPU 0");
    }
}

TEST(ParallelExec, NonFailFastReportsSurviveParallelLaunch)
{
    SystemConfig cfg;
    cfg.numDpus = 8;
    cfg.hostThreads = 8;
    cfg.dpu.checker.enabled = true;
    DpuSet set(cfg, 8);
    const auto &stats = set.launch(4, racyKernel());
    EXPECT_FALSE(stats.conflictClean());
    for (const auto &d : stats.dpus)
        EXPECT_GT(d.conflicts.totalConflicts, 0u);
}

// ----- pre-launch download accounting (regression) -----

TEST(DpuSetAccounting, PreLaunchDownloadsAreCharged)
{
    SystemConfig cfg;
    cfg.numDpus = 2;
    DpuSet set(cfg, 2);
    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(set.preLaunchDownloadMs(), 0.0);
    set.copyFromMram(0, 0, buf);
    const double pre = set.preLaunchDownloadMs();
    EXPECT_GT(pre, 0.0);
    EXPECT_EQ(set.totalModeledMs(), pre);

    // After a launch, downloads charge that launch, not the bucket.
    set.launch(1, [](TaskletCtx &ctx) { ctx.charge(1); });
    set.copyFromMram(0, 0, buf);
    EXPECT_EQ(set.preLaunchDownloadMs(), pre);
    EXPECT_GT(set.lastLaunch().dpuToHostMs, 0.0);
    EXPECT_EQ(set.totalModeledMs(),
              pre + set.lastLaunch().totalMs());
}

} // namespace
} // namespace pimhe
