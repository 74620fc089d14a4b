/**
 * @file
 * Differential and failure-path tests of the async pipelined launch
 * engine.
 *
 * The engine's contract extends the parallel-execution one: an async
 * op stream must produce results AND per-launch modelled LaunchStats
 * bit-identical to the synchronous path at any host thread count —
 * the pipeline overlap may only ever show up in pipelineStats(),
 * whose two-track makespan is the max of the bus and DPU tracks
 * instead of their sum. The failure paths are load-bearing too:
 * deferred verifier rejections must surface at the merge point with
 * the synchronous diagnostics, and the fail-fast checker must name
 * the lowest-indexed dirty DPU regardless of completion order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pim/pipeline.h"
#include "pim/system.h"
#include "pimhe/fast_kernels.h"
#include "pimhe/kernels.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using pimhe::testing::BfvHarness;

constexpr std::size_t kLimbs = 2;

SystemConfig
asyncConfig(std::size_t dpus, std::size_t host_threads)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.hostThreads = host_threads;
    cfg.verifyBeforeLaunch = true;
    cfg.dpu.checker.enabled = true;
    cfg.dpu.checker.failFast = true;
    return cfg;
}

void
expectCiphertextsEqual(const std::vector<Ciphertext<kLimbs>> &a,
                       const std::vector<Ciphertext<kLimbs>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size()) << "ciphertext " << i;
        for (std::size_t c = 0; c < a[i].size(); ++c)
            EXPECT_TRUE(a[i][c] == b[i][c])
                << "ciphertext " << i << " component " << c;
    }
}

/** Bitwise comparison of every modelled LaunchStats field. The
 *  wall-clock observability fields (hostWallMs, hostThreads) are the
 *  only ones excluded — they are outside the contract. */
void
expectLaunchesIdentical(const std::vector<LaunchStats> &ref,
                        const std::vector<LaunchStats> &got)
{
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t l = 0; l < ref.size(); ++l) {
        const LaunchStats &a = ref[l];
        const LaunchStats &b = got[l];
        SCOPED_TRACE("launch " + std::to_string(l));
        EXPECT_EQ(a.maxCycles, b.maxCycles);
        EXPECT_EQ(a.kernelMs, b.kernelMs);
        EXPECT_EQ(a.hostToDpuMs, b.hostToDpuMs);
        EXPECT_EQ(a.dpuToHostMs, b.dpuToHostMs);
        EXPECT_EQ(a.launchOverheadMs, b.launchOverheadMs);
        EXPECT_EQ(a.execMode, b.execMode);
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
            EXPECT_EQ(a.dpus[d].conflicts.totalConflicts,
                      b.dpus[d].conflicts.totalConflicts);
            EXPECT_EQ(a.dpus[d].conflicts.summary(),
                      b.dpus[d].conflicts.summary());
        }
    }
}

/** Everything a stream run produces that the contract covers. */
struct StreamSnapshot
{
    std::vector<std::vector<Ciphertext<kLimbs>>> results;
    std::vector<LaunchStats> launches;
    double totalModeledMs = 0;
    PipelineStats pipe;
};

/**
 * A 6-op elementwise stream (adds and coefficientwise muls
 * interleaved), run synchronously or through the async pipeline's
 * window of two on `host_threads` host threads.
 */
StreamSnapshot
runStream(std::size_t host_threads, bool async)
{
    constexpr std::size_t kOps = 6;
    BfvHarness<kLimbs> h(32);
    PimHeSystem<kLimbs> sys(h.ctx, asyncConfig(3, host_threads), 3,
                            12);

    std::vector<std::vector<Ciphertext<kLimbs>>> lhs, rhs;
    for (std::size_t i = 0; i < kOps; ++i) {
        lhs.push_back({h.encryptScalar(3 + i)});
        rhs.push_back({h.encryptScalar(11 + 2 * i)});
    }

    StreamSnapshot snap;
    if (async) {
        std::vector<PimHeSystem<kLimbs>::AsyncOp> ops;
        for (std::size_t i = 0; i < kOps; ++i)
            ops.push_back(i % 2 ? sys.mulAsync(lhs[i], rhs[i])
                                : sys.addAsync(lhs[i], rhs[i]));
        for (auto &op : ops)
            snap.results.push_back(op.get());
        sys.finishAsync();
    } else {
        for (std::size_t i = 0; i < kOps; ++i)
            snap.results.push_back(
                i % 2 ? sys.mulCoefficientwise(lhs[i], rhs[i])
                      : sys.addCiphertextVectors(lhs[i], rhs[i]));
    }
    snap.launches = sys.dpuSet().launches();
    snap.totalModeledMs = sys.dpuSet().totalModeledMs();
    snap.pipe = sys.dpuSet().pipelineStats();
    return snap;
}

// ----- differential: async vs sync, across host thread counts -----

TEST(AsyncDifferential, MatchesSyncBitExactAcrossThreadCounts)
{
    const StreamSnapshot ref = runStream(1, /*async=*/false);
    ASSERT_EQ(ref.launches.size(), 6u);
    for (const std::size_t threads : {1u, 8u, 16u}) {
        SCOPED_TRACE("host_threads=" + std::to_string(threads));
        const StreamSnapshot got = runStream(threads, /*async=*/true);
        expectCiphertextsEqual(ref.results[0], got.results[0]);
        for (std::size_t i = 0; i < ref.results.size(); ++i)
            expectCiphertextsEqual(ref.results[i], got.results[i]);
        expectLaunchesIdentical(ref.launches, got.launches);
        EXPECT_EQ(ref.totalModeledMs, got.totalModeledMs);
    }
}

TEST(AsyncDifferential, AutoThreadResolutionKeepsTheContract)
{
    // hostThreads = 0 resolves via PIMHE_HOST_THREADS / hardware —
    // exactly what the TSan CI leg exercises at 16 threads.
    const StreamSnapshot ref = runStream(1, /*async=*/false);
    const StreamSnapshot got = runStream(0, /*async=*/true);
    for (std::size_t i = 0; i < ref.results.size(); ++i)
        expectCiphertextsEqual(ref.results[i], got.results[i]);
    expectLaunchesIdentical(ref.launches, got.launches);
}

TEST(AsyncDifferential, PipelineStatsDeterministicAcrossThreadCounts)
{
    const StreamSnapshot ref = runStream(1, /*async=*/true);
    for (const std::size_t threads : {8u, 16u}) {
        SCOPED_TRACE("host_threads=" + std::to_string(threads));
        const StreamSnapshot got = runStream(threads, /*async=*/true);
        EXPECT_EQ(ref.pipe.clock.busCursorMs, got.pipe.clock.busCursorMs);
        EXPECT_EQ(ref.pipe.clock.dpuCursorMs, got.pipe.clock.dpuCursorMs);
        EXPECT_EQ(ref.pipe.clock.busBusyMs, got.pipe.clock.busBusyMs);
        EXPECT_EQ(ref.pipe.clock.dpuBusyMs, got.pipe.clock.dpuBusyMs);
        EXPECT_EQ(ref.pipe.clock.serialMs, got.pipe.clock.serialMs);
        EXPECT_EQ(ref.pipe.asyncLaunches, got.pipe.asyncLaunches);
        ASSERT_EQ(ref.pipe.spans.size(), got.pipe.spans.size());
        for (std::size_t s = 0; s < ref.pipe.spans.size(); ++s) {
            const PipelineSpan &a = ref.pipe.spans[s];
            const PipelineSpan &b = got.pipe.spans[s];
            SCOPED_TRACE("span " + std::to_string(s));
            EXPECT_EQ(a.launchIndex, b.launchIndex);
            EXPECT_EQ(a.uploadBeginMs, b.uploadBeginMs);
            EXPECT_EQ(a.uploadEndMs, b.uploadEndMs);
            EXPECT_EQ(a.kernelBeginMs, b.kernelBeginMs);
            EXPECT_EQ(a.kernelEndMs, b.kernelEndMs);
            EXPECT_EQ(a.downloadBeginMs, b.downloadBeginMs);
            EXPECT_EQ(a.downloadEndMs, b.downloadEndMs);
        }
    }
}

// ----- two-track clock semantics -----

TEST(TwoTrackClock, UnitScheduleArithmetic)
{
    TwoTrackClock clk;
    // Submit-time uploads serialise on the bus...
    PipelineSpan s0 = clk.chargeUpload(2.0, /*synchronous=*/false, 0);
    PipelineSpan s1 = clk.chargeUpload(3.0, /*synchronous=*/false, 1);
    EXPECT_DOUBLE_EQ(s0.uploadBeginMs, 0.0);
    EXPECT_DOUBLE_EQ(s0.uploadEndMs, 2.0);
    EXPECT_DOUBLE_EQ(s1.uploadBeginMs, 2.0);
    EXPECT_DOUBLE_EQ(s1.uploadEndMs, 5.0);
    // ...while kernels serialise on the DPU track, each gated on its
    // own upload.
    clk.chargeKernel(s0, 4.0);
    clk.chargeKernel(s1, 4.0);
    EXPECT_DOUBLE_EQ(s0.kernelBeginMs, 2.0);
    EXPECT_DOUBLE_EQ(s0.kernelEndMs, 6.0);
    EXPECT_DOUBLE_EQ(s1.kernelBeginMs, 6.0); // DPU busy until 6
    EXPECT_DOUBLE_EQ(s1.kernelEndMs, 10.0);
    // Launch 1's upload overlapped launch 0's kernel.
    EXPECT_TRUE(s1.busOverlaps(s0.kernelBeginMs, s0.kernelEndMs));
    // Download of launch 0 cannot begin before its kernel ends.
    EXPECT_DOUBLE_EQ(clk.chargeDownload(1.0, s0.kernelEndMs), 6.0);
    // Makespan is the max of the tracks; serial is the sum of phases.
    EXPECT_DOUBLE_EQ(clk.makespanMs(), 10.0);
    EXPECT_DOUBLE_EQ(clk.serialMs, 14.0);
    EXPECT_DOUBLE_EQ(clk.overlapSavedMs(), 4.0);
    // A synchronous launch is a full barrier: both tracks join.
    PipelineSpan s2 = clk.chargeUpload(1.0, /*synchronous=*/true, 2);
    EXPECT_DOUBLE_EQ(s2.uploadBeginMs, 10.0);
    EXPECT_DOUBLE_EQ(clk.busCursorMs, 11.0);
    EXPECT_DOUBLE_EQ(clk.dpuCursorMs, 10.0);
}

TEST(TwoTrackClock, SyncOnlyHistoryHasZeroOverlapExactly)
{
    // Synchronous launches barrier both tracks, so a sync-only
    // history's makespan equals its serial time EXACTLY — the same
    // doubles added in the same order, not merely approximately.
    BfvHarness<kLimbs> h(32);
    PimHeSystem<kLimbs> sys(h.ctx, asyncConfig(3, 4), 3, 12);
    const std::vector<Ciphertext<kLimbs>> a{h.encryptScalar(6)};
    const std::vector<Ciphertext<kLimbs>> b{h.encryptScalar(9)};
    (void)sys.addCiphertextVectors(a, b);
    (void)sys.mulCoefficientwise(a, b);
    (void)sys.reduceCiphertexts({a.front(), b.front(), a.front()});

    const PipelineStats &ps = sys.dpuSet().pipelineStats();
    ASSERT_FALSE(ps.spans.empty());
    EXPECT_EQ(ps.asyncLaunches, 0u);
    EXPECT_GT(ps.serialMs(), 0.0);
    EXPECT_DOUBLE_EQ(ps.makespanMs(), ps.serialMs());
    EXPECT_DOUBLE_EQ(ps.overlapSavedMs(), 0.0);
    EXPECT_EQ(ps.overlappingPairs(), 0u);
}

TEST(TwoTrackClock, AsyncStreamHidesTransferTime)
{
    const StreamSnapshot got = runStream(4, /*async=*/true);
    EXPECT_EQ(got.pipe.asyncLaunches, 6u);
    EXPECT_EQ(got.pipe.spans.size(), got.launches.size());
    EXPECT_LT(got.pipe.makespanMs(), got.pipe.serialMs());
    EXPECT_GT(got.pipe.speedup(), 1.0);
    EXPECT_GT(got.pipe.overlappingPairs(), 0u);
    // The serial track of the pipeline clock is the synchronous
    // engine's accounting: identical to the per-launch sum.
    double serial = 0;
    for (const auto &l : got.launches)
        serial += l.totalMs();
    EXPECT_NEAR(got.pipe.serialMs(), serial, 1e-9);
}

// ----- failure paths -----

CompiledKernel
interpretOnly(const char *name, Kernel body)
{
    CompiledKernel ck;
    ck.name = name;
    ck.interpret = std::move(body);
    ck.waiver = "test-only interpreter kernel";
    return ck;
}

TEST(AsyncPipelineDeathTest, DeferredVerifierRejectionSurfacesAtWait)
{
    // The static stack runs at submission, but the rejection is
    // captured in the pending launch and panics at the merge point
    // with the synchronous diagnostic.
    EXPECT_DEATH(
        {
            SystemConfig cfg;
            cfg.verifyBeforeLaunch = true;
            DpuSet set(cfg, 1);
            VecKernelParams kp;
            kp.elems = 64;
            kp.limbs = 1;
            kp.k = 31;
            kp.c = 1;
            kp.q[0] = 0x7fffffffu;
            kp.mramA = 0;
            kp.mramB = 64 * 4;
            kp.mramOut = kp.mramA; // in-place clobber, caught statically
            const std::size_t launch = set.launchAsync(
                4, compiledVecAddModQ(kp),
                vecKernelFootprint(kp, cfg.dpu, 4, false));
            set.waitLaunch(launch);
        },
        "pre-launch verification rejected");
}

/** Every tasklet stores to WRAM byte 0: a write/write race. */
Kernel
racyKernel()
{
    return [](TaskletCtx &ctx) { ctx.wramStore32(0, ctx.id()); };
}

TEST(AsyncPipelineDeathTest, FailFastNamesLowestDirtyDpuAtDrain)
{
    // Async launches defer the fail-fast panic into the merge, which
    // walks DPUs in index order — so the panic names DPU 0 no matter
    // which host thread or pipeline slot finished first.
    for (const std::size_t threads : {1u, 8u}) {
        EXPECT_DEATH(
            {
                SystemConfig cfg;
                cfg.numDpus = 8;
                cfg.hostThreads = threads;
                cfg.dpu.checker.enabled = true;
                cfg.dpu.checker.failFast = true;
                DpuSet set(cfg, 8);
                (void)set.launchAsync(4,
                                      interpretOnly("racy",
                                                    racyKernel()));
                set.drainAsync();
            },
            "conflict check failed on DPU 0");
    }
}

TEST(AsyncPipelineDeathTest, StatsAccessorsRefuseMidPipeline)
{
    EXPECT_DEATH(
        {
            SystemConfig cfg;
            cfg.numDpus = 2;
            DpuSet set(cfg, 2);
            (void)set.launchAsync(
                1, interpretOnly("noop", [](TaskletCtx &ctx) {
                    ctx.charge(1);
                }));
            (void)set.pipelineStats();
        },
        "in flight");
}

TEST(AsyncPipelineDeathTest, ConsumingAnAsyncOpTwicePanics)
{
    EXPECT_DEATH(
        {
            BfvHarness<kLimbs> h(32);
            PimHeSystem<kLimbs> sys(h.ctx, asyncConfig(2, 2), 2, 8);
            const std::vector<Ciphertext<kLimbs>> a{
                h.encryptScalar(1)};
            const std::vector<Ciphertext<kLimbs>> b{
                h.encryptScalar(2)};
            auto op = sys.addAsync(a, b);
            (void)op.get();
            (void)op.get();
        },
        "already-consumed");
}

TEST(AsyncTickets, DoubleWaitIsIdempotent)
{
    SystemConfig cfg;
    cfg.numDpus = 2;
    DpuSet set(cfg, 2);
    const std::size_t launch = set.launchAsync(
        2, interpretOnly("noop", [](TaskletCtx &ctx) {
            ctx.charge(7);
        }));
    EXPECT_EQ(launch, 0u);
    const LaunchStats &first = set.waitLaunch(launch);
    const LaunchStats &second = set.waitLaunch(launch);
    EXPECT_EQ(&first, &second); // the merged record, not a re-merge
    EXPECT_EQ(set.launches().size(), 1u);
    EXPECT_GT(first.maxCycles, 0.0);
}

TEST(AsyncTickets, DroppedTicketStillCompletesAtDrain)
{
    SystemConfig cfg;
    cfg.numDpus = 2;
    DpuSet set(cfg, 2);
    for (int i = 0; i < 3; ++i)
        (void)set.launchAsync(
            1, interpretOnly("store", [](TaskletCtx &ctx) {
                ctx.wramStore32(0, 0xBEEFu);
                ctx.wramStore32(4, 0u);
                ctx.mramWrite(0, 0, 8);
            }));
    EXPECT_TRUE(set.asyncInFlight());
    set.drainAsync();
    EXPECT_FALSE(set.asyncInFlight());
    // All three launches merged, in submission order, with their
    // modelled accounting and pipeline spans recorded.
    EXPECT_EQ(set.launches().size(), 3u);
    EXPECT_EQ(set.pipelineStats().spans.size(), 3u);
    EXPECT_EQ(set.pipelineStats().asyncLaunches, 3u);
    std::vector<std::uint8_t> out(4);
    set.copyFromMram(0, 0, out);
    EXPECT_EQ(out[0], 0xEFu);
    EXPECT_EQ(out[1], 0xBEu);
}

TEST(AsyncTickets, DroppedAsyncOpDiscardsResultsNotCorrectness)
{
    BfvHarness<kLimbs> h(32);
    PimHeSystem<kLimbs> sys(h.ctx, asyncConfig(2, 2), 2, 8);
    const std::vector<Ciphertext<kLimbs>> a{h.encryptScalar(20)};
    const std::vector<Ciphertext<kLimbs>> b{h.encryptScalar(3)};
    (void)sys.addAsync(a, b); // dropped without get()
    sys.finishAsync();
    // The engine is clean afterwards: a later op is unaffected.
    const auto sum = sys.addCiphertextVectors(a, b);
    EXPECT_EQ(h.decryptScalar(sum.front()), 23u % h.params.t);
}

TEST(AsyncTickets, AThirdOpHarvestsOnlyTheOldestAtAShapeChange)
{
    // The window of two retires ops oldest first whatever their
    // shape, as analysis::PipelineReplay forecasts: a third submit of
    // a new shape harvests one op (one download per DPU), not two.
    BfvHarness<kLimbs> h(32);
    PimHeSystem<kLimbs> sys(h.ctx, asyncConfig(3, 2), 3, 12);
    const std::vector<Ciphertext<kLimbs>> a{h.encryptScalar(4)};
    const std::vector<Ciphertext<kLimbs>> b{h.encryptScalar(5)};
    const std::vector<Ciphertext<kLimbs>> c{h.encryptScalar(7),
                                            h.encryptScalar(8)};
    const std::vector<Ciphertext<kLimbs>> d{h.encryptScalar(9),
                                            h.encryptScalar(10)};
    auto first = sys.addAsync(a, b);
    auto second = sys.addAsync(b, b);
    const std::uint64_t before = sys.transferTotals().downloads;
    auto third = sys.addAsync(c, d);
    EXPECT_EQ(sys.transferTotals().downloads - before, 3u);

    EXPECT_EQ(h.decryptScalar(first.get().front()), 9u % h.params.t);
    EXPECT_EQ(h.decryptScalar(second.get().front()), 10u % h.params.t);
    const auto sums = third.get();
    ASSERT_EQ(sums.size(), 2u);
    EXPECT_EQ(h.decryptScalar(sums[0]), 16u % h.params.t);
    EXPECT_EQ(h.decryptScalar(sums[1]), 18u % h.params.t);
    sys.finishAsync();
}

TEST(AsyncTickets, NoStagingSlotOutlivesItsHarvest)
{
    // Each op holds its own arena slot from submit to harvest: the
    // window keeps at most two live, and a fully harvested stream
    // none, even before finishAsync.
    BfvHarness<kLimbs> h(32);
    PimHeSystem<kLimbs> sys(h.ctx, asyncConfig(3, 2), 3, 12);
    const std::vector<Ciphertext<kLimbs>> a{h.encryptScalar(3)};
    const std::vector<Ciphertext<kLimbs>> b{h.encryptScalar(5)};
    const analysis::PlanVerifier &plan = sys.dpuSet().plan();
    const auto ref = sys.mulCoefficientwise(a, b);
    EXPECT_EQ(plan.liveRegions(), 0u);

    std::vector<PimHeSystem<kLimbs>::AsyncOp> ops;
    for (int i = 0; i < 4; ++i) {
        ops.push_back(sys.mulAsync(a, b));
        EXPECT_LE(plan.liveRegions(), 2u) << "after submit " << i;
    }
    for (auto &op : ops)
        expectCiphertextsEqual(ref, op.get());
    EXPECT_EQ(plan.liveRegions(), 0u);
    sys.finishAsync();
}

// ----- chunked MRAM backing store -----

TEST(MramChunks, CrossChunkWriteReadRoundTrip)
{
    Mram m(2 * Mram::kChunkBytes + 4096);
    const std::uint64_t addr = Mram::kChunkBytes - 100;
    std::vector<std::uint8_t> in(300), out(300);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 7 + 1);
    m.write(addr, in.data(), in.size());
    m.read(addr, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(MramChunks, UntouchedChunksReadAsZeros)
{
    Mram m(2 * Mram::kChunkBytes);
    std::vector<std::uint8_t> out(64, 0xFF);
    m.read(Mram::kChunkBytes + 8, out.data(), out.size());
    for (const std::uint8_t b : out)
        EXPECT_EQ(b, 0u);
}

TEST(MramChunks, CopyConstructorDeepCopies)
{
    Mram m(Mram::kChunkBytes + 4096);
    const std::uint32_t v = 0x12345678u;
    m.write(16, reinterpret_cast<const std::uint8_t *>(&v), 4);
    Mram copy(m);
    const std::uint32_t w = 0xDEADBEEFu;
    m.write(16, reinterpret_cast<const std::uint8_t *>(&w), 4);
    std::uint32_t got = 0;
    copy.read(16, reinterpret_cast<std::uint8_t *>(&got), 4);
    EXPECT_EQ(got, v);
    // Chunks the original touched after the copy stay independent.
    m.write(Mram::kChunkBytes + 8,
            reinterpret_cast<const std::uint8_t *>(&w), 4);
    got = 1;
    copy.read(Mram::kChunkBytes + 8,
              reinterpret_cast<std::uint8_t *>(&got), 4);
    EXPECT_EQ(got, 0u);
}

} // namespace
} // namespace pimhe
