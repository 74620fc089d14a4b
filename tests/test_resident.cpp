/**
 * @file
 * Differential tests of the device-resident ciphertext layer: every
 * resident-mode result must be bit-exact with the staged path and the
 * host evaluator — with the cache cold, warm, and under forced LRU
 * eviction churn — and the whole layer must honour the simulator's
 * determinism contract at any host thread count. All launches run
 * with the static pre-launch verifier armed and the conflict checker
 * in fail-fast mode, so a footprint or race regression aborts the
 * test instead of corrupting a result.
 */

#include <gtest/gtest.h>

#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;

pim::SystemConfig
residentSystem(std::size_t dpus, std::uint64_t capacity_bytes = 0)
{
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    cfg.dpu.checker.enabled = true;
    cfg.dpu.checker.failFast = true;
    cfg.residentCapacityBytes = capacity_bytes;
    return cfg;
}

template <typename T>
class ResidentWidths : public ::testing::Test
{
};

using RWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(ResidentWidths, RWidths);

TYPED_TEST(ResidentWidths, AddAndMulBitExactWithHost)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, residentSystem(3), 3, 12);

    const auto a = h.encryptScalar(11);
    const auto b = h.encryptScalar(5);
    const auto ra = pimsys.makeResident(a);
    const auto rb = pimsys.makeResident(b);

    const auto sum = pimsys.materialize(pimsys.addResident(ra, rb));
    const auto host_sum = h.eval.add(a, b);
    for (std::size_t c = 0; c < host_sum.size(); ++c)
        EXPECT_TRUE(host_sum[c] == sum[c]) << "component " << c;
    EXPECT_EQ(h.decryptScalar(sum), 16u % h.params.t);

    const auto prod = pimsys.materialize(pimsys.mulResident(ra, rb));
    const auto &red = h.ctx.ring().reducer();
    for (std::size_t c = 0; c < a.size(); ++c)
        for (std::size_t j = 0; j < h.params.n; ++j)
            EXPECT_EQ(prod[c][j], red.mulMod(a[c][j], b[c][j]));
}

TYPED_TEST(ResidentWidths, FusedAddMulMatchesChainedOps)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, residentSystem(2), 2, 11);

    const auto a = h.encryptScalar(3);
    const auto b = h.encryptScalar(9);
    const auto c = h.encryptScalar(7);
    const auto ra = pimsys.makeResident(a);
    const auto rb = pimsys.makeResident(b);
    const auto rc = pimsys.makeResident(c);

    const std::size_t launches_before = pimsys.dpuSet().launches().size();
    const auto fused =
        pimsys.materialize(pimsys.fusedAddMulResident(ra, rb, rc));
    // The whole (a + b) * c chain must be one kernel launch.
    EXPECT_EQ(pimsys.dpuSet().launches().size(), launches_before + 1);

    const auto host_sum = h.eval.add(a, b);
    const auto &red = h.ctx.ring().reducer();
    for (std::size_t cc = 0; cc < a.size(); ++cc)
        for (std::size_t j = 0; j < h.params.n; ++j)
            EXPECT_EQ(fused[cc][j],
                      red.mulMod(host_sum[cc][j], c[cc][j]))
                << "comp " << cc << " coeff " << j;
}

/** Tree of staged adds, every round re-uploading its operands and
 *  downloading its sums — the traffic the resident fold avoids. */
template <std::size_t N>
Ciphertext<N>
stagedTreeSum(PimHeSystem<N> &sys, std::vector<Ciphertext<N>> cur)
{
    while (cur.size() > 1) {
        const std::size_t half = cur.size() / 2;
        auto sums = sys.addCiphertextVectors(
            {cur.begin(), cur.begin() + half},
            {cur.begin() + half, cur.begin() + 2 * half});
        if (cur.size() % 2)
            sums.push_back(std::move(cur.back()));
        cur = std::move(sums);
    }
    return cur.front();
}

TYPED_TEST(ResidentWidths, ReduceMatchesStagedAndHost)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);

    for (const int count : {1, 2, 7, 8}) {
        std::vector<Ciphertext<N>> cts;
        std::uint64_t expect = 0;
        for (int i = 0; i < count; ++i) {
            cts.push_back(h.encryptScalar(i + 1));
            expect += i + 1;
        }
        Ciphertext<N> host_sum = cts.front();
        for (std::size_t i = 1; i < cts.size(); ++i)
            host_sum = h.eval.add(host_sum, cts[i]);
        // Separate systems so per-system transfer totals compare the
        // two strategies on identical inputs.
        PimHeSystem<N> resident(h.ctx, residentSystem(4), 4, 12);
        PimHeSystem<N> staged(h.ctx, residentSystem(4), 4, 12);
        const auto via_resident = resident.reduceCiphertexts(cts);
        stagedTreeSum(staged, cts);
        for (std::size_t c = 0; c < host_sum.size(); ++c)
            EXPECT_TRUE(host_sum[c] == via_resident[c])
                << "count " << count << " comp " << c;
        EXPECT_EQ(h.decryptScalar(via_resident),
                  expect % h.params.t)
            << "count " << count;
        if (count > 2) {
            // The point of the tentpole: once the tree has more than
            // one round, the resident fold moves strictly fewer bus
            // bytes than re-staging every round. (At count == 2 both
            // strategies upload two and download one — identical.)
            EXPECT_LT(resident.transferTotals().busBytes(),
                      staged.transferTotals().busBytes())
                << "count " << count;
        }
    }
}

TYPED_TEST(ResidentWidths, EvictionChurnPreservesBitExactness)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    // Budget fits only ~3 ciphertext regions (2 comps x 16 coeffs at
    // N limbs, split over 2 DPUs), so chaining ops over 4 operands
    // forces LRU eviction — including dirty evictions of op outputs.
    const std::uint64_t slice =
        ((2 * 16 + 1) / 2 * N * 4 + 7) / 8 * 8;
    PimHeSystem<N> pimsys(h.ctx, residentSystem(2, 3 * slice), 2, 12);

    std::vector<Ciphertext<N>> cts;
    std::vector<ResidentCiphertext> handles;
    for (int i = 0; i < 4; ++i) {
        cts.push_back(h.encryptScalar(10 + i));
        handles.push_back(pimsys.makeResident(cts.back()));
    }
    // Pairwise sums: each op touches two operands plus an output, so
    // something must always be evicted to make room.
    std::vector<ResidentCiphertext> sums;
    for (int i = 0; i < 4; ++i)
        sums.push_back(pimsys.addResident(handles[static_cast<std::size_t>(i)],
                                          handles[(i + 1) % 4u]));
    EXPECT_GT(pimsys.residentStats().evictions, 0u);

    for (int i = 0; i < 4; ++i) {
        const auto got = pimsys.materialize(sums[static_cast<std::size_t>(i)]);
        const auto want = h.eval.add(cts[static_cast<std::size_t>(i)],
                                     cts[(i + 1) % 4u]);
        for (std::size_t c = 0; c < want.size(); ++c)
            EXPECT_TRUE(want[c] == got[c])
                << "sum " << i << " comp " << c;
    }
    // Op outputs start device-only, so at least one eviction above
    // had to pay a download to preserve its value.
    EXPECT_GT(pimsys.residentStats().dirtyEvictions, 0u);
}

TEST(Resident, CacheHitsAvoidReuploads)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, residentSystem(2), 2, 12);

    const auto ra = pimsys.makeResident(h.encryptScalar(1));
    const auto rb = pimsys.makeResident(h.encryptScalar(2));
    pimsys.addResident(ra, rb);
    const auto &s1 = pimsys.residentStats();
    EXPECT_EQ(s1.misses, 2u); // first device use uploads both
    EXPECT_EQ(s1.hits, 0u);
    const std::uint64_t uploaded_once =
        pimsys.transferTotals().uploadedBytes;

    pimsys.mulResident(ra, rb);
    const auto &s2 = pimsys.residentStats();
    EXPECT_EQ(s2.misses, 2u); // nothing new uploaded
    EXPECT_EQ(s2.hits, 2u);
    EXPECT_GT(s2.bytesAvoided, 0u);
    EXPECT_EQ(pimsys.transferTotals().uploadedBytes, uploaded_once);
    EXPECT_EQ(pimsys.transferTotals().residentBytesReused,
              s2.bytesAvoided);
}

TEST(Resident, ReduceIsSingleUploadAndDownload)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, residentSystem(4), 4, 12);
    std::vector<Ciphertext<2>> cts;
    for (int i = 0; i < 8; ++i)
        cts.push_back(h.encryptScalar(i));

    pimsys.reduceCiphertexts(cts);
    const auto &xfer = pimsys.transferTotals();
    // One packed upload per DPU, log2(8) = 3 launches, one download
    // of the result slice per DPU.
    EXPECT_EQ(xfer.uploads, 4u);
    EXPECT_EQ(xfer.downloads, 4u);
    EXPECT_EQ(pimsys.dpuSet().launches().size(), 3u);
    // Downloads cover one ciphertext, uploads eight.
    EXPECT_LT(8 * xfer.downloadedBytes, 9 * xfer.uploadedBytes);
}

TEST(Resident, StagedPathCoexistsWithResidentEntries)
{
    // The staged elementwise path draws scratch from the cache arena,
    // so running it while entries are resident must neither corrupt
    // them nor break when scratch forces an eviction.
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, residentSystem(2), 2, 12);
    const auto a = h.encryptScalar(21);
    const auto ra = pimsys.makeResident(a);
    pimsys.addResident(ra, ra); // upload a

    std::vector<Ciphertext<2>> xs = {h.encryptScalar(2)};
    std::vector<Ciphertext<2>> ys = {h.encryptScalar(3)};
    const auto sums = pimsys.addCiphertextVectors(xs, ys);
    EXPECT_EQ(h.decryptScalar(sums[0]), 5u);

    const auto back = pimsys.materialize(ra);
    for (std::size_t c = 0; c < a.size(); ++c)
        EXPECT_TRUE(a[c] == back[c]) << "component " << c;
}

TEST(ResidentDeathTest, UseAfterDropPanics)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, residentSystem(1), 1, 4);
    const auto ra = pimsys.makeResident(h.encryptScalar(1));
    pimsys.dropResident(ra);
    EXPECT_DEATH(pimsys.materialize(ra), "dropped/consumed");
}

/** Everything a resident workload models, for cross-thread-count
 *  bit-identity comparison. */
struct ResidentSnapshot
{
    std::vector<pim::LaunchStats> launches;
    pim::TransferTotals xfer;
    ResidentCacheStats cache;
    Ciphertext<2> result;
};

ResidentSnapshot
runResidentWorkload(std::size_t host_threads)
{
    BfvHarness<2> h(16);
    pim::SystemConfig cfg = residentSystem(4);
    cfg.hostThreads = host_threads;
    PimHeSystem<2> pimsys(h.ctx, cfg, 4, 12);

    std::vector<Ciphertext<2>> cts;
    for (int i = 0; i < 7; ++i)
        cts.push_back(h.encryptScalar(i + 3));
    const auto total = pimsys.reduceResident(cts);
    const auto ra = pimsys.makeResident(cts[0]);
    const auto fused = pimsys.fusedAddMulResident(total, ra, ra);

    ResidentSnapshot snap;
    snap.result = pimsys.materialize(fused);
    snap.launches = pimsys.dpuSet().launches();
    snap.xfer = pimsys.transferTotals();
    snap.cache = pimsys.residentStats();
    return snap;
}

TEST(Resident, BitIdenticalAcrossHostThreadCounts)
{
    const ResidentSnapshot ref = runResidentWorkload(1);
    for (const std::size_t threads : {8u, 16u}) {
        const ResidentSnapshot got = runResidentWorkload(threads);
        ASSERT_EQ(ref.launches.size(), got.launches.size());
        for (std::size_t i = 0; i < ref.launches.size(); ++i) {
            const auto &a = ref.launches[i];
            const auto &b = got.launches[i];
            EXPECT_EQ(a.maxCycles, b.maxCycles) << "launch " << i;
            EXPECT_EQ(a.kernelMs, b.kernelMs) << "launch " << i;
            EXPECT_EQ(a.hostToDpuMs, b.hostToDpuMs) << "launch " << i;
            EXPECT_EQ(a.dpuToHostMs, b.dpuToHostMs) << "launch " << i;
            ASSERT_EQ(a.dpus.size(), b.dpus.size());
            for (std::size_t d = 0; d < a.dpus.size(); ++d) {
                EXPECT_EQ(a.dpus[d].cycles, b.dpus[d].cycles);
                EXPECT_EQ(a.dpus[d].totalInstructions(),
                          b.dpus[d].totalInstructions());
                EXPECT_TRUE(b.dpus[d].conflicts.clean());
            }
        }
        EXPECT_EQ(ref.xfer.uploadedBytes, got.xfer.uploadedBytes);
        EXPECT_EQ(ref.xfer.downloadedBytes, got.xfer.downloadedBytes);
        EXPECT_EQ(ref.xfer.residentBytesReused,
                  got.xfer.residentBytesReused);
        EXPECT_EQ(ref.cache.hits, got.cache.hits);
        EXPECT_EQ(ref.cache.misses, got.cache.misses);
        EXPECT_EQ(ref.cache.evictions, got.cache.evictions);
        for (std::size_t c = 0; c < ref.result.size(); ++c)
            EXPECT_TRUE(ref.result[c] == got.result[c])
                << "threads " << threads << " comp " << c;
    }
}

// ----- multi-DPU convolution -----

TYPED_TEST(ResidentWidths, ShardedConvolverMatchesSingleDpu)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    Polynomial<N> a(h.params.n), b(h.params.n);
    Rng rng(0xAB5EED);
    for (std::size_t i = 0; i < h.params.n; ++i) {
        a[i] = pimhe::testing::randomBelow<N>(rng, h.params.q);
        b[i] = pimhe::testing::randomBelow<N>(rng, h.params.q);
    }

    const PimConvolver<N> single(h.ctx.ring(), residentSystem(1), 12,
                                 1);
    const auto want = single.convolveCentered(a, b);
    for (const std::size_t dpus : {3u, 8u}) {
        const PimConvolver<N> sharded(h.ctx.ring(),
                                      residentSystem(dpus), 12, dpus);
        const auto got = sharded.convolveCentered(a, b);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_TRUE(want[i] == got[i])
                << "dpus " << dpus << " coeff " << i;
    }
}

TEST(Resident, ShardedConvolverBitExactBfvMultiply)
{
    BfvHarness<4> h(16);
    const auto a = h.encryptScalar(6);
    const auto b = h.encryptScalar(7);
    const auto host = h.eval.multiply(a, b);

    h.ctx.setConvolver(std::make_unique<PimConvolver<4>>(
        h.ctx.ring(), residentSystem(8), 12, 8));
    const auto pim = h.eval.multiply(a, b);
    ASSERT_EQ(host.size(), pim.size());
    for (std::size_t c = 0; c < host.size(); ++c)
        EXPECT_TRUE(host[c] == pim[c]) << "component " << c;
    EXPECT_EQ(h.decryptScalar(pim), 42 % h.params.t);
}

TEST(Resident, ShardedConvolverSplitsKernelTime)
{
    // Row sharding must cut the critical-path kernel time: 8 DPUs
    // each convolve 1/8th of the output rows.
    BfvHarness<2> h(32);
    Polynomial<2> a(h.params.n), b(h.params.n);
    Rng rng(0xFEED);
    for (std::size_t i = 0; i < h.params.n; ++i) {
        a[i] = pimhe::testing::randomBelow<2>(rng, h.params.q);
        b[i] = pimhe::testing::randomBelow<2>(rng, h.params.q);
    }
    const PimConvolver<2> k1(h.ctx.ring(), residentSystem(1), 12, 1);
    const PimConvolver<2> k8(h.ctx.ring(), residentSystem(8), 12, 8);
    k1.convolveCentered(a, b);
    k8.convolveCentered(a, b);
    EXPECT_LT(k8.dpuSet().lastLaunch().kernelMs,
              k1.dpuSet().lastLaunch().kernelMs);
}

} // namespace
} // namespace pimhe
