/**
 * @file
 * PimHeSystem / PimConvolver integration tests: homomorphic vector
 * operations through the simulated PIM system must be bit-exact with
 * the host evaluator.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;

pim::SystemConfig
tinySystem(std::size_t dpus)
{
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    // Tests run with the static pre-launch verifier armed: a layout
    // regression fails here before it can corrupt a simulated run.
    cfg.verifyBeforeLaunch = true;
    return cfg;
}

TEST(PseudoMersenne, DetectsStandardModuli)
{
    const auto pm1 =
        pimhe_kernels::makeVecParams(standardParams<1>().q, 0);
    EXPECT_EQ(pm1.k, 27u);
    EXPECT_EQ(pm1.c, 2047u);
    const auto pm2 =
        pimhe_kernels::makeVecParams(standardParams<2>().q, 0);
    EXPECT_EQ(pm2.k, 54u);
    EXPECT_EQ(pm2.c, 77823u);
    const auto pm4 =
        pimhe_kernels::makeVecParams(standardParams<4>().q, 0);
    EXPECT_EQ(pm4.k, 109u);
    EXPECT_EQ(pm4.c, 229375u);
}

template <typename T>
class OrchestratorWidths : public ::testing::Test
{
};

using OWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(OrchestratorWidths, OWidths);

TYPED_TEST(OrchestratorWidths, VectorAddBitExactWithHost)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(4), 3, 12);

    std::vector<Ciphertext<N>> as, bs;
    for (int i = 0; i < 5; ++i) {
        as.push_back(h.encryptScalar(i));
        bs.push_back(h.encryptScalar(2 * i + 1));
    }
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    ASSERT_EQ(sums.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        const auto host = h.eval.add(as[i], bs[i]);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_TRUE(host[c] == sums[i][c])
                << "ct " << i << " comp " << c;
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  static_cast<std::uint64_t>(3 * i + 1) % h.params.t);
    }
}

TYPED_TEST(OrchestratorWidths, CoefficientwiseMulMatchesBarrett)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(2), 2, 11);

    std::vector<Ciphertext<N>> as = {h.encryptScalar(3)};
    std::vector<Ciphertext<N>> bs = {h.encryptScalar(4)};
    const auto prods = pimsys.mulCoefficientwise(as, bs);
    const auto &red = h.ctx.ring().reducer();
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t j = 0; j < h.params.n; ++j)
            EXPECT_EQ(prods[0][c][j],
                      red.mulMod(as[0][c][j], bs[0][c][j]));
}

TYPED_TEST(OrchestratorWidths, ReductionSumsAllCiphertexts)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    PimHeSystem<N> pimsys(h.ctx, tinySystem(4), 4, 12);

    std::vector<Ciphertext<N>> cts;
    std::uint64_t expect = 0;
    // Odd count exercises the pass-through leftover path.
    for (int i = 0; i < 9; ++i) {
        cts.push_back(h.encryptScalar(i + 1));
        expect += i + 1;
    }
    const auto total = pimsys.reduceCiphertexts(cts);
    EXPECT_EQ(h.decryptScalar(total), expect % h.params.t);
}

TYPED_TEST(OrchestratorWidths, PimConvolverBitExactBfvMultiply)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    const auto a = h.encryptScalar(6);
    const auto b = h.encryptScalar(7);
    const auto host = h.eval.multiply(a, b);

    h.ctx.setConvolver(std::make_unique<PimConvolver<N>>(
        h.ctx.ring(), tinySystem(1), 12));
    const auto pim = h.eval.multiply(a, b);
    ASSERT_EQ(host.size(), pim.size());
    for (std::size_t c = 0; c < host.size(); ++c)
        EXPECT_TRUE(host[c] == pim[c]) << "component " << c;
    EXPECT_EQ(h.decryptScalar(pim), 42 % h.params.t);
}

TEST(Orchestrator, SingleCiphertextAndSingleDpu)
{
    BfvHarness<4> h(16);
    PimHeSystem<4> pimsys(h.ctx, tinySystem(1), 1, 1);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(9)};
    std::vector<Ciphertext<4>> bs = {h.encryptScalar(8)};
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    EXPECT_EQ(h.decryptScalar(sums[0]), 17u);
}

TEST(Orchestrator, UnevenPartitionAcrossManyDpus)
{
    // 3 cts x 2 comps x 16 coeffs = 96 elements over 7 DPUs: padding
    // and remainder handling must not corrupt results.
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, tinySystem(7), 7, 12);
    std::vector<Ciphertext<2>> as, bs;
    for (int i = 0; i < 3; ++i) {
        as.push_back(h.encryptScalar(40 + i));
        bs.push_back(h.encryptScalar(100 + i));
    }
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  (140 + 2 * i) % h.params.t);
}

TEST(Orchestrator, SystemCannotBeMoved)
{
    // The resident cache refers to the system's DpuSet and every
    // AsyncOp to the system itself; after a move both would point at
    // the moved-from object, whose DpuSet has no DPUs left.
    EXPECT_FALSE(std::is_move_constructible_v<PimHeSystem<2>>);
    EXPECT_FALSE(std::is_move_assignable_v<PimHeSystem<2>>);
}

TEST(Orchestrator, MismatchedVectorsDie)
{
    BfvHarness<4> h(16);
    PimHeSystem<4> pimsys(h.ctx, tinySystem(2), 2, 12);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(1)};
    std::vector<Ciphertext<4>> bs;
    EXPECT_DEATH(pimsys.addCiphertextVectors(as, bs), "equal-length");
}

TEST(Orchestrator, CiphertextOfTheWrongDegreeDies)
{
    // flattenSlice reads `degree` coefficients of every component, so
    // a short one must be rejected before staging reads past it.
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, tinySystem(2), 2, 12);
    std::vector<Ciphertext<2>> as = {h.encryptScalar(1),
                                     h.encryptScalar(2)};
    const std::vector<Ciphertext<2>> bs = as;
    as[1].comps[1] = Polynomial<2>(8);
    const std::string msg = "ciphertext 1 component 1 has 8 "
                            "coefficients, not the ring degree 16";
    EXPECT_DEATH(pimsys.addCiphertextVectors(as, bs), msg);
    EXPECT_DEATH(pimsys.reduceCiphertexts(as), msg);
}

TEST(Orchestrator, PimConvolverRejectsCiphertextOfTheWrongDegree)
{
    // A degree-32 ciphertext in a degree-64 context, as
    // deserializeCiphertext can produce: the convolver must reject it
    // rather than convolve whatever MRAM holds past its coefficients.
    BfvHarness<2> h(64);
    BfvHarness<2> small(32);
    h.ctx.setConvolver(std::make_unique<PimConvolver<2>>(
        h.ctx.ring(), tinySystem(2), 12, 2));
    const auto a = small.encryptScalar(3);
    const auto b = h.encryptScalar(4);
    EXPECT_DEATH(h.eval.multiply(a, b),
                 "convolution operand a has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(h.eval.multiply(b, a),
                 "convolution operand b has 32 coefficients, not the "
                 "ring degree 64");
}

TEST(Orchestrator, ClientCryptoLaunchesNothingOnThePimConvolver)
{
    // Encryption and decryption multiply against the client's own
    // NTT-resident keys, so an installed PimConvolver runs only the
    // server's products.
    BfvHarness<2> h(64);
    auto conv = std::make_unique<PimConvolver<2>>(h.ctx.ring(),
                                                  tinySystem(2), 12, 2);
    const pim::DpuSet &dpus = conv->dpuSet();
    h.ctx.setConvolver(std::move(conv));
    const auto a = h.encryptScalar(7);
    const auto b = h.encryptScalar(6);
    EXPECT_EQ(h.decryptScalar(a), 7u);
    EXPECT_TRUE(dpus.launches().empty());
    // The server's products still run there: multiply's four, and the
    // 3-component result decrypts without a fifth.
    EXPECT_EQ(h.decryptScalar(h.eval.multiply(a, b)), 42u);
    EXPECT_EQ(dpus.launches().size(), 4u);
}

TEST(Orchestrator, VerifiedLaunchesAtEveryTaskletCount)
{
    // The WRAM chunks leave room for the tasklet stacks the launch
    // verifier charges, so the add and the multiply kernel pass the
    // gate, and compute the right values, at every hardware tasklet
    // count.
    BfvHarness<2> h(16);
    const std::vector<Ciphertext<2>> as = {h.encryptScalar(3),
                                           h.encryptScalar(4)};
    const std::vector<Ciphertext<2>> bs = {h.encryptScalar(5),
                                           h.encryptScalar(6)};
    const auto &red = h.ctx.ring().reducer();
    for (unsigned t = 1; t <= 24; ++t) {
        PimHeSystem<2> pimsys(h.ctx, tinySystem(2), 2, t);
        const auto sums = pimsys.addCiphertextVectors(as, bs);
        for (std::size_t i = 0; i < as.size(); ++i) {
            const auto host = h.eval.add(as[i], bs[i]);
            for (std::size_t c = 0; c < 2; ++c)
                EXPECT_TRUE(host[c] == sums[i][c])
                    << t << " tasklets, ct " << i << " comp " << c;
        }
        const auto prods = pimsys.mulCoefficientwise(as, bs);
        for (std::size_t i = 0; i < as.size(); ++i)
            for (std::size_t c = 0; c < 2; ++c)
                for (std::size_t j = 0; j < h.params.n; ++j)
                    EXPECT_EQ(prods[i][c][j],
                              red.mulMod(as[i][c][j], bs[i][c][j]))
                        << t << " tasklets, ct " << i << " comp " << c
                        << " coeff " << j;
    }
}

TEST(Orchestrator, ModeledTimeAccumulates)
{
    BfvHarness<4> h(16);
    PimHeSystem<4> pimsys(h.ctx, tinySystem(2), 2, 12);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(1)};
    std::vector<Ciphertext<4>> bs = {h.encryptScalar(2)};
    EXPECT_DOUBLE_EQ(pimsys.totalModeledMs(), 0.0);
    pimsys.addCiphertextVectors(as, bs);
    const double after_one = pimsys.totalModeledMs();
    EXPECT_GT(after_one, 0.0);
    pimsys.addCiphertextVectors(as, bs);
    EXPECT_GT(pimsys.totalModeledMs(), after_one);
}

TEST(Orchestrator, MulModeledSlowerThanAdd)
{
    // Key Takeaway 2, end to end: the same ciphertext vector costs
    // far more modelled PIM time to multiply than to add.
    BfvHarness<4> h(32);
    std::vector<Ciphertext<4>> as = {h.encryptScalar(3)};
    std::vector<Ciphertext<4>> bs = {h.encryptScalar(5)};

    PimHeSystem<4> addsys(h.ctx, tinySystem(1), 1, 12);
    addsys.addCiphertextVectors(as, bs);
    const double add_ms =
        addsys.dpuSet().lastLaunch().kernelMs;

    PimHeSystem<4> mulsys(h.ctx, tinySystem(1), 1, 12);
    mulsys.mulCoefficientwise(as, bs);
    const double mul_ms =
        mulsys.dpuSet().lastLaunch().kernelMs;
    EXPECT_GT(mul_ms, 8 * add_ms);
}

} // namespace
} // namespace pimhe
