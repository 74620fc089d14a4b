/**
 * @file
 * DPU wide-integer helpers vs the WideInt host reference, plus the
 * shape-determinism property the analytic cost model relies on.
 */

#include <gtest/gtest.h>

#include "bfv/params.h"
#include "modular/barrett.h"
#include "pim/wide_ops.h"
#include "pimhe/kernels.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using pimhe::testing::kSeed;
using pimhe::testing::randomBelow;
using pimhe::testing::randomWide;

struct OpsHarness
{
    DpuConfig cfg;
    Wram wram{cfg.wramBytes};
    Mram mram{cfg.mramBytes};
    TaskletStats stats;
    TaskletCtx ctx{0, 1, cfg, wram, mram, stats};
};

template <std::size_t L>
void
toLimbs(const WideInt<L> &w, std::uint32_t *out)
{
    for (std::size_t i = 0; i < L; ++i)
        out[i] = w.limb(i);
}

template <std::size_t L>
WideInt<L>
fromLimbs(const std::uint32_t *in)
{
    WideInt<L> w;
    for (std::size_t i = 0; i < L; ++i)
        w.setLimb(i, in[i]);
    return w;
}

/** Pseudo-Mersenne (k, c) of the standard modulus for width L. */
template <std::size_t L>
std::pair<std::size_t, std::uint32_t>
pmShape()
{
    const auto kp = pimhe_kernels::standardVecParams(L, 0);
    return {kp.k, kp.c};
}

template <typename T>
class WideOpsWidths : public ::testing::Test
{
};

using OpWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(WideOpsWidths, OpWidths);

TYPED_TEST(WideOpsWidths, WideAddMatchesReference)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    OpsHarness h;
    Rng rng(kSeed + L);
    for (int it = 0; it < 200; ++it) {
        const auto a = randomWide<L>(rng);
        const auto b = randomWide<L>(rng);
        std::uint32_t al[8], bl[8], out[8];
        toLimbs(a, al);
        toLimbs(b, bl);
        const auto carry = dpuWideAdd(h.ctx, al, bl, out, L);
        EXPECT_EQ(fromLimbs<L>(out), a + b);
        TypeParam copy = a;
        EXPECT_EQ(carry, copy.addInPlace(b));
    }
}

TYPED_TEST(WideOpsWidths, WideSubMatchesReference)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    OpsHarness h;
    Rng rng(kSeed + 2 * L);
    for (int it = 0; it < 200; ++it) {
        const auto a = randomWide<L>(rng);
        const auto b = randomWide<L>(rng);
        std::uint32_t al[8], bl[8], out[8];
        toLimbs(a, al);
        toLimbs(b, bl);
        const auto borrow = dpuWideSub(h.ctx, al, bl, out, L);
        EXPECT_EQ(fromLimbs<L>(out), a - b);
        EXPECT_EQ(borrow, a < b ? 1u : 0u);
    }
}

TYPED_TEST(WideOpsWidths, AddSubModQMatchBarrett)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    const auto q = standardParams<L>().q;
    const BarrettReducer<L> red(q);
    OpsHarness h;
    Rng rng(kSeed + 3 * L);
    std::uint32_t ql[8];
    toLimbs(q, ql);
    for (int it = 0; it < 200; ++it) {
        const auto a = randomBelow<L>(rng, q);
        const auto b = randomBelow<L>(rng, q);
        std::uint32_t al[8], bl[8], out[8];
        toLimbs(a, al);
        toLimbs(b, bl);
        dpuWideAddModQ(h.ctx, al, bl, ql, out, L);
        EXPECT_EQ(fromLimbs<L>(out), red.addMod(a, b)) << "iter " << it;
        dpuWideSubModQ(h.ctx, al, bl, ql, out, L);
        EXPECT_EQ(fromLimbs<L>(out), red.subMod(a, b)) << "iter " << it;
    }
}

TYPED_TEST(WideOpsWidths, KaratsubaMatchesMulFull)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    OpsHarness h;
    Rng rng(kSeed + 4 * L);
    for (int it = 0; it < 200; ++it) {
        const auto a = randomWide<L>(rng);
        const auto b = randomWide<L>(rng);
        std::uint32_t al[8], bl[8], out[16];
        toLimbs(a, al);
        toLimbs(b, bl);
        dpuWideMulKaratsuba(h.ctx, al, bl, out, L);
        EXPECT_EQ(fromLimbs<2 * L>(out), a.mulFull(b)) << "iter " << it;
    }
}

TYPED_TEST(WideOpsWidths, KaratsubaEdgeCases)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    OpsHarness h;
    const auto max = TypeParam::maxValue();
    for (const auto &[a, b] :
         {std::pair{TypeParam(), max}, std::pair{max, max},
          std::pair{TypeParam(1ULL), max},
          std::pair{TypeParam(1ULL), TypeParam(1ULL)}}) {
        std::uint32_t al[8], bl[8], out[16];
        toLimbs(a, al);
        toLimbs(b, bl);
        dpuWideMulKaratsuba(h.ctx, al, bl, out, L);
        EXPECT_EQ(fromLimbs<2 * L>(out), a.mulFull(b));
    }
}

TYPED_TEST(WideOpsWidths, MulModQMatchesBarrett)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    const auto q = standardParams<L>().q;
    const auto [k, c] = pmShape<L>();
    const BarrettReducer<L> red(q);
    OpsHarness h;
    Rng rng(kSeed + 5 * L);
    std::uint32_t ql[8];
    toLimbs(q, ql);
    for (int it = 0; it < 200; ++it) {
        const auto a = randomBelow<L>(rng, q);
        const auto b = randomBelow<L>(rng, q);
        std::uint32_t al[8], bl[8], out[8];
        toLimbs(a, al);
        toLimbs(b, bl);
        dpuWideMulModQ(h.ctx, al, bl, ql, k, c, out, L);
        EXPECT_EQ(fromLimbs<L>(out), red.mulMod(a, b)) << "iter " << it;
    }
}

TYPED_TEST(WideOpsWidths, MulModQEdgeValues)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    const auto q = standardParams<L>().q;
    const auto [k, c] = pmShape<L>();
    const BarrettReducer<L> red(q);
    OpsHarness h;
    std::uint32_t ql[8];
    toLimbs(q, ql);
    const auto qm1 = q - TypeParam(1ULL);
    for (const auto &[a, b] :
         {std::pair{TypeParam(), qm1}, std::pair{qm1, qm1},
          std::pair{TypeParam(1ULL), qm1}}) {
        std::uint32_t al[8], bl[8], out[8];
        toLimbs(a, al);
        toLimbs(b, bl);
        dpuWideMulModQ(h.ctx, al, bl, ql, k, c, out, L);
        EXPECT_EQ(fromLimbs<L>(out), red.mulMod(a, b));
    }
}

TYPED_TEST(WideOpsWidths, InstructionCountIsDataIndependent)
{
    // The analytic cost model requires branch-free kernels: the same
    // operation shape must cost the same instruction count for any
    // operand values.
    constexpr std::size_t L = TypeParam::numLimbs;
    const auto q = standardParams<L>().q;
    const auto [k, c] = pmShape<L>();
    std::uint32_t ql[8];
    toLimbs(q, ql);
    Rng rng(kSeed + 6 * L);
    std::uint64_t expected = 0;
    for (int it = 0; it < 50; ++it) {
        OpsHarness h;
        const auto a = randomBelow<L>(rng, q);
        const auto b = randomBelow<L>(rng, q);
        std::uint32_t al[8], bl[8], out[8];
        toLimbs(a, al);
        toLimbs(b, bl);
        dpuWideAddModQ(h.ctx, al, bl, ql, out, L);
        dpuWideMulModQ(h.ctx, al, bl, ql, k, c, out, L);
        if (it == 0)
            expected = h.stats.instructions;
        else
            ASSERT_EQ(h.stats.instructions, expected)
                << "data-dependent instruction count at iter " << it;
    }
}

TYPED_TEST(WideOpsWidths, MultiplicationCostGrowsWithWidth)
{
    // Key Takeaway 2 at the instruction level: wide multiplication is
    // expensive on gen1 hardware, and the native-multiplier ablation
    // removes most of that cost.
    constexpr std::size_t L = TypeParam::numLimbs;
    const auto q = standardParams<L>().q;
    const auto [k, c] = pmShape<L>();
    std::uint32_t ql[8], al[8], bl[8], out[8];
    toLimbs(q, ql);
    Rng rng(kSeed);
    toLimbs(randomBelow<L>(rng, q), al);
    toLimbs(randomBelow<L>(rng, q), bl);

    OpsHarness gen1;
    dpuWideMulModQ(gen1.ctx, al, bl, ql, k, c, out, L);
    const auto gen1_cost = gen1.stats.instructions;

    OpsHarness native;
    native.cfg.nativeMul32 = true;
    TaskletStats stats;
    TaskletCtx nctx(0, 1, native.cfg, native.wram, native.mram, stats);
    dpuWideMulModQ(nctx, al, bl, ql, k, c, out, L);
    EXPECT_LT(stats.instructions * 3, gen1_cost)
        << "native 32-bit multiply should cut cost by >3x";

    OpsHarness addh;
    dpuWideAddModQ(addh.ctx, al, bl, ql, out, L);
    EXPECT_LT(addh.stats.instructions * 10, gen1_cost)
        << "multiplication must dwarf addition on gen1";
}

TEST(WideOps, PseudoMersenneRejectsBadShapes)
{
    OpsHarness h;
    std::uint32_t x[8] = {};
    std::uint32_t q[4] = {1, 0, 0, 0};
    std::uint32_t out[4];
    EXPECT_DEATH(
        dpuPseudoMersenneReduce(h.ctx, x, 64, 5, q, out, 1),
        "k inconsistent");
    EXPECT_DEATH(
        dpuPseudoMersenneReduce(h.ctx, x, 20, 0xFFFF, q, out, 1),
        "fold constant too large");
}

} // namespace
} // namespace pimhe
