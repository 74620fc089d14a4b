/**
 * @file
 * DPU kernel tests: elementwise add/mul kernels and the negacyclic
 * convolution kernel, validated against host references across
 * widths, tasklet counts and awkward element counts.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "bfv/params.h"
#include "modular/barrett.h"
#include "pimhe/kernels.h"
#include "poly/convolver.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using pimhe::testing::kSeed;
using pimhe::testing::randomBelow;

template <std::size_t L>
std::vector<WideInt<L>>
randomVec(Rng &rng, std::size_t elems)
{
    const auto q = standardParams<L>().q;
    std::vector<WideInt<L>> v(elems);
    for (auto &x : v)
        x = randomBelow<L>(rng, q);
    return v;
}

template <std::size_t L>
void
storeVec(Dpu &dpu, std::uint64_t addr,
         const std::vector<WideInt<L>> &v)
{
    std::vector<std::uint8_t> buf(((v.size() * L * 4 + 7) / 8) * 8, 0);
    for (std::size_t i = 0; i < v.size(); ++i)
        for (std::size_t l = 0; l < L; ++l) {
            const std::uint32_t limb = v[i].limb(l);
            std::memcpy(buf.data() + (i * L + l) * 4, &limb, 4);
        }
    dpu.mram().write(addr, buf.data(), buf.size());
}

template <std::size_t L>
std::vector<WideInt<L>>
loadVec(Dpu &dpu, std::uint64_t addr, std::size_t elems)
{
    std::vector<std::uint8_t> buf(elems * L * 4);
    dpu.mram().read(addr, buf.data(), buf.size());
    std::vector<WideInt<L>> v(elems);
    for (std::size_t i = 0; i < elems; ++i)
        for (std::size_t l = 0; l < L; ++l) {
            std::uint32_t limb;
            std::memcpy(&limb, buf.data() + (i * L + l) * 4, 4);
            v[i].setLimb(l, limb);
        }
    return v;
}

struct ShapeParam
{
    std::size_t elems;
    unsigned tasklets;
};

class VecKernelShapes
    : public ::testing::TestWithParam<ShapeParam>
{
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, VecKernelShapes,
    ::testing::Values(ShapeParam{1, 1}, ShapeParam{1, 12},
                      ShapeParam{7, 3}, ShapeParam{64, 12},
                      ShapeParam{129, 16}, ShapeParam{1000, 11},
                      ShapeParam{513, 24}),
    [](const auto &tpi) {
        return "e" + std::to_string(tpi.param.elems) + "t" +
               std::to_string(tpi.param.tasklets);
    });

TEST_P(VecKernelShapes, AddKernelMatchesBarrett128)
{
    constexpr std::size_t L = 4;
    const auto [elems, tasklets] = GetParam();
    const auto q = standardParams<L>().q;
    const BarrettReducer<L> red(q);
    Rng rng(kSeed + elems);
    const auto a = randomVec<L>(rng, elems);
    const auto b = randomVec<L>(rng, elems);

    Dpu dpu(DpuConfig{});
    const auto p = standardVecParams(L, elems);
    storeVec(dpu, p.mramA, a);
    storeVec(dpu, p.mramB, b);
    dpu.run(tasklets, makeVecAddModQKernel(p));
    const auto out = loadVec<L>(dpu, p.mramOut, elems);
    for (std::size_t i = 0; i < elems; ++i)
        EXPECT_EQ(out[i], red.addMod(a[i], b[i])) << "elem " << i;
}

TEST_P(VecKernelShapes, MulKernelMatchesBarrett128)
{
    constexpr std::size_t L = 4;
    const auto [elems, tasklets] = GetParam();
    const auto q = standardParams<L>().q;
    const BarrettReducer<L> red(q);
    Rng rng(kSeed + 31 + elems);
    const auto a = randomVec<L>(rng, elems);
    const auto b = randomVec<L>(rng, elems);

    Dpu dpu(DpuConfig{});
    const auto p = standardVecParams(L, elems);
    storeVec(dpu, p.mramA, a);
    storeVec(dpu, p.mramB, b);
    dpu.run(tasklets, makeVecMulModQKernel(p));
    const auto out = loadVec<L>(dpu, p.mramOut, elems);
    for (std::size_t i = 0; i < elems; ++i)
        EXPECT_EQ(out[i], red.mulMod(a[i], b[i])) << "elem " << i;
}

template <typename T>
class KernelWidths : public ::testing::Test
{
};

using KWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(KernelWidths, KWidths);

TYPED_TEST(KernelWidths, AddAndMulKernelsAllWidths)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    const std::size_t elems = 93;
    const auto q = standardParams<L>().q;
    const BarrettReducer<L> red(q);
    Rng rng(kSeed + 7 * L);
    const auto a = randomVec<L>(rng, elems);
    const auto b = randomVec<L>(rng, elems);

    Dpu dpu(DpuConfig{});
    const auto p = standardVecParams(L, elems);
    storeVec(dpu, p.mramA, a);
    storeVec(dpu, p.mramB, b);
    dpu.run(12, makeVecAddModQKernel(p));
    auto out = loadVec<L>(dpu, p.mramOut, elems);
    for (std::size_t i = 0; i < elems; ++i)
        EXPECT_EQ(out[i], red.addMod(a[i], b[i]));

    dpu.run(12, makeVecMulModQKernel(p));
    out = loadVec<L>(dpu, p.mramOut, elems);
    for (std::size_t i = 0; i < elems; ++i)
        EXPECT_EQ(out[i], red.mulMod(a[i], b[i]));
}

TYPED_TEST(KernelWidths, KernelInstructionCountIsDataIndependent)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    const std::size_t elems = 40;
    Rng rng(kSeed + 9 * L);
    std::uint64_t expected = 0;
    for (int it = 0; it < 5; ++it) {
        Dpu dpu(DpuConfig{});
        const auto p = standardVecParams(L, elems);
        storeVec(dpu, p.mramA, randomVec<L>(rng, elems));
        storeVec(dpu, p.mramB, randomVec<L>(rng, elems));
        const auto stats = dpu.run(12, makeVecMulModQKernel(p));
        if (it == 0)
            expected = stats.totalInstructions();
        else
            ASSERT_EQ(stats.totalInstructions(), expected);
    }
}

// ----- negacyclic convolution kernel -----

TYPED_TEST(KernelWidths, ConvolutionMatchesSchoolbookConvolver)
{
    constexpr std::size_t L = TypeParam::numLimbs;
    const std::size_t n = 32;
    const auto params = standardParams<L>().withDegree(n);
    RingContext<L> ring(n, params.q);
    const SchoolbookConvolver<L> ref(ring);
    Rng rng(kSeed + 13 * L);
    const auto a = ring.sampleUniform(rng);
    const auto b = ring.sampleUniform(rng);

    Dpu dpu(DpuConfig{});
    const auto p = standardConvParams(L, n);
    storeVec(dpu, p.mramA, a.coeffs());
    storeVec(dpu, p.mramB, b.coeffs());
    dpu.run(12, makeNegacyclicConvKernel(p));

    const auto expect = ref.convolveCentered(a, b);
    const std::size_t acc_limbs = p.accLimbs();
    std::vector<std::uint8_t> buf(n * acc_limbs * 4);
    dpu.mram().read(p.mramOut, buf.data(), buf.size());
    for (std::size_t i = 0; i < n; ++i) {
        U256 v;
        std::uint32_t top = 0;
        const std::size_t read = std::min<std::size_t>(acc_limbs, 8);
        for (std::size_t l = 0; l < read; ++l) {
            std::memcpy(&top, buf.data() + (i * acc_limbs + l) * 4, 4);
            v.setLimb(l, top);
        }
        if (top & 0x80000000u)
            for (std::size_t l = read; l < 8; ++l)
                v.setLimb(l, 0xFFFFFFFFu);
        EXPECT_EQ(v, expect[i]) << "coeff " << i;
    }
}

TEST(ConvKernel, VariousTaskletCounts)
{
    constexpr std::size_t L = 2;
    const std::size_t n = 16;
    const auto params = standardParams<L>().withDegree(n);
    RingContext<L> ring(n, params.q);
    const SchoolbookConvolver<L> ref(ring);
    Rng rng(kSeed + 99);
    const auto a = ring.sampleUniform(rng);
    const auto b = ring.sampleUniform(rng);
    const auto expect = ref.convolveCentered(a, b);

    for (unsigned tasklets : {1u, 3u, 11u, 16u}) {
        Dpu dpu(DpuConfig{});
        const auto p = standardConvParams(L, n);
        storeVec(dpu, p.mramA, a.coeffs());
        storeVec(dpu, p.mramB, b.coeffs());
        dpu.run(tasklets, makeNegacyclicConvKernel(p));
        const std::size_t acc_limbs = p.accLimbs();
        std::vector<std::uint8_t> buf(n * acc_limbs * 4);
        dpu.mram().read(p.mramOut, buf.data(), buf.size());
        for (std::size_t i = 0; i < n; ++i) {
            U256 v;
            std::uint32_t top = 0;
            for (std::size_t l = 0; l < acc_limbs && l < 8; ++l) {
                std::memcpy(&top,
                            buf.data() + (i * acc_limbs + l) * 4, 4);
                v.setLimb(l, top);
            }
            if (top & 0x80000000u)
                for (std::size_t l = acc_limbs; l < 8; ++l)
                    v.setLimb(l, 0xFFFFFFFFu);
            EXPECT_EQ(v, expect[i])
                << "tasklets " << tasklets << " coeff " << i;
        }
    }
}

TEST(ConvKernel, RejectsOversizedPolynomials)
{
    // 2 polys x 8192 x 16 bytes overflows the 64 KB WRAM.
    constexpr std::size_t L = 4;
    Dpu dpu(DpuConfig{});
    auto p = standardConvParams(L, 8192);
    std::vector<std::uint8_t> zeros(8192 * L * 4, 0);
    dpu.mram().write(p.mramA, zeros.data(), zeros.size());
    dpu.mram().write(p.mramB, zeros.data(), zeros.size());
    EXPECT_DEATH(dpu.run(12, makeNegacyclicConvKernel(p)),
                 "do not fit in WRAM");
}

TEST(KernelHelpers, TaskletRangePartitionsExactly)
{
    for (std::uint32_t elems : {0u, 1u, 7u, 12u, 100u, 1001u}) {
        for (unsigned tasklets : {1u, 3u, 12u, 24u}) {
            std::uint32_t covered = 0;
            std::uint32_t prev_end = 0;
            for (unsigned t = 0; t < tasklets; ++t) {
                const auto [begin, end] =
                    taskletRange(elems, t, tasklets);
                EXPECT_EQ(begin, prev_end) << "gap before tasklet "
                                           << t;
                EXPECT_LE(end - begin,
                          elems / tasklets + 1);
                covered += end - begin;
                prev_end = end;
            }
            EXPECT_EQ(covered, elems);
            EXPECT_EQ(prev_end, elems);
        }
    }
}

TEST(KernelHelpers, WramChunkBytesRespectsBudget)
{
    DpuConfig cfg;
    for (unsigned t = 1; t <= cfg.maxTasklets; ++t) {
        const auto bytes = wramChunkBytes(cfg, t);
        EXPECT_GE(bytes, 8u);
        EXPECT_LE(bytes, 2048u);
        EXPECT_LE(t * (3 * bytes + analysis::kDefaultStackBytes),
                  cfg.wramBytes)
            << "the A, B and OUT buffers and the stack per tasklet "
            << "must fit WRAM at " << t << " tasklets";
        EXPECT_EQ(bytes & (bytes - 1), 0u) << "power of two";
    }
}

} // namespace
} // namespace pimhe
