/**
 * @file
 * Tests for the NTT engine, RNS basis and the RNS+NTT convolver.
 */

#include <gtest/gtest.h>

#include "bfv/params.h"
#include "modular/mod64.h"
#include "ntt/ntt.h"
#include "ntt/rns.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::kSeed;

NttTable
makeTable(std::size_t n, int bits = 40)
{
    return NttTable(findNttPrimes(bits, 2 * n, 1)[0], n);
}

TEST(Ntt, ForwardInverseRoundTrip)
{
    for (const std::size_t n : {4ul, 16ul, 64ul, 256ul, 1024ul}) {
        auto table = makeTable(n);
        Rng rng(kSeed + n);
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(table.prime());
        auto w = v;
        table.forward(w);
        EXPECT_NE(w, v) << "transform should not be identity";
        table.inverse(w);
        EXPECT_EQ(w, v) << "n=" << n;
    }
}

TEST(Ntt, TransformIsLinear)
{
    auto table = makeTable(64);
    const std::uint64_t p = table.prime();
    Rng rng(kSeed);
    std::vector<std::uint64_t> a(64), b(64), sum(64);
    for (std::size_t i = 0; i < 64; ++i) {
        a[i] = rng.uniform(p);
        b[i] = rng.uniform(p);
        sum[i] = addMod64(a[i], b[i], p);
    }
    table.forward(a);
    table.forward(b);
    table.forward(sum);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(sum[i], addMod64(a[i], b[i], p));
}

TEST(Ntt, MultiplyMatchesSchoolbookConvolution)
{
    const std::size_t n = 32;
    auto table = makeTable(n);
    const std::uint64_t p = table.prime();
    Rng rng(kSeed + 5);
    for (int it = 0; it < 20; ++it) {
        std::vector<std::uint64_t> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.uniform(p);
            b[i] = rng.uniform(p);
        }
        // Reference negacyclic schoolbook over Z_p.
        std::vector<std::uint64_t> expect(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const std::uint64_t prod = mulMod64(a[i], b[j], p);
                const std::size_t k = i + j;
                if (k < n)
                    expect[k] = addMod64(expect[k], prod, p);
                else
                    expect[k - n] = subMod64(expect[k - n], prod, p);
            }
        }
        EXPECT_EQ(table.multiply(a, b), expect) << "iter " << it;
    }
}

TEST(Ntt, MultiplyByDelta)
{
    const std::size_t n = 16;
    auto table = makeTable(n);
    Rng rng(kSeed + 6);
    std::vector<std::uint64_t> a(n), delta(n, 0);
    for (auto &x : a)
        x = rng.uniform(table.prime());
    delta[0] = 1;
    EXPECT_EQ(table.multiply(a, delta), a);
}

TEST(Ntt, RejectsBadParameters)
{
    EXPECT_DEATH(NttTable(97, 64), "does not support");
    EXPECT_DEATH(makeTable(12), "power of two");
    EXPECT_DEATH(
        {
            auto t = makeTable(16);
            std::vector<std::uint64_t> wrong(8, 0);
            t.forward(wrong);
        },
        "length mismatch");
}

TEST(RnsBasis, DecomposeRecombineRoundTrip)
{
    RnsBasis basis(findNttPrimes(40, 64, 5));
    Rng rng(kSeed + 9);
    for (int it = 0; it < 200; ++it) {
        // Values strictly below the basis product.
        const U256 v =
            mod(pimhe::testing::randomWide<8>(rng), basis.product());
        const auto residues = basis.decompose(v);
        EXPECT_EQ(basis.recombine(residues), v) << "iter " << it;
    }
}

TEST(RnsBasis, RecombineEdges)
{
    RnsBasis basis(findNttPrimes(35, 16, 3));
    const U256 zero;
    EXPECT_EQ(basis.recombine(basis.decompose(zero)), zero);
    const U256 pm1 = basis.product() - U256(1ULL);
    EXPECT_EQ(basis.recombine(basis.decompose(pm1)), pm1);
}

TEST(RnsBasis, RejectsBadBases)
{
    EXPECT_DEATH(RnsBasis({}), "empty");
    EXPECT_DEATH(RnsBasis({8ULL}), "not prime");
    EXPECT_DEATH(RnsBasis({17ULL, 17ULL}), "duplicate");
}

TEST(RnsBasis, ForExactConvolutionSizesProduct)
{
    const auto basis = RnsBasis::forExactConvolution(1024, 230);
    EXPECT_GE(basis.product().bitLength(), 230u);
    for (const auto p : basis.primes())
        EXPECT_EQ(p % 2048, 1u);
}

template <typename T>
class RnsConvWidths : public ::testing::Test
{
};

using ConvTypes = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(RnsConvWidths, ConvTypes);

TYPED_TEST(RnsConvWidths, MatchesSchoolbookConvolver)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const auto params = standardParams<N>().withDegree(32);
    RingContext<N> ring(params.n, params.q);
    const SchoolbookConvolver<N> ref(ring);
    const RnsNttConvolver<N> fast(ring);
    Rng rng(kSeed + 21 + N);
    for (int it = 0; it < 10; ++it) {
        const auto a = ring.sampleUniform(rng);
        const auto b = ring.sampleUniform(rng);
        const auto r1 = ref.convolveCentered(a, b);
        const auto r2 = fast.convolveCentered(a, b);
        ASSERT_EQ(r1.size(), r2.size());
        for (std::size_t i = 0; i < r1.size(); ++i)
            EXPECT_EQ(r1[i], r2[i]) << "coeff " << i << " iter " << it;
    }
}

TYPED_TEST(RnsConvWidths, RnsMultiplierMatchesSchoolbookModQ)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const auto params = standardParams<N>().withDegree(64);
    RingContext<N> ring(params.n, params.q);
    const RnsPolyMultiplier<N> mult(ring);
    Rng rng(kSeed + 33 + N);
    for (int it = 0; it < 5; ++it) {
        const auto a = ring.sampleUniform(rng);
        const auto b = ring.sampleUniform(rng);
        EXPECT_EQ(mult.multiply(a, b), ring.mulSchoolbook(a, b))
            << "iter " << it;
    }
}

TEST(RnsConv, NttConvolverRejectsOperandOfTheWrongDegree)
{
    const auto params = standardParams<2>().withDegree(64);
    RingContext<2> ring(params.n, params.q);
    const RnsNttConvolver<2> conv(ring);
    Rng rng(kSeed + 34);
    const auto full = ring.sampleUniform(rng);
    EXPECT_DEATH(conv.convolveCentered(Polynomial<2>(32), full),
                 "convolution operand a has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(conv.convolveCentered(full, Polynomial<2>(128)),
                 "convolution operand b has 128 coefficients, not the "
                 "ring degree 64");
}

TEST(RnsConv, MultiplierRejectsOperandOfTheWrongDegree)
{
    const auto params = standardParams<2>().withDegree(64);
    RingContext<2> ring(params.n, params.q);
    const RnsPolyMultiplier<2> mult(ring);
    Rng rng(kSeed + 35);
    const auto full = ring.sampleUniform(rng);
    EXPECT_DEATH(mult.multiply(Polynomial<2>(32), full),
                 "convolution operand a has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(mult.multiply(full, Polynomial<2>(128)),
                 "convolution operand b has 128 coefficients, not the "
                 "ring degree 64");
}

TEST(RnsConv, FullDegreeSpotCheck)
{
    // One full-size (n=4096, 128-bit) product through the NTT engine,
    // spot-checked against schoolbook on a few coefficients via the
    // mod-q identity with x = delta polynomial products.
    const auto params = standardParams<4>();
    RingContext<4> ring(params.n, params.q);
    const RnsNttConvolver<4> fast(ring);
    Rng rng(kSeed + 55);
    auto a = ring.sampleUniform(rng);
    Polynomial<4> delta(params.n);
    delta[0] = U128(1ULL);
    const auto conv = fast.convolveCentered(a, delta);
    for (std::size_t i = 0; i < params.n; i += 257) {
        const auto [mag, neg] = ring.toCentered(a[i]);
        const U256 expect = signed256::fromSignMagnitude(
            mag.convert<8>(), neg);
        EXPECT_EQ(conv[i], expect) << "coeff " << i;
    }
}

} // namespace
} // namespace pimhe
