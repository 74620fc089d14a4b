/**
 * @file
 * Tests for the polynomial quotient ring R_q and its samplers.
 */

#include <gtest/gtest.h>

#include "bfv/params.h"
#include "poly/convolver.h"
#include "poly/ring.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::kSeed;

template <std::size_t N>
RingContext<N>
makeRing(std::size_t n = 16)
{
    return RingContext<N>(n, standardParams<N>().q);
}

TEST(Ring, RejectsNonPowerOfTwoDegree)
{
    EXPECT_DEATH(RingContext<4>(12, standardParams<4>().q),
                 "power of two");
}

TEST(Ring, AddSubNegateIdentities)
{
    auto ring = makeRing<4>();
    Rng rng(kSeed);
    const auto a = ring.sampleUniform(rng);
    const auto b = ring.sampleUniform(rng);
    EXPECT_EQ(ring.sub(ring.add(a, b), b), a);
    EXPECT_TRUE(ring.add(a, ring.negate(a)).isZero());
    EXPECT_EQ(ring.negate(ring.negate(a)), a);
    const Polynomial<4> zero(ring.degree());
    EXPECT_EQ(ring.add(a, zero), a);
}

TEST(Ring, SizeMismatchDies)
{
    auto ring = makeRing<4>();
    Rng rng(kSeed);
    const auto a = ring.sampleUniform(rng);
    Polynomial<4> wrong(8);
    EXPECT_DEATH(ring.add(a, wrong), "does not match ring degree");
}

TEST(Ring, ScalarMulMatchesRepeatedAdd)
{
    auto ring = makeRing<2>();
    Rng rng(kSeed + 1);
    const auto a = ring.sampleUniform(rng);
    const auto three = ring.scalarMul(a, U64(3ULL));
    EXPECT_EQ(three, ring.add(ring.add(a, a), a));
}

TEST(Ring, MulByConstantOne)
{
    auto ring = makeRing<4>();
    Rng rng(kSeed + 2);
    const auto a = ring.sampleUniform(rng);
    Polynomial<4> one(ring.degree());
    one[0] = U128(1ULL);
    EXPECT_EQ(ring.mulSchoolbook(a, one), a);
}

TEST(Ring, MulByXShiftsNegacyclically)
{
    auto ring = makeRing<4>();
    Rng rng(kSeed + 3);
    const auto a = ring.sampleUniform(rng);
    Polynomial<4> x(ring.degree());
    x[1] = U128(1ULL);
    const auto shifted = ring.mulSchoolbook(a, x);
    for (std::size_t i = 1; i < ring.degree(); ++i)
        EXPECT_EQ(shifted[i], a[i - 1]);
    // x^n == -1: the top coefficient wraps with negation.
    EXPECT_EQ(shifted[0], ring.reducer().negMod(a[ring.degree() - 1]));
}

TEST(Ring, MulByXToTheNIsNegation)
{
    auto ring = makeRing<2>(8);
    Rng rng(kSeed + 4);
    const auto a = ring.sampleUniform(rng);
    Polynomial<2> x(8);
    x[1] = U64(1ULL);
    auto cur = a;
    for (int i = 0; i < 8; ++i)
        cur = ring.mulSchoolbook(cur, x);
    EXPECT_EQ(cur, ring.negate(a));
}

template <typename T>
class RingWidths : public ::testing::Test
{
};

using RingTypes = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(RingWidths, RingTypes);

TYPED_TEST(RingWidths, MulCommutesAndDistributes)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    auto ring = makeRing<N>();
    Rng rng(kSeed + N);
    for (int it = 0; it < 10; ++it) {
        const auto a = ring.sampleUniform(rng);
        const auto b = ring.sampleUniform(rng);
        const auto c = ring.sampleUniform(rng);
        EXPECT_EQ(ring.mulSchoolbook(a, b), ring.mulSchoolbook(b, a));
        EXPECT_EQ(ring.mulSchoolbook(a, ring.add(b, c)),
                  ring.add(ring.mulSchoolbook(a, b),
                           ring.mulSchoolbook(a, c)));
    }
}

TYPED_TEST(RingWidths, SamplersProduceReducedCoefficients)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    auto ring = makeRing<N>(64);
    Rng rng(kSeed + 10 + N);
    const auto u = ring.sampleUniform(rng);
    for (std::size_t i = 0; i < u.size(); ++i)
        EXPECT_LT(u[i], ring.modulus());

    const auto t = ring.sampleTernary(rng);
    for (std::size_t i = 0; i < t.size(); ++i) {
        const auto [mag, neg] = ring.toCentered(t[i]);
        (void)neg;
        EXPECT_LE(mag, WideInt<N>(1ULL)) << "ternary out of range";
    }

    const auto e = ring.sampleNoise(rng, 5);
    for (std::size_t i = 0; i < e.size(); ++i) {
        const auto [mag, neg] = ring.toCentered(e[i]);
        (void)neg;
        EXPECT_LE(mag, WideInt<N>(5ULL)) << "noise beyond eta";
    }
}

/**
 * centeredToModQ(v) equals v mod q for every int64 v: checked against
 * a 128-bit reference on small values, on +-(q - 1), +-q, +-(q + 1)
 * where they fit an int64, and on INT64_MAX and INT64_MIN. Values
 * inside (-q/2, q/2] also round-trip through toCentered.
 */
template <std::size_t N>
void
checkCenteredConversion()
{
    using u128 = unsigned __int128;
    auto ring = makeRing<N>();
    u128 q = 0;
    for (std::size_t l = N; l-- > 0;)
        q = (q << 32) | ring.modulus().limb(l);
    std::vector<std::int64_t> values = {0,     1,     -1,   5,
                                        -5,    1000,  -1000,
                                        INT64_MAX, INT64_MIN};
    for (const u128 near : {q - 1, q, q + 1}) {
        if (near <= static_cast<u128>(INT64_MAX)) {
            values.push_back(static_cast<std::int64_t>(near));
            values.push_back(-static_cast<std::int64_t>(near));
        }
    }
    for (const std::int64_t v : values) {
        const u128 mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                               : static_cast<std::uint64_t>(v);
        const u128 rem = mag % q;
        const u128 expect = (v < 0 && rem != 0) ? q - rem : rem;
        const auto c = ring.centeredToModQ(v);
        u128 got = 0;
        for (std::size_t l = N; l-- > 0;)
            got = (got << 32) | c.limb(l);
        EXPECT_TRUE(got == expect) << "N=" << N << " v=" << v;

        if (mag <= q / 2) {
            const auto [back_mag, neg] = ring.toCentered(c);
            EXPECT_TRUE(back_mag.toUint64() == mag) << "N=" << N
                                                    << " v=" << v;
            EXPECT_EQ(neg, v < 0) << "N=" << N << " v=" << v;
        }
    }
}

TEST(Ring, CenteredConversionRoundTrip)
{
    checkCenteredConversion<1>();
    checkCenteredConversion<2>();
    checkCenteredConversion<4>();
}

TEST(Ring, UniformSamplingCoversRange)
{
    // Statistical smoke check: with 27-bit q the top bits should see
    // both halves of the range.
    auto ring = RingContext<1>(256, standardParams<1>().q);
    Rng rng(kSeed + 20);
    const auto u = ring.sampleUniform(rng);
    const U32 half = ring.modulus().shr(1);
    int above = 0;
    for (std::size_t i = 0; i < u.size(); ++i)
        if (u[i] > half)
            ++above;
    EXPECT_GT(above, 64);
    EXPECT_LT(above, 192);
}

// ----- convolver strategies -----

TYPED_TEST(RingWidths, SchoolbookConvolverMatchesRingProduct)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    auto ring = makeRing<N>();
    const SchoolbookConvolver<N> conv(ring);
    Rng rng(kSeed + 40 + N);
    const auto a = ring.sampleUniform(rng);
    const auto b = ring.sampleUniform(rng);
    const auto centered = conv.convolveCentered(a, b);
    // Reducing the exact signed coefficients mod q must equal the
    // mod-q schoolbook product.
    const auto expect = ring.mulSchoolbook(a, b);
    const U256 q = ring.modulus().template convert<8>();
    for (std::size_t i = 0; i < ring.degree(); ++i) {
        const bool neg = signed256::isNegative(centered[i]);
        const U256 mag = signed256::magnitude(centered[i]);
        const U256 r = mod(mag, q);
        WideInt<N> val = r.convert<N>();
        if (neg)
            val = ring.reducer().negMod(val);
        EXPECT_EQ(val, expect[i]) << "coeff " << i;
    }
}

TEST(Convolver, SchoolbookRejectsOperandOfTheWrongDegree)
{
    auto ring = makeRing<2>(64);
    const SchoolbookConvolver<2> conv(ring);
    Rng rng(kSeed + 41);
    const auto full = ring.sampleUniform(rng);
    EXPECT_DEATH(conv.convolveCentered(Polynomial<2>(32), full),
                 "convolution operand a has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(conv.convolveCentered(full, Polynomial<2>(128)),
                 "convolution operand b has 128 coefficients, not the "
                 "ring degree 64");
}

TEST(Signed256, Helpers)
{
    const U256 five(5ULL);
    const U256 minus_five = U256() - five;
    EXPECT_FALSE(signed256::isNegative(five));
    EXPECT_TRUE(signed256::isNegative(minus_five));
    EXPECT_EQ(signed256::magnitude(minus_five), five);
    EXPECT_EQ(signed256::fromSignMagnitude(five, true), minus_five);
    EXPECT_EQ(signed256::fromSignMagnitude(five, false), five);
    EXPECT_FALSE(signed256::isNegative(U256()));
}

} // namespace
} // namespace pimhe
