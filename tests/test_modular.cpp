/**
 * @file
 * Tests for 64-bit modular helpers and the Barrett reducer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bfv/params.h"
#include "modular/barrett.h"
#include "modular/mod64.h"
#include "modular/montgomery.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::kSeed;
using pimhe::testing::randomBelow;

TEST(Mod64, MulModMatchesInt128)
{
    Rng rng(kSeed);
    for (int it = 0; it < 500; ++it) {
        const std::uint64_t m = (rng.next64() >> 2) | 1;
        const std::uint64_t a = rng.uniform(m);
        const std::uint64_t b = rng.uniform(m);
        const auto expect = static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(a) * b % m);
        EXPECT_EQ(mulMod64(a, b, m), expect);
    }
}

TEST(Mod64, AddSubMod)
{
    EXPECT_EQ(addMod64(5, 6, 7), 4u);
    EXPECT_EQ(addMod64(6, 6, 7), 5u);
    EXPECT_EQ(subMod64(2, 5, 7), 4u);
    EXPECT_EQ(subMod64(5, 2, 7), 3u);
    // Near the top of the 64-bit range (overflowing sum).
    const std::uint64_t m = ~0ULL - 58;
    EXPECT_EQ(addMod64(m - 1, m - 2, m), m - 3);
}

TEST(Mod64, PowModProperties)
{
    Rng rng(kSeed + 1);
    for (int it = 0; it < 50; ++it) {
        const std::uint64_t p = 1000003;
        const std::uint64_t a = 1 + rng.uniform(p - 1);
        // Fermat: a^(p-1) == 1 mod p for prime p.
        EXPECT_EQ(powMod64(a, p - 1, p), 1u);
        EXPECT_EQ(powMod64(a, 0, p), 1u);
        EXPECT_EQ(powMod64(a, 1, p), a);
    }
}

TEST(Mod64, InvMod)
{
    Rng rng(kSeed + 2);
    const std::uint64_t p = 18014398509404161ULL; // 54-bit prime
    for (int it = 0; it < 100; ++it) {
        const std::uint64_t a = 1 + rng.uniform(p - 1);
        const std::uint64_t inv = invMod64(a, p);
        EXPECT_EQ(mulMod64(a, inv, p), 1u);
    }
    EXPECT_DEATH(invMod64(6, 9), "not invertible");
}

TEST(Mod64, IsPrimeKnownValues)
{
    EXPECT_FALSE(isPrime64(0));
    EXPECT_FALSE(isPrime64(1));
    EXPECT_TRUE(isPrime64(2));
    EXPECT_TRUE(isPrime64(3));
    EXPECT_FALSE(isPrime64(4));
    EXPECT_TRUE(isPrime64(65537));
    EXPECT_FALSE(isPrime64(65536));
    // Carmichael numbers must be rejected.
    EXPECT_FALSE(isPrime64(561));
    EXPECT_FALSE(isPrime64(41041));
    EXPECT_FALSE(isPrime64(825265));
    // Large primes and neighbours.
    EXPECT_TRUE(isPrime64(18446744073709551557ULL));
    EXPECT_FALSE(isPrime64(18446744073709551555ULL));
    // The library's standard moduli.
    EXPECT_TRUE(isPrime64(134215681ULL));
    EXPECT_TRUE(isPrime64(18014398509404161ULL));
}

TEST(Mod64, StandardParamModuliAreNttFriendlyPrimes)
{
    // 27-bit: prime and 1 mod 2n with n = 1024.
    const auto p1 = standardParams<1>();
    EXPECT_TRUE(isPrime64(p1.q.toUint64()));
    EXPECT_EQ(p1.q.toUint64() % (2 * p1.n), 1u);
    EXPECT_EQ(p1.q.bitLength(), 27u);

    const auto p2 = standardParams<2>();
    EXPECT_TRUE(isPrime64(p2.q.toUint64()));
    EXPECT_EQ(p2.q.toUint64() % (2 * p2.n), 1u);
    EXPECT_EQ(p2.q.bitLength(), 54u);

    // 109-bit: check residue via WideInt.
    const auto p4 = standardParams<4>();
    EXPECT_EQ(p4.q.bitLength(), 109u);
    EXPECT_EQ(mod(p4.q, U128(2 * p4.n)).toUint64(), 1u);
}

TEST(Mod64, FindNttPrimes)
{
    const auto primes = findNttPrimes(30, 2048, 5);
    ASSERT_EQ(primes.size(), 5u);
    for (const auto p : primes) {
        EXPECT_TRUE(isPrime64(p));
        EXPECT_EQ(p % 2048, 1u);
        EXPECT_EQ(p >> 29, 1u) << "should be a 30-bit prime";
    }
    // Distinct.
    for (std::size_t i = 0; i < primes.size(); ++i)
        for (std::size_t j = i + 1; j < primes.size(); ++j)
            EXPECT_NE(primes[i], primes[j]);
}

TEST(Mod64, PrimitiveRootHasExactOrder)
{
    for (const auto p : findNttPrimes(40, 4096, 3)) {
        const std::uint64_t root = primitiveRoot(p, 4096);
        EXPECT_EQ(powMod64(root, 4096, p), 1u);
        EXPECT_EQ(powMod64(root, 2048, p), p - 1)
            << "root must have order exactly 4096";
    }
}

template <typename T>
class BarrettWidths : public ::testing::Test
{
};

using BarrettTypes =
    ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(BarrettWidths, BarrettTypes);

TYPED_TEST(BarrettWidths, ReduceMatchesDivmod)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const auto params = standardParams<N>();
    const BarrettReducer<N> red(params.q);
    Rng rng(kSeed + N);
    for (int it = 0; it < 300; ++it) {
        const auto a = randomBelow<N>(rng, params.q);
        const auto b = randomBelow<N>(rng, params.q);
        const auto prod = a.mulFull(b);
        EXPECT_EQ(red.reduce(prod),
                  divmod(prod, params.q.template convert<2 * N>())
                      .second.template convert<N>())
            << "iter " << it;
    }
}

TYPED_TEST(BarrettWidths, ModularFieldAxioms)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const auto params = standardParams<N>();
    const BarrettReducer<N> red(params.q);
    Rng rng(kSeed + 31 + N);
    for (int it = 0; it < 100; ++it) {
        const auto a = randomBelow<N>(rng, params.q);
        const auto b = randomBelow<N>(rng, params.q);
        const auto c = randomBelow<N>(rng, params.q);
        // Commutativity and associativity.
        EXPECT_EQ(red.mulMod(a, b), red.mulMod(b, a));
        EXPECT_EQ(red.mulMod(red.mulMod(a, b), c),
                  red.mulMod(a, red.mulMod(b, c)));
        // Distributivity.
        EXPECT_EQ(red.mulMod(a, red.addMod(b, c)),
                  red.addMod(red.mulMod(a, b), red.mulMod(a, c)));
        // Additive inverse.
        EXPECT_TRUE(red.addMod(a, red.negMod(a)).isZero());
        // Subtraction is inverse of addition.
        EXPECT_EQ(red.subMod(red.addMod(a, b), b), a);
    }
}

TYPED_TEST(BarrettWidths, PowMod)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const auto params = standardParams<N>();
    const BarrettReducer<N> red(params.q);
    Rng rng(kSeed + 77);
    const auto a = randomBelow<N>(rng, params.q);
    EXPECT_EQ(red.powMod(a, 0), WideInt<N>(1ULL));
    EXPECT_EQ(red.powMod(a, 1), a);
    EXPECT_EQ(red.powMod(a, 5),
              red.mulMod(red.mulMod(red.mulMod(a, a),
                                    red.mulMod(a, a)),
                         a));
}

TEST(Barrett, EdgeValues)
{
    const auto params = standardParams<4>();
    const BarrettReducer<4> red(params.q);
    const U128 qm1 = params.q - U128(1ULL);
    // (q-1)^2 mod q == 1.
    EXPECT_EQ(red.mulMod(qm1, qm1), U128(1ULL));
    EXPECT_TRUE(red.mulMod(U128(), qm1).isZero());
    EXPECT_EQ(red.reduceSingle(params.q - U128(1ULL)), qm1);
    EXPECT_TRUE(red.addMod(qm1, U128(1ULL)).isZero());
}

TEST(Barrett, RejectsZeroModulus)
{
    EXPECT_DEATH({ BarrettReducer<4> r{U128()}; (void)r; },
                 "zero modulus");
}


TEST(Montgomery, MatchesMulMod64)
{
    Rng rng(kSeed + 90);
    for (const std::uint64_t p :
         {3ULL, 65537ULL, 134215681ULL, 18014398509404161ULL,
          (1ULL << 61) - 1}) {
        const MontgomeryReducer mont(p);
        for (int it = 0; it < 200; ++it) {
            const std::uint64_t a = rng.uniform(p);
            const std::uint64_t b = rng.uniform(p);
            EXPECT_EQ(mont.mulMod(a, b), mulMod64(a, b, p))
                << a << " * " << b << " mod " << p;
        }
    }
}

TEST(Montgomery, FormRoundTrip)
{
    const MontgomeryReducer mont(18014398509404161ULL);
    Rng rng(kSeed + 91);
    for (int it = 0; it < 200; ++it) {
        const std::uint64_t x = rng.uniform(mont.modulus());
        EXPECT_EQ(mont.fromMont(mont.toMont(x)), x);
    }
}

TEST(Montgomery, PowMatchesPowMod64)
{
    const std::uint64_t p = 134215681ULL;
    const MontgomeryReducer mont(p);
    Rng rng(kSeed + 92);
    for (int it = 0; it < 50; ++it) {
        const std::uint64_t base = rng.uniform(p);
        const std::uint64_t exp = rng.uniform(1 << 20);
        EXPECT_EQ(mont.powMod(base, exp), powMod64(base, exp, p));
    }
}

TEST(Montgomery, EdgeValues)
{
    const std::uint64_t p = 65537;
    const MontgomeryReducer mont(p);
    EXPECT_EQ(mont.mulMod(0, 12345), 0u);
    EXPECT_EQ(mont.mulMod(1, 12345), 12345u);
    EXPECT_EQ(mont.mulMod(p - 1, p - 1), 1u);
}

TEST(Montgomery, RejectsBadModuli)
{
    EXPECT_DEATH(MontgomeryReducer(8), "odd");
    EXPECT_DEATH(MontgomeryReducer(1), "odd");
    EXPECT_DEATH(MontgomeryReducer(1ULL << 63), "odd");
}

// ----- boundary values: q near 2^k, max operands, width limits -----

TEST(Barrett, QNearPowerOfTwoBoundaries)
{
    // Moduli one step below a power of two maximise the Barrett
    // remainder bound (2^(2k) mod q is largest there). Check the
    // reduction against exact division at the extreme operands.
    const U32 moduli[] = {
        U32(134215681ULL),        // 2^27 - 2047 (the paper's q)
        U32((1ULL << 31) - 1),    // Mersenne prime, k = 31
        U32((1ULL << 27) + 1ULL), // just above a power of two
    };
    for (const auto &q : moduli) {
        const BarrettReducer<1> red(q);
        const auto qw = q.convert<2>();
        const U64 xs[] = {
            U64(),                              // zero
            qw - U64(1ULL),                     // q - 1
            qw,                                 // exactly q
            qw + U64(1ULL),                     // q + 1
            (qw - U64(1ULL)).mulKaratsuba(qw - U64(1ULL)).convert<2>(),
            U64::oneShl(2 * q.bitLength()) - U64(1ULL), // max input
        };
        for (const auto &x : xs)
            EXPECT_EQ(red.reduce(x), divmod(x, qw).second.convert<1>())
                << "q=" << q.toDecimalString()
                << " x=" << x.toDecimalString();
    }
}

TEST(Barrett, MaxInputAtEveryWidth)
{
    // x = 2^(2k) - 1, the largest input reduce() admits, for each of
    // the paper's moduli widths.
    const auto check = [](const auto &params) {
        constexpr std::size_t N = decltype(params.q)::numLimbs;
        const BarrettReducer<N> red(params.q);
        const auto qw = params.q.template convert<2 * N>();
        const auto x =
            WideInt<2 * N>::oneShl(2 * params.q.bitLength()) -
            WideInt<2 * N>(1ULL);
        EXPECT_EQ(red.reduce(x).template convert<2 * N>(),
                  divmod(x, qw).second);
    };
    check(standardParams<1>());
    check(standardParams<2>());
    check(standardParams<4>());
}

TEST(Barrett, FourLimbModuliAtTheWordPathBoundaries)
{
    // BarrettReducer<4> admits 1 <= k <= 127 and reduces in 64-bit
    // words. Its shifts by k - 1 and k + 1 are whole words at
    // k = 63, 65 and 127, and one bit short of or past one at 64; the
    // extremes are k = 1 and k = 127. At each k: the smallest, the
    // next and the largest q of that bit length.
    Rng rng(kSeed + 404);
    for (const std::size_t k : {1u, 2u, 63u, 64u, 65u, 96u, 97u, 127u}) {
        const U128 top = U128::oneShl(k - 1);
        const U128 one(1ULL);
        for (const U128 &q : {top, top + one, top + (top - one)}) {
            if (q.bitLength() != k)
                continue;
            const BarrettReducer<4> red(q);
            const U256 qw = q.convert<8>();
            const U256 max_x = U256::oneShl(2 * k) - U256(1ULL);
            std::vector<U256> xs = {U256(), qw - U256(1ULL), qw, max_x};
            for (int it = 0; it < 500; ++it)
                xs.push_back(pimhe::testing::randomWide<8>(rng) & max_x);
            for (const U256 &x : xs)
                EXPECT_EQ(red.reduce(x).convert<8>(), divmod(x, qw).second)
                    << "q=" << q.toDecimalString()
                    << " x=" << x.toDecimalString();
        }
    }
}

TEST(Barrett, RejectsModulusTooWideForContext)
{
    // k = 32 needs 2k+1 = 65 bits of double-width headroom; a 1-limb
    // reducer only has 64. The constructor must refuse rather than
    // silently truncate mu.
    EXPECT_DEATH(BarrettReducer<1>(U32(0xFFFFFFFFULL)), "too wide");
}

TEST(Montgomery, WidthBoundaryModuli)
{
    // Largest odd modulus below the 2^62 bound and the smallest legal
    // one; REDC correctness at the extremes of the admitted range.
    for (const std::uint64_t p :
         {(1ULL << 62) - 1, (1ULL << 62) - 57, 3ULL}) {
        const MontgomeryReducer mont(p);
        EXPECT_EQ(mont.mulMod(p - 1, p - 1), mulMod64(p - 1, p - 1, p))
            << p;
        EXPECT_EQ(mont.mulMod(p - 1, 1), p - 1) << p;
        EXPECT_EQ(mont.fromMont(mont.toMont(p - 1)), p - 1) << p;
    }
    EXPECT_DEATH(MontgomeryReducer((1ULL << 62) + 1), "too wide");
}

} // namespace
} // namespace pimhe
