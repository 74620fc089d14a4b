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

/**
 * Operands that push the lazy butterflies to the ends of their ranges:
 * a uniform one, every coefficient cycling through 0, 1 and p - 1, and
 * the constants 1 and p - 1.
 */
std::vector<std::vector<std::uint64_t>>
nttOperands(std::size_t n, std::uint64_t p, Rng &rng)
{
    std::vector<std::uint64_t> uniform(n), cycling(n);
    const std::uint64_t edges[] = {0, 1, p - 1};
    for (std::size_t i = 0; i < n; ++i) {
        uniform[i] = rng.uniform(p);
        cycling[i] = edges[i % 3];
    }
    return {uniform, cycling, std::vector<std::uint64_t>(n, 1),
            std::vector<std::uint64_t>(n, p - 1)};
}

TEST(Ntt, ForwardInverseRoundTrip)
{
    // 62 bits is the widest prime the table accepts (4p < 2^64).
    for (const int bits : {40, 62}) {
        for (const std::size_t n :
             {4ul, 16ul, 64ul, 256ul, 1024ul, 4096ul}) {
            auto table = makeTable(n, bits);
            const std::uint64_t p = table.prime();
            Rng rng(kSeed + n);
            const auto operands = nttOperands(n, p, rng);
            for (std::size_t op = 0; op < operands.size(); ++op) {
                const auto &v = operands[op];
                auto w = v;
                table.forward(w);
                if (op == 0) {
                    EXPECT_NE(w, v) << "transform should not be identity";
                }
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_LT(w[i], p) << "forward output not canonical: "
                                       << "bits=" << bits << " n=" << n
                                       << " operand " << op << " i=" << i;
                }
                table.inverse(w);
                EXPECT_EQ(w, v) << "bits=" << bits << " n=" << n
                                << " operand " << op;
            }
        }
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
    // Reference negacyclic schoolbook over Z_p.
    const auto schoolbook = [](const std::vector<std::uint64_t> &a,
                               const std::vector<std::uint64_t> &b,
                               std::uint64_t p) {
        const std::size_t n = a.size();
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
        return expect;
    };
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
            EXPECT_EQ(table.multiply(a, b), schoolbook(a, b, p))
                << "iter " << it;
        }
    }
    // The 40-bit and the widest (62-bit) prime at n = 4096, on edge
    // operands: uniform x uniform, cycling {0, 1, p - 1} x constant
    // p - 1, and constant p - 1 squared.
    for (const int bits : {40, 62}) {
        const std::size_t n = 4096;
        auto table = makeTable(n, bits);
        const std::uint64_t p = table.prime();
        Rng rng(kSeed + 6 + bits);
        const auto operands = nttOperands(n, p, rng);
        for (const auto &[ia, ib] : {std::pair{0, 0}, std::pair{1, 3},
                                     std::pair{3, 3}}) {
            const auto &a = operands[ia];
            const auto &b = operands[ib];
            EXPECT_EQ(table.multiply(a, b), schoolbook(a, b, p))
                << "bits=" << bits << " operands " << ia << ", " << ib;
        }
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
    // A small basis, the benchmark's (n = 4096, 109-bit q), and the
    // eight largest 32-bit primes, whose product is just below 2^256:
    // there the CRT sums of these values reach 2^258, so they need the
    // accumulator's fifth word and three or four subtractions of P.
    const RnsBasis bases[] = {RnsBasis(findNttPrimes(35, 16, 3)),
                              RnsBasis::forExactConvolution(4096, 232),
                              RnsBasis(findNttPrimes(32, 2, 8))};
    EXPECT_EQ(bases[2].product().bitLength(), 256u);
    for (const RnsBasis &basis : bases) {
        const U256 &big_p = basis.product();
        const U256 half = big_p.shr(1);
        for (const U256 &v : {U256(), U256(1ULL), big_p - U256(1ULL), half,
                              half + U256(1ULL)}) {
            auto residues = basis.decompose(v);
            for (std::size_t i = 0; i < residues.size(); ++i)
                ASSERT_LT(residues[i], basis.primes()[i]);
            EXPECT_EQ(basis.recombine(residues), v)
                << "k=" << basis.size() << " v=" << v.toDecimalString();
            // Residues >= p_i are read mod p_i: lift each to its
            // largest representative below 2^64.
            for (std::size_t i = 0; i < residues.size(); ++i) {
                const std::uint64_t p = basis.primes()[i];
                residues[i] += (~0ULL - residues[i]) / p * p;
            }
            EXPECT_EQ(basis.recombine(residues), v)
                << "k=" << basis.size() << " lifted v="
                << v.toDecimalString();
        }
    }
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
    using Coeff = WideInt<N>;
    const auto params = standardParams<N>().withDegree(32);
    RingContext<N> ring(params.n, params.q);
    const SchoolbookConvolver<N> ref(ring);
    const RnsNttConvolver<N> fast(ring);
    const auto check = [&](const Polynomial<N> &a, const Polynomial<N> &b,
                           const std::string &what) {
        const auto r1 = ref.convolveCentered(a, b);
        const auto r2 = fast.convolveCentered(a, b);
        ASSERT_EQ(r1.size(), r2.size());
        for (std::size_t i = 0; i < r1.size(); ++i)
            EXPECT_EQ(r1[i], r2[i]) << "coeff " << i << " " << what;
    };
    Rng rng(kSeed + 21 + N);
    for (int it = 0; it < 10; ++it)
        check(ring.sampleUniform(rng), ring.sampleUniform(rng),
              "iter " + std::to_string(it));

    // Edge values: 0, 1, the largest positive lift floor(q/2), the
    // most negative floor(q/2) + 1, and q - 1 (= -1).
    const Coeff q = ring.modulus();
    const Coeff half = q.shr(1);
    const Coeff edges[] = {Coeff(), Coeff(1ULL), half, half + Coeff(1ULL),
                           q - Coeff(1ULL)};
    Polynomial<N> cycling(params.n), shifted(params.n);
    for (std::size_t i = 0; i < params.n; ++i) {
        cycling[i] = edges[i % 5];
        shifted[i] = edges[(3 * i + 1) % 5];
    }
    const auto uniform = ring.sampleUniform(rng);
    check(cycling, shifted, "cycling x shifted");
    check(cycling, uniform, "cycling x uniform");
    for (const Coeff &e : edges) {
        const Polynomial<N> constant(std::vector<Coeff>(params.n, e));
        check(constant, constant, "constant " + e.toDecimalString());
        check(constant, cycling, "constant x cycling");
    }
}

TYPED_TEST(RnsConvWidths, RnsMultiplierMatchesSchoolbookModQ)
{
    // The RNS+NTT product reduced mod q: mulModQ with the engine
    // installed.
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvContext<N> ctx(standardParams<N>().withDegree(64));
    ctx.setConvolver(std::make_unique<RnsNttConvolver<N>>(ctx.ring()));
    const auto &ring = ctx.ring();
    Rng rng(kSeed + 33 + N);
    for (int it = 0; it < 5; ++it) {
        const auto a = ring.sampleUniform(rng);
        const auto b = ring.sampleUniform(rng);
        EXPECT_EQ(ctx.mulModQ(a, b), ring.mulSchoolbook(a, b))
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
    BfvContext<2> ctx(standardParams<2>().withDegree(64));
    ctx.setConvolver(std::make_unique<RnsNttConvolver<2>>(ctx.ring()));
    Rng rng(kSeed + 35);
    const auto full = ctx.ring().sampleUniform(rng);
    EXPECT_DEATH(ctx.mulModQ(Polynomial<2>(32), full),
                 "convolution operand a has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(ctx.mulModQ(full, Polynomial<2>(128)),
                 "convolution operand b has 128 coefficients, not the "
                 "ring degree 64");
}

TEST(RnsConv, FullDegreeSpotCheck)
{
    // One full-size (n = 4096, 109-bit q) product through the NTT
    // engine: a uniform operand times a sparse one carrying edge
    // values, every coefficient checked against a direct O(8n)
    // negacyclic sum of the centred lifts.
    const auto params = standardParams<4>();
    const std::size_t n = params.n;
    RingContext<4> ring(n, params.q);
    const RnsNttConvolver<4> fast(ring);
    Rng rng(kSeed + 55);
    const auto a = ring.sampleUniform(rng);
    const U128 q = ring.modulus();
    const U128 half = q.shr(1);
    Polynomial<4> sparse(n);
    const std::pair<std::size_t, U128> terms[] = {
        {0, U128(1ULL)},        {1, q - U128(1ULL)},
        {2, half},              {3, half + U128(1ULL)},
        {n / 2 - 1, half},      {n / 2, q - U128(1ULL)},
        {n - 2, half + U128(1ULL)}, {n - 1, half}};
    for (const auto &[j, v] : terms)
        sparse[j] = v;

    const auto lift = [&](const U128 &c) {
        const auto [mag, neg] = ring.toCentered(c);
        return signed256::fromSignMagnitude(mag.convert<8>(), neg);
    };
    std::vector<U256> expect(n);
    for (const auto &[j, v] : terms) {
        const U256 lb = lift(v);
        for (std::size_t i = 0; i < n; ++i) {
            const U256 prod = lift(a[i]) * lb;
            if (i + j < n)
                expect[i + j] += prod;
            else
                expect[i + j - n] -= prod;
        }
    }
    const auto conv = fast.convolveCentered(a, sparse);
    ASSERT_EQ(conv.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(conv[i], expect[i]) << "coeff " << i;
}

// ---------------------------------------------------------------------
// NttResidentProducts: the client's products on the smaller basis.
// ---------------------------------------------------------------------

/** u's coefficients mod q, as sampleTernary would map them. */
template <std::size_t N>
Polynomial<N>
ternaryPolynomial(const RingContext<N> &ring,
                  const std::vector<std::int8_t> &u)
{
    Polynomial<N> p(u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
        p[i] = ring.centeredToModQ(u[i]);
    return p;
}

/**
 * The extreme products at degree n: a fixed polynomial of all
 * floor(q/2) (the largest centred magnitude) or all floor(q/2) + 1
 * (the most negative) against u all +1, all -1 and alternating; and
 * c2 * s^2 formed as two products, ((c2 * s) mod q) * s, with s all
 * +1 or all -1.
 */
template <std::size_t N>
void
expectResidentProductsExact(std::size_t n)
{
    SCOPED_TRACE("n " + std::to_string(n));
    const RingContext<N> ring(n, standardParams<N>().q);
    const WideInt<N> half = ring.modulus().shr(1);
    const std::vector<Polynomial<N>> extremes = {
        Polynomial<N>(std::vector<WideInt<N>>(n, half)),
        Polynomial<N>(std::vector<WideInt<N>>(n, half + WideInt<N>(1ULL)))};
    std::vector<std::int8_t> alternating(n);
    for (std::size_t i = 0; i < n; ++i)
        alternating[i] = i % 2 == 0 ? 1 : -1;
    const std::vector<std::vector<std::int8_t>> us = {
        std::vector<std::int8_t>(n, 1), std::vector<std::int8_t>(n, -1),
        alternating};

    for (std::size_t e = 0; e < extremes.size(); ++e) {
        NttResidentProducts<N> key(ring);
        const std::size_t j = key.prepare(extremes[e], "p0");
        for (std::size_t k = 0; k < us.size(); ++k)
            EXPECT_EQ(key.multiply(key.transformTernary(us[k]), j),
                      ring.mulSchoolbook(extremes[e],
                                         ternaryPolynomial(ring, us[k])))
                << "fixed " << e << ", u " << k;
    }
    for (const int sign : {1, -1}) {
        const auto s = ternaryPolynomial(
            ring,
            std::vector<std::int8_t>(n, static_cast<std::int8_t>(sign)));
        NttResidentProducts<N> secret(ring);
        const std::size_t j = secret.prepare(s, "s");
        for (std::size_t e = 0; e < extremes.size(); ++e) {
            const auto cs = secret.multiply(
                secret.transform(extremes[e], "c2"), j);
            EXPECT_EQ(cs, ring.mulSchoolbook(extremes[e], s))
                << "s " << sign << ", c " << e;
            EXPECT_EQ(secret.multiply(secret.transform(cs, "c2 s"), j),
                      ring.mulSchoolbook(cs, s))
                << "s " << sign << ", c " << e;
        }
    }
}

TYPED_TEST(RnsConvWidths, ResidentProductsExactAtTheBasisBound)
{
    // Every width at n = 64, and the 54-bit modulus where the bound
    // is tightest: at n = 256 one prime's P is barely above
    // 2 * n * floor(q/2), and at n = 512 a basis sized for half that
    // bound would be a prime short.
    constexpr std::size_t N = TypeParam::numLimbs;
    expectResidentProductsExact<N>(64);
    if (N == 2) {
        expectResidentProductsExact<N>(256);
        expectResidentProductsExact<N>(512);
    }
}

TYPED_TEST(RnsConvWidths, ResidentRecombinationCentresAtHalfTheBasis)
{
    // recombineModQ reads a value above floor(P/2) as itself minus P:
    // 0, floor(P/2), floor(P/2) + 1 and P - 1 on either side of the
    // sign boundary, against 256-bit arithmetic.
    constexpr std::size_t N = TypeParam::numLimbs;
    const RingContext<N> ring(64, standardParams<N>().q);
    const NttResidentProducts<N> core(ring);
    const RnsBasis &basis = core.basis();
    const U256 &P = basis.product();
    const U256 q = ring.modulus().template convert<8>();
    const U256 half = P.shr(1);
    const U256 one(1ULL);
    const std::pair<U256, U256> cases[] = {
        {U256(), U256()},
        {half, mod(half, q)},
        {half + one, q - mod(P - half - one, q)},
        {P - one, q - one}};
    for (const auto &[x, want] : cases) {
        const auto got = core.recombineModQ(basis.decompose(x));
        EXPECT_EQ(U256(static_cast<std::uint64_t>(got)) +
                      U256(static_cast<std::uint64_t>(got >> 64))
                          .shl(64),
                  want)
            << x.toHexString();
    }
}

/**
 * The client's basis at degree n of the standard N-limb modulus is
 * the fewest 62-bit NTT primes whose product P exceeds
 * 2 * n * floor(q/2): without its last prime it would not. Returns
 * its size.
 */
template <std::size_t N>
std::size_t
expectFewestResidentPrimes(std::size_t n)
{
    const RingContext<N> ring(n, standardParams<N>().q);
    const NttResidentProducts<N> core(ring);
    const RnsBasis &basis = core.basis();
    const U256 bound =
        U256(2ULL * n) * ring.modulus().shr(1).template convert<8>();
    U256 without_last(1ULL);
    for (std::size_t i = 0; i + 1 < basis.size(); ++i)
        without_last = without_last * U256(basis.primes()[i]);
    EXPECT_GT(basis.product(), bound) << "N " << N << ", n " << n;
    EXPECT_LE(without_last, bound) << "N " << N << ", n " << n;
    for (const std::uint64_t p : basis.primes())
        EXPECT_TRUE(p > (1ULL << 61) && p < (1ULL << 62)) << p;
    return basis.size();
}

TEST(RnsConv, ResidentBasisIsTheFewestPrimes)
{
    for (std::size_t n = 16; n <= 32768; n *= 2) {
        expectFewestResidentPrimes<1>(n);
        expectFewestResidentPrimes<2>(n);
        expectFewestResidentPrimes<4>(n);
    }
    // The standard degrees.
    EXPECT_EQ(expectFewestResidentPrimes<1>(1024), 1u);
    EXPECT_EQ(expectFewestResidentPrimes<2>(2048), 2u);
    EXPECT_EQ(expectFewestResidentPrimes<4>(4096), 2u);
}

TEST(RnsConv, ResidentProductsMatchTheConvolverAtFullDegree)
{
    // n = 4096 at 109-bit q: the two-prime basis against the
    // four-prime convolver, on encryption's p * u and decryption's
    // c * s and ((c * s) mod q) * s.
    BfvContext<4> ctx(standardParams<4>());
    ctx.setConvolver(std::make_unique<RnsNttConvolver<4>>(ctx.ring()));
    const auto &ring = ctx.ring();
    const std::size_t n = ring.degree();
    Rng rng(kSeed + 56);
    const auto p = ring.sampleUniform(rng);
    std::vector<std::int8_t> u(n);
    for (auto &x : u)
        x = static_cast<std::int8_t>(rng.ternary());
    const auto s = ring.sampleTernary(rng);
    const auto c = ring.sampleUniform(rng);

    NttResidentProducts<4> key(ring);
    EXPECT_EQ(key.basis().size(), 2u);
    const std::size_t jp = key.prepare(p, "p0");
    EXPECT_EQ(key.multiply(key.transformTernary(u), jp),
              ctx.mulModQ(p, ternaryPolynomial(ring, u)));

    NttResidentProducts<4> secret(ring);
    const std::size_t js = secret.prepare(s, "s");
    const auto cs = ctx.mulModQ(c, s);
    EXPECT_EQ(secret.multiply(secret.transform(c, "c1"), js), cs);
    EXPECT_EQ(secret.multiply(secret.transform(cs, "c2 s"), js),
              ctx.mulModQ(cs, s));
}

TEST(RnsConv, ResidentProductsOnThreePrimesMatchTheConvolver)
{
    // n = 32768 at 109-bit q takes a third prime, so Garner's digits
    // run two steps and the sum is reduced before its third term: the
    // extreme fixed polynomial and a uniform one against u all +1 and
    // alternating, against the convolver.
    BfvContext<4> ctx(standardParams<4>().withDegree(32768));
    ctx.setConvolver(std::make_unique<RnsNttConvolver<4>>(ctx.ring()));
    const auto &ring = ctx.ring();
    const std::size_t n = ring.degree();
    Rng rng(kSeed + 58);
    const std::vector<Polynomial<4>> fixed = {
        Polynomial<4>(std::vector<U128>(n, ring.modulus().shr(1))),
        ring.sampleUniform(rng)};
    std::vector<std::int8_t> alternating(n);
    for (std::size_t i = 0; i < n; ++i)
        alternating[i] = i % 2 == 0 ? 1 : -1;
    NttResidentProducts<4> key(ring);
    ASSERT_EQ(key.basis().size(), 3u);
    for (std::size_t f = 0; f < fixed.size(); ++f) {
        const std::size_t j = key.prepare(fixed[f], "p0");
        for (const auto &u : {std::vector<std::int8_t>(n, 1), alternating})
            EXPECT_EQ(key.multiply(key.transformTernary(u), j),
                      ctx.mulModQ(fixed[f], ternaryPolynomial(ring, u)))
                << "fixed " << f;
    }
}

TEST(RnsConv, ResidentProductsRejectWhatTheBoundDoesNotCover)
{
    // Two reduced operands can exceed the basis; so can a coefficient
    // at or above q.
    const auto params = standardParams<2>().withDegree(64);
    const RingContext<2> ring(params.n, params.q);
    Rng rng(kSeed + 57);
    const auto a = ring.sampleUniform(rng);
    NttResidentProducts<2> key(ring);
    const std::size_t j = key.prepare(a, "p0");
    EXPECT_DEATH(key.multiply(key.transform(a, "c1"), j),
                 "product of a reduced operand and a reduced factor "
                 "exceeds the basis bound");
    auto wide = a;
    wide[7] = ring.modulus();
    EXPECT_DEATH(key.prepare(wide, "p1"),
                 "operand p1 coefficient 7 is not below q");
    EXPECT_DEATH(key.transform(Polynomial<2>(32), "c2"),
                 "convolution operand c2 has 32 coefficients, not the "
                 "ring degree 64");
}

} // namespace
} // namespace pimhe
