/**
 * @file
 * End-to-end tests of the BFV scheme: key generation, encryption,
 * homomorphic evaluation, relinearisation and noise tracking.
 */

#include <gtest/gtest.h>

#include "ntt/rns.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;

template <typename T>
class BfvWidths : public ::testing::Test
{
};

using BfvTypes = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(BfvWidths, BfvTypes);

TYPED_TEST(BfvWidths, EncryptDecryptRoundTrip)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    for (std::uint64_t v = 0; v < h.params.t; v += 1 + h.params.t / 13)
        EXPECT_EQ(h.decryptScalar(h.encryptScalar(v)), v) << "v=" << v;
}

TYPED_TEST(BfvWidths, FreshCiphertextHasPositiveNoiseBudget)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    const auto pt = h.encoder.encodeScalar(5);
    const auto ct = h.enc.encrypt(pt);
    EXPECT_GT(h.dec.noiseBudgetBits(ct, pt), 5.0);
}

TYPED_TEST(BfvWidths, HomomorphicAddition)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    Rng vals(kSeed);
    for (int it = 0; it < 20; ++it) {
        const std::uint64_t a = vals.uniform(h.params.t);
        const std::uint64_t b = vals.uniform(h.params.t);
        const auto ct =
            h.eval.add(h.encryptScalar(a), h.encryptScalar(b));
        EXPECT_EQ(h.decryptScalar(ct), (a + b) % h.params.t);
    }
}

TYPED_TEST(BfvWidths, HomomorphicMultiplication)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    Rng vals(kSeed + 2);
    for (int it = 0; it < 10; ++it) {
        const std::uint64_t a = vals.uniform(h.params.t);
        const std::uint64_t b = vals.uniform(h.params.t);
        const auto ct =
            h.eval.multiply(h.encryptScalar(a), h.encryptScalar(b));
        EXPECT_EQ(ct.size(), 3u);
        EXPECT_EQ(h.decryptScalar(ct), (a * b) % h.params.t)
            << a << " * " << b;
    }
}

TYPED_TEST(BfvWidths, SquareMatchesMultiply)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    const auto ct = h.encryptScalar(7);
    const auto sq = h.eval.square(ct);
    const auto mu = h.eval.multiply(ct, ct);
    ASSERT_EQ(sq.size(), mu.size());
    for (std::size_t i = 0; i < sq.size(); ++i)
        EXPECT_TRUE(sq[i] == mu[i]) << "component " << i;
}

TYPED_TEST(BfvWidths, Relinearization)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    const auto rlk = h.keygen.makeRelinKey();
    const auto prod =
        h.eval.multiply(h.encryptScalar(6), h.encryptScalar(7));
    const auto rel = h.eval.relinearize(prod, rlk);
    EXPECT_EQ(rel.size(), 2u);
    EXPECT_EQ(h.decryptScalar(rel), (6 * 7) % h.params.t);
}

TYPED_TEST(BfvWidths, AdditionChainPreservesCorrectness)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    // Summing many fresh ciphertexts models the arithmetic-mean
    // aggregation; noise grows additively and must stay decodable.
    auto acc = h.encryptScalar(1);
    std::uint64_t expect = 1;
    for (int i = 0; i < 40; ++i) {
        acc = h.eval.add(acc, h.encryptScalar(i % 5));
        expect = (expect + i % 5) % h.params.t;
    }
    EXPECT_EQ(h.decryptScalar(acc), expect);
}

TYPED_TEST(BfvWidths, BatchEncodingSimdAddition)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    std::vector<std::uint64_t> va, vb;
    Rng vals(kSeed + 4);
    for (std::size_t i = 0; i < h.params.n; ++i) {
        va.push_back(vals.uniform(h.params.t));
        vb.push_back(vals.uniform(h.params.t));
    }
    const auto ct = h.eval.add(h.enc.encrypt(h.encoder.encodeBatch(va)),
                               h.enc.encrypt(h.encoder.encodeBatch(vb)));
    const auto out = h.encoder.decodeBatch(h.dec.decrypt(ct),
                                           h.params.n);
    for (std::size_t i = 0; i < h.params.n; ++i)
        EXPECT_EQ(out[i], (va[i] + vb[i]) % h.params.t) << "slot " << i;
}

TYPED_TEST(BfvWidths, NoiseBudgetShrinksWithWork)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    const auto pt = h.encoder.encodeScalar(2);
    const auto fresh = h.enc.encrypt(pt);
    const double fresh_budget = h.dec.noiseBudgetBits(fresh, pt);

    const auto pt4 = h.encoder.encodeScalar(4);
    const auto prod = h.eval.multiply(fresh, fresh);
    const double mul_budget = h.dec.noiseBudgetBits(prod, pt4);
    EXPECT_LT(mul_budget, fresh_budget)
        << "multiplication must consume noise budget";
}

TYPED_TEST(BfvWidths, MulPlainScalar)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h;
    const auto ct = h.eval.mulPlain(h.encryptScalar(6),
                                    h.encoder.encodeScalar(2));
    EXPECT_EQ(ct.size(), 2u) << "no tensor product for plain mult";
    EXPECT_EQ(h.decryptScalar(ct), 12 % h.params.t);
}

TEST(Bfv, MulPlainPolynomial)
{
    // Multiplying by the plaintext polynomial x shifts batch slots
    // negacyclically, matching the ring behaviour.
    BfvHarness<4> h;
    std::vector<std::uint64_t> vals(h.params.n, 0);
    vals[0] = 3;
    vals[1] = 9;
    const auto ct = h.enc.encrypt(h.encoder.encodeBatch(vals));
    Plaintext x(h.params.n);
    x.coeffs[1] = 1;
    const auto shifted = h.eval.mulPlain(ct, x);
    const auto out =
        h.encoder.decodeBatch(h.dec.decrypt(shifted), h.params.n);
    EXPECT_EQ(out[1], 3u);
    EXPECT_EQ(out[2], 9u);
    EXPECT_EQ(out[0], 0u);
}

TEST(Bfv, MulPlainCheaperNoiseThanCtMult)
{
    BfvHarness<4> h;
    const auto pt2 = h.encoder.encodeScalar(2);
    const auto ct = h.encryptScalar(6);
    const auto plain_prod = h.eval.mulPlain(ct, pt2);
    const auto ct_prod = h.eval.multiply(ct, h.encryptScalar(2));
    const auto expect = h.encoder.encodeScalar(12);
    EXPECT_GT(h.dec.noiseBudgetBits(plain_prod, expect),
              h.dec.noiseBudgetBits(ct_prod, expect));
}

// ----- width-specific behaviours -----

TEST(Bfv, DeepMultiplicationChain128Bit)
{
    // The 109-bit modulus sustains several multiplicative levels.
    BfvHarness<4> h(16);
    const auto rlk = h.keygen.makeRelinKey();
    auto ct = h.encryptScalar(3);
    std::uint64_t expect = 3;
    for (int level = 0; level < 2; ++level) {
        ct = h.eval.relinearize(h.eval.multiply(ct, ct), rlk);
        expect = (expect * expect) % h.params.t;
        EXPECT_EQ(h.decryptScalar(ct), expect)
            << "level " << level;
    }
}

TEST(Bfv, MultiplyRelinHelper)
{
    BfvHarness<2> h;
    const auto rlk = h.keygen.makeRelinKey();
    const auto ct = h.eval.multiplyRelin(h.encryptScalar(11),
                                         h.encryptScalar(13), rlk);
    EXPECT_EQ(ct.size(), 2u);
    EXPECT_EQ(h.decryptScalar(ct), (11 * 13) % h.params.t);
}

TEST(Bfv, NttConvolverGivesBitIdenticalCiphertexts)
{
    // Engine substitution must not change a single bit: run the same
    // multiplication with schoolbook and RNS+NTT convolvers.
    BfvHarness<4> h(32, kSeed + 100);
    const auto a = h.encryptScalar(9);
    const auto b = h.encryptScalar(5);
    const auto slow = h.eval.multiply(a, b);
    h.ctx.setConvolver(
        std::make_unique<RnsNttConvolver<4>>(h.ctx.ring()));
    const auto fast = h.eval.multiply(a, b);
    ASSERT_EQ(slow.size(), fast.size());
    for (std::size_t i = 0; i < slow.size(); ++i)
        EXPECT_TRUE(slow[i] == fast[i]) << "component " << i;
}

/** FNV-1a over every limb of every component, low byte first. */
template <std::size_t N>
std::uint64_t
ciphertextDigest(const Ciphertext<N> &ct)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t c = 0; c < ct.size(); ++c)
        for (std::size_t i = 0; i < ct[c].size(); ++i)
            for (std::size_t l = 0; l < N; ++l)
                for (int byte = 0; byte < 4; ++byte) {
                    h ^= (ct[c][i].limb(l) >> (8 * byte)) & 0xFFu;
                    h *= 0x100000001b3ULL;
                }
    return h;
}

/**
 * Keygen and one encryption of a fixed plaintext at a fixed seed,
 * digested, then decrypted.
 */
template <std::size_t N>
std::uint64_t
pinnedEncryptionDigest(std::size_t n, bool rns_ntt)
{
    BfvContext<N> ctx(standardParams<N>().withDegree(n));
    if (rns_ntt)
        ctx.setConvolver(std::make_unique<RnsNttConvolver<N>>(ctx.ring()));
    Rng rng(kSeed + 200 + N);
    KeyGenerator<N> keygen(ctx, rng);
    const Encryptor<N> enc(ctx, keygen.makePublicKey(), rng);
    Plaintext pt(n);
    for (std::size_t i = 0; i < n; ++i)
        pt.coeffs[i] = (i * 7919 + 13) % ctx.plainModulus();
    const auto ct = enc.encrypt(pt);
    const Decryptor<N> dec(ctx, keygen.secretKey());
    EXPECT_EQ(dec.decrypt(ct), pt) << "N=" << N << " n=" << n;
    return ciphertextDigest(ct);
}

TEST(Bfv, EncryptionMatchesPinnedDigests)
{
    // Client encryption (keygen, samplers, Delta * m, both products)
    // must not change a bit when its arithmetic does: the benchmark's
    // shape (n = 4096, 109-bit q, RNS+NTT) and the default schoolbook
    // context at n = 64, at every width.
    EXPECT_EQ(pinnedEncryptionDigest<4>(4096, true), 0x5c3dd93db08669b1ULL);
    EXPECT_EQ(pinnedEncryptionDigest<1>(64, false), 0xb998017962cd80e9ULL);
    EXPECT_EQ(pinnedEncryptionDigest<2>(64, false), 0x5d8e7164134ff10eULL);
    EXPECT_EQ(pinnedEncryptionDigest<4>(64, false), 0xd68ffc206c51c6e6ULL);
}

/**
 * Keygen, two encryptions and their unrelinearised product at a fixed
 * seed: one digest over the decryptions of a 2- and a 3-component
 * ciphertext and their exact noise budgets against the true messages.
 */
template <std::size_t N>
std::uint64_t
pinnedDecryptionDigest(std::size_t n, bool rns_ntt)
{
    BfvContext<N> ctx(standardParams<N>().withDegree(n));
    if (rns_ntt)
        ctx.setConvolver(std::make_unique<RnsNttConvolver<N>>(ctx.ring()));
    Rng rng(kSeed + 300 + N);
    KeyGenerator<N> keygen(ctx, rng);
    const Encryptor<N> enc(ctx, keygen.makePublicKey(), rng);
    const Decryptor<N> dec(ctx, keygen.secretKey());
    const Evaluator<N> eval(ctx);
    const std::uint64_t t = ctx.plainModulus();
    Plaintext a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a.coeffs[i] = (i * 7919 + 13) % t;
        b.coeffs[i] = i % 5 == 0 ? (i * 31 + 1) % t : 0;
    }
    // The negacyclic product a * b mod t.
    Plaintext ab(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t p = a.coeffs[i] * b.coeffs[j] % t;
            std::uint64_t &c = ab.coeffs[(i + j) % n];
            c = i + j < n ? (c + p) % t : (c + t - p) % t;
        }
    const auto ca = enc.encrypt(a);
    const auto prod = eval.multiply(ca, enc.encrypt(b));
    EXPECT_EQ(dec.decrypt(ca), a) << "N=" << N << " n=" << n;
    EXPECT_EQ(dec.decrypt(prod), ab) << "N=" << N << " n=" << n;

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xFFu;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &ct : {ca, prod})
        for (const std::uint64_t m : dec.decrypt(ct).coeffs)
            mix(m);
    mix(static_cast<std::uint64_t>(dec.noiseBudgetBitsExact(ca, a)));
    mix(static_cast<std::uint64_t>(dec.noiseBudgetBitsExact(prod, ab)));
    return h;
}

TEST(Bfv, DecryptionMatchesPinnedDigests)
{
    // Client decryption (the scale-and-round and the exact noise
    // budget, of fresh and of 3-component ciphertexts) must not change
    // a bit when its arithmetic does, at the benchmark's shape and at
    // n = 64 at every width.
    EXPECT_EQ(pinnedDecryptionDigest<4>(4096, true), 0x309478ee321c8ccfULL);
    EXPECT_EQ(pinnedDecryptionDigest<1>(64, false), 0x30154f475c471202ULL);
    EXPECT_EQ(pinnedDecryptionDigest<2>(64, false), 0xade28c52a13871a9ULL);
    EXPECT_EQ(pinnedDecryptionDigest<4>(64, false), 0x6b440026d9747d43ULL);
}

TEST(Bfv, ClientCryptoRejectsOperandsOfTheWrongDegree)
{
    // A degree-32 key or ciphertext in a degree-64 context, as
    // deserialization can produce: the NTT-resident products must
    // reject it rather than transform whatever lies past its
    // coefficients.
    BfvHarness<2> h(64);
    BfvHarness<2> small(32);
    EXPECT_DEATH(Encryptor<2>(h.ctx, small.pk, h.rng),
                 "convolution operand p0 has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(Encryptor<2>(h.ctx, PublicKey<2>{h.pk.p0, small.pk.p1},
                              h.rng),
                 "convolution operand p1 has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(Decryptor<2>(h.ctx, small.keygen.secretKey()),
                 "convolution operand s has 32 coefficients, not the "
                 "ring degree 64");
    EXPECT_DEATH(h.dec.decrypt(small.encryptScalar(3)),
                 "convolution operand c1 has 32 coefficients, not the "
                 "ring degree 64");
    auto product = h.eval.multiply(h.encryptScalar(2), h.encryptScalar(3));
    product.comps[2] = small.encryptScalar(4)[0];
    EXPECT_DEATH(h.dec.decrypt(product),
                 "convolution operand c2 has 32 coefficients, not the "
                 "ring degree 64");
}

TEST(Bfv, FullDegreeRoundTripAllLevels)
{
    // Full paper-scale ring degrees with the fast convolver: encrypt,
    // add, multiply, decrypt at n = 1024 / 2048 / 4096.
    {
        BfvHarness<1> h(standardParams<1>().n);
        h.ctx.setConvolver(
            std::make_unique<RnsNttConvolver<1>>(h.ctx.ring()));
        EXPECT_EQ(h.decryptScalar(
                      h.eval.add(h.encryptScalar(3), h.encryptScalar(4))),
                  7u);
    }
    {
        BfvHarness<2> h(standardParams<2>().n);
        h.ctx.setConvolver(
            std::make_unique<RnsNttConvolver<2>>(h.ctx.ring()));
        EXPECT_EQ(h.decryptScalar(h.eval.multiply(
                      h.encryptScalar(14), h.encryptScalar(9))),
                  (14 * 9) % h.params.t);
    }
    {
        BfvHarness<4> h(standardParams<4>().n);
        h.ctx.setConvolver(
            std::make_unique<RnsNttConvolver<4>>(h.ctx.ring()));
        EXPECT_EQ(h.decryptScalar(h.eval.multiply(
                      h.encryptScalar(251), h.encryptScalar(197))),
                  (251 * 197) % h.params.t);
    }
}

TEST(Bfv, ParamsValidation)
{
    BfvParams<4> bad = standardParams<4>();
    bad.n = 12;
    EXPECT_DEATH(bad.validate(), "power of two");
    bad = standardParams<4>();
    bad.t = 1;
    EXPECT_DEATH(bad.validate(), "too small");
    // Below q, but outside decryption's rounding window.
    bad.t = 1ULL << 62;
    EXPECT_DEATH(bad.validate(), "plaintext modulus must be below 2\\^62");
}

TEST(Bfv, DeltaIsFloorQOverT)
{
    const auto p = standardParams<4>();
    const auto delta = p.delta();
    const auto back = delta.mulFull(U128(p.t)).convert<4>();
    EXPECT_LE(back, p.q);
    EXPECT_GT(back + U128(p.t), p.q);
}

TEST(Bfv, EncoderSignedDecode)
{
    IntegerEncoder enc(257, 16);
    EXPECT_EQ(enc.toSigned(256), -1);
    EXPECT_EQ(enc.toSigned(1), 1);
    EXPECT_EQ(enc.toSigned(128), 128);
    EXPECT_EQ(enc.toSigned(129), -128);
}

TEST(Bfv, LevelMetadata)
{
    EXPECT_EQ(limbsFor(SecurityLevel::Bits27), 1u);
    EXPECT_EQ(limbsFor(SecurityLevel::Bits54), 2u);
    EXPECT_EQ(limbsFor(SecurityLevel::Bits109), 4u);
    EXPECT_NE(levelName(SecurityLevel::Bits109).find("4096"),
              std::string::npos);
}

} // namespace
} // namespace pimhe
