/**
 * @file
 * Serialisation round trips and malformed-input rejection for every
 * BFV wire object, plus semantic checks (deserialised objects keep
 * working: a reloaded key still decrypts, a reloaded ciphertext still
 * evaluates).
 */

#include <gtest/gtest.h>

#include "bfv/serialize.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;

template <typename T>
class SerializeWidths : public ::testing::Test
{
};

using SWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(SerializeWidths, SWidths);

TYPED_TEST(SerializeWidths, CiphertextRoundTrip)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    const auto ct = h.encryptScalar(13);
    const auto bytes = serialize(ct);
    const auto back = deserializeCiphertext<N>(bytes);
    ASSERT_EQ(back.size(), ct.size());
    for (std::size_t c = 0; c < ct.size(); ++c)
        EXPECT_TRUE(back[c] == ct[c]);
    EXPECT_EQ(h.decryptScalar(back), 13u);
}

TYPED_TEST(SerializeWidths, ThreeComponentCiphertext)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);
    const auto prod =
        h.eval.multiply(h.encryptScalar(3), h.encryptScalar(5));
    const auto back = deserializeCiphertext<N>(serialize(prod));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(h.decryptScalar(back), 15 % h.params.t);
}

TYPED_TEST(SerializeWidths, KeysRoundTripAndStillWork)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(16);

    const auto sk2 =
        deserializeSecretKey<N>(serialize(h.keygen.secretKey()));
    Decryptor<N> dec2(h.ctx, sk2);
    const auto ct = h.encryptScalar(9);
    EXPECT_EQ(h.encoder.decodeScalar(dec2.decrypt(ct)), 9u);

    const auto pk2 = deserializePublicKey<N>(serialize(h.pk));
    Encryptor<N> enc2(h.ctx, pk2, h.rng);
    const auto ct2 = enc2.encrypt(h.encoder.encodeScalar(4));
    EXPECT_EQ(h.decryptScalar(ct2), 4u);

    const auto rlk = h.keygen.makeRelinKey();
    const auto rlk2 = deserializeRelinKey<N>(serialize(rlk));
    EXPECT_EQ(rlk2.baseBits, rlk.baseBits);
    ASSERT_EQ(rlk2.digits.size(), rlk.digits.size());
    const auto rel = h.eval.relinearize(
        h.eval.multiply(h.encryptScalar(6), h.encryptScalar(7)), rlk2);
    EXPECT_EQ(h.decryptScalar(rel), 42 % h.params.t);
}

TEST(Serialize, PlaintextRoundTrip)
{
    Plaintext pt(8);
    for (std::size_t i = 0; i < 8; ++i)
        pt.coeffs[i] = 1000 * i + 7;
    EXPECT_EQ(deserializePlaintext(serialize(pt)), pt);
}

TEST(Serialize, RejectsBadMagic)
{
    BfvHarness<4> h(16);
    auto bytes = serialize(h.encryptScalar(1));
    bytes[0] ^= 0xFF;
    EXPECT_DEATH(deserializeCiphertext<4>(bytes), "bad magic");
}

TEST(Serialize, RejectsWrongWidth)
{
    BfvHarness<2> h(16);
    const auto bytes = serialize(h.encryptScalar(1));
    EXPECT_DEATH(deserializeCiphertext<4>(bytes), "width mismatch");
}

TEST(Serialize, RejectsWrongTag)
{
    BfvHarness<4> h(16);
    const auto bytes = serialize(h.pk);
    EXPECT_DEATH(deserializeCiphertext<4>(bytes), "unexpected object");
}

TEST(Serialize, RejectsTruncation)
{
    BfvHarness<4> h(16);
    auto bytes = serialize(h.encryptScalar(1));
    bytes.resize(bytes.size() / 2);
    EXPECT_DEATH(deserializeCiphertext<4>(bytes), "truncated stream");
}

TEST(Serialize, RejectsTrailingGarbage)
{
    BfvHarness<4> h(16);
    auto bytes = serialize(h.encryptScalar(1));
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    EXPECT_DEATH(deserializeCiphertext<4>(bytes), "trailing bytes");
}

TEST(Serialize, RejectsAbsurdDegree)
{
    ByteWriter w;
    w.writeU32(0x50494D48);
    w.writeU32(1);
    w.writeU32(1); // ciphertext tag
    w.writeU32(4); // limbs
    w.writeU32(2); // components
    w.writeU64(std::uint64_t(1) << 40); // absurd degree
    const auto bytes = w.take();
    EXPECT_DEATH(deserializeCiphertext<4>(bytes),
                 "implausible polynomial degree");
}

TEST(Serialize, RejectsClaimLargerThanInputBeforeAllocating)
{
    // A 40-byte ciphertext whose header claims the largest degree any
    // header may (2^20 coefficients, 16 MB at 4 limbs).
    ByteWriter w;
    w.writeU32(0x50494D48);
    w.writeU32(1);
    w.writeU32(1); // ciphertext tag
    w.writeU32(4); // limbs
    w.writeU32(2); // components
    w.writeU64(std::uint64_t(1) << 20);
    w.writeU32(7); // three limbs of a first coefficient, then nothing
    w.writeU32(7);
    w.writeU32(7);
    const auto ct = w.take();
    ASSERT_EQ(ct.size(), 40u);
    EXPECT_DEATH(deserializeCiphertext<4>(ct),
                 "claims 1048576 coefficients of 16 bytes but only 12 "
                 "bytes remain");

    ByteWriter p;
    p.writeU32(0x50494D48);
    p.writeU32(1);
    p.writeU32(2); // plaintext tag
    p.writeU32(0);
    p.writeU64(std::uint64_t(1) << 20);
    const auto pt = p.take();
    EXPECT_DEATH(deserializePlaintext(pt),
                 "claims 1048576 coefficients of 8 bytes but only 0 "
                 "bytes remain");
}

TEST(Serialize, RejectsMixedDegreesWithinOneObject)
{
    // The wire format carries a degree per polynomial, so a stream can
    // mix them; the reader requires one degree per object.
    BfvHarness<2> h(16);
    Ciphertext<2> ct = h.encryptScalar(1);
    ct.comps[1] = Polynomial<2>(8);
    EXPECT_DEATH(deserializeCiphertext<2>(serialize(ct)),
                 "ciphertext component 1 has 8 coefficients, not the "
                 "16 of the first");

    PublicKey<2> pk = h.pk;
    pk.p1 = Polynomial<2>(8);
    EXPECT_DEATH(deserializePublicKey<2>(serialize(pk)),
                 "public key polynomial 1 has 8 coefficients, not the "
                 "16 of the first");

    RelinKey<2> rlk = h.keygen.makeRelinKey();
    rlk.digits.back().second = Polynomial<2>(8);
    const std::string last = std::to_string(rlk.digits.size() - 1);
    EXPECT_DEATH(deserializeRelinKey<2>(serialize(rlk)),
                 "relin key digit " + last +
                     " has 8 coefficients, not the 16 of the first");
}

TEST(Serialize, WireSizeIsCompact)
{
    // 2 components x n coefficients x N limbs x 4 bytes + headers.
    BfvHarness<4> h(16);
    const auto bytes = serialize(h.encryptScalar(1));
    const std::size_t payload = 2 * 16 * 4 * 4;
    EXPECT_LE(bytes.size(), payload + 64);
}

TEST(ByteStream, PrimitivesRoundTrip)
{
    ByteWriter w;
    w.writeU32(0xDEADBEEFu);
    w.writeU64(0x0123456789ABCDEFULL);
    w.writeWide(U128::oneShl(100));
    const auto bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(r.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.readU64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.readWide<4>(), U128::oneShl(100));
    EXPECT_TRUE(r.atEnd());
}

} // namespace
} // namespace pimhe
