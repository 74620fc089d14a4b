/**
 * @file
 * Binary serialisation of BFV objects.
 *
 * In the paper's deployment model ciphertexts and evaluation keys
 * cross the network between clients and the PIM server; this module
 * provides the wire format: a little-endian byte stream with a magic
 * tag, a format version and explicit dimensions, so malformed input
 * fails loudly instead of decoding garbage.
 */

#ifndef PIMHE_BFV_SERIALIZE_H
#define PIMHE_BFV_SERIALIZE_H

#include <cstring>
#include <span>
#include <vector>

#include "bfv/ciphertext.h"
#include "bfv/keys.h"

namespace pimhe {

/** Little-endian byte-stream writer. */
class ByteWriter
{
  public:
    void
    writeU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    writeU64(std::uint64_t v)
    {
        writeU32(static_cast<std::uint32_t>(v));
        writeU32(static_cast<std::uint32_t>(v >> 32));
    }

    template <std::size_t N>
    void
    writeWide(const WideInt<N> &v)
    {
        for (std::size_t i = 0; i < N; ++i)
            writeU32(v.limb(i));
    }

    template <std::size_t N>
    void
    writePoly(const Polynomial<N> &p)
    {
        writeU64(p.size());
        for (std::size_t i = 0; i < p.size(); ++i)
            writeWide(p[i]);
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian byte-stream reader. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {}

    std::uint32_t
    readU32()
    {
        PIMHE_ASSERT(pos_ + 4 <= bytes_.size(),
                     "truncated stream at offset ", pos_);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes_[pos_ + i])
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    readU64()
    {
        const std::uint64_t lo = readU32();
        const std::uint64_t hi = readU32();
        return lo | (hi << 32);
    }

    template <std::size_t N>
    WideInt<N>
    readWide()
    {
        WideInt<N> v;
        for (std::size_t i = 0; i < N; ++i)
            v.setLimb(i, readU32());
        return v;
    }

    template <std::size_t N>
    Polynomial<N>
    readPoly(std::size_t max_degree)
    {
        const std::uint64_t n = readU64();
        PIMHE_ASSERT(n >= 1 && n <= max_degree,
                     "implausible polynomial degree ", n);
        requireRemaining(n, N * 4);
        Polynomial<N> p(n);
        for (std::size_t i = 0; i < n; ++i)
            p[i] = readWide<N>();
        return p;
    }

    /** Check that `count` items of `item_bytes` each remain before
     *  allocating them, so a short input cannot claim a huge object. */
    void
    requireRemaining(std::uint64_t count, std::size_t item_bytes) const
    {
        const std::size_t left = bytes_.size() - pos_;
        PIMHE_ASSERT(count <= left / item_bytes,
                     "truncated stream: claims ", count,
                     " coefficients of ", item_bytes, " bytes but only ",
                     left, " bytes remain at offset ", pos_);
    }

    bool atEnd() const { return pos_ == bytes_.size(); }
    std::size_t position() const { return pos_; }

  private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

namespace detail {

constexpr std::uint32_t kMagic = 0x50494D48; // "PIMH"
constexpr std::uint32_t kVersion = 1;

/** Largest ring degree any header may claim. */
constexpr std::size_t kMaxDegree = 1 << 20;

enum class Tag : std::uint32_t
{
    Ciphertext = 1,
    Plaintext = 2,
    PublicKey = 3,
    SecretKey = 4,
    RelinKey = 5,
};

inline void
writeHeader(ByteWriter &w, Tag tag, std::size_t limbs)
{
    w.writeU32(kMagic);
    w.writeU32(kVersion);
    w.writeU32(static_cast<std::uint32_t>(tag));
    w.writeU32(static_cast<std::uint32_t>(limbs));
}

inline void
readHeader(ByteReader &r, Tag expected, std::size_t limbs)
{
    PIMHE_ASSERT(r.readU32() == kMagic, "bad magic");
    PIMHE_ASSERT(r.readU32() == kVersion, "unsupported version");
    PIMHE_ASSERT(r.readU32() == static_cast<std::uint32_t>(expected),
                 "unexpected object tag");
    PIMHE_ASSERT(r.readU32() == limbs, "coefficient width mismatch");
}

/** Every polynomial of one object shares its first one's degree; the
 *  wire format carries a degree per polynomial, so check it. */
template <std::size_t N>
void
requireDegree(const Polynomial<N> &p, std::size_t degree,
              const char *what, std::size_t index)
{
    PIMHE_ASSERT(p.size() == degree, what, " ", index, " has ", p.size(),
                 " coefficients, not the ", degree, " of the first");
}

} // namespace detail

/** Serialise a ciphertext (any component count). */
template <std::size_t N>
std::vector<std::uint8_t>
serialize(const Ciphertext<N> &ct)
{
    ByteWriter w;
    detail::writeHeader(w, detail::Tag::Ciphertext, N);
    w.writeU32(static_cast<std::uint32_t>(ct.size()));
    for (std::size_t c = 0; c < ct.size(); ++c)
        w.writePoly(ct[c]);
    return w.take();
}

/** Parse a ciphertext; dies on malformed input. */
template <std::size_t N>
Ciphertext<N>
deserializeCiphertext(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    detail::readHeader(r, detail::Tag::Ciphertext, N);
    const std::uint32_t comps = r.readU32();
    PIMHE_ASSERT(comps >= 2 && comps <= 8,
                 "implausible component count ", comps);
    Ciphertext<N> ct;
    for (std::uint32_t c = 0; c < comps; ++c) {
        ct.comps.push_back(
            r.template readPoly<N>(detail::kMaxDegree));
        detail::requireDegree(ct.comps.back(), ct.comps.front().size(),
                              "ciphertext component", c);
    }
    PIMHE_ASSERT(r.atEnd(), "trailing bytes after ciphertext");
    return ct;
}

/** Serialise a plaintext. */
inline std::vector<std::uint8_t>
serialize(const Plaintext &pt)
{
    ByteWriter w;
    detail::writeHeader(w, detail::Tag::Plaintext, 0);
    w.writeU64(pt.size());
    for (const auto c : pt.coeffs)
        w.writeU64(c);
    return w.take();
}

inline Plaintext
deserializePlaintext(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    detail::readHeader(r, detail::Tag::Plaintext, 0);
    const std::uint64_t n = r.readU64();
    PIMHE_ASSERT(n <= detail::kMaxDegree, "implausible degree ", n);
    r.requireRemaining(n, 8);
    Plaintext pt(n);
    for (std::size_t i = 0; i < n; ++i)
        pt.coeffs[i] = r.readU64();
    PIMHE_ASSERT(r.atEnd(), "trailing bytes after plaintext");
    return pt;
}

/** Serialise a public key. */
template <std::size_t N>
std::vector<std::uint8_t>
serialize(const PublicKey<N> &pk)
{
    ByteWriter w;
    detail::writeHeader(w, detail::Tag::PublicKey, N);
    w.writePoly(pk.p0);
    w.writePoly(pk.p1);
    return w.take();
}

template <std::size_t N>
PublicKey<N>
deserializePublicKey(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    detail::readHeader(r, detail::Tag::PublicKey, N);
    PublicKey<N> pk;
    pk.p0 = r.template readPoly<N>(detail::kMaxDegree);
    pk.p1 = r.template readPoly<N>(detail::kMaxDegree);
    detail::requireDegree(pk.p1, pk.p0.size(), "public key polynomial", 1);
    PIMHE_ASSERT(r.atEnd(), "trailing bytes after public key");
    return pk;
}

/** Serialise a secret key (client-side storage only!). */
template <std::size_t N>
std::vector<std::uint8_t>
serialize(const SecretKey<N> &sk)
{
    ByteWriter w;
    detail::writeHeader(w, detail::Tag::SecretKey, N);
    w.writePoly(sk.s);
    return w.take();
}

template <std::size_t N>
SecretKey<N>
deserializeSecretKey(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    detail::readHeader(r, detail::Tag::SecretKey, N);
    SecretKey<N> sk;
    sk.s = r.template readPoly<N>(detail::kMaxDegree);
    PIMHE_ASSERT(r.atEnd(), "trailing bytes after secret key");
    return sk;
}

/** Serialise a relinearisation key. */
template <std::size_t N>
std::vector<std::uint8_t>
serialize(const RelinKey<N> &rlk)
{
    ByteWriter w;
    detail::writeHeader(w, detail::Tag::RelinKey, N);
    w.writeU32(static_cast<std::uint32_t>(rlk.baseBits));
    w.writeU32(static_cast<std::uint32_t>(rlk.digits.size()));
    for (const auto &[b, a] : rlk.digits) {
        w.writePoly(b);
        w.writePoly(a);
    }
    return w.take();
}

template <std::size_t N>
RelinKey<N>
deserializeRelinKey(std::span<const std::uint8_t> bytes)
{
    ByteReader r(bytes);
    detail::readHeader(r, detail::Tag::RelinKey, N);
    RelinKey<N> rlk;
    rlk.baseBits = r.readU32();
    PIMHE_ASSERT(rlk.baseBits >= 1 && rlk.baseBits <= 32,
                 "implausible digit width");
    const std::uint32_t digits = r.readU32();
    PIMHE_ASSERT(digits >= 1 && digits <= 128,
                 "implausible digit count");
    for (std::uint32_t i = 0; i < digits; ++i) {
        auto b = r.template readPoly<N>(detail::kMaxDegree);
        auto a = r.template readPoly<N>(detail::kMaxDegree);
        const std::size_t degree =
            rlk.digits.empty() ? b.size() : rlk.digits.front().first.size();
        detail::requireDegree(b, degree, "relin key digit", i);
        detail::requireDegree(a, degree, "relin key digit", i);
        rlk.digits.emplace_back(std::move(b), std::move(a));
    }
    PIMHE_ASSERT(r.atEnd(), "trailing bytes after relin key");
    return rlk;
}

} // namespace pimhe

#endif // PIMHE_BFV_SERIALIZE_H
