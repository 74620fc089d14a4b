/**
 * @file
 * BFV encryption and decryption.
 *
 * In the paper's deployment model these run on the client; the server
 * (the PIM system) only ever sees ciphertexts.
 */

#ifndef PIMHE_BFV_ENCRYPTOR_H
#define PIMHE_BFV_ENCRYPTOR_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "bfv/ciphertext.h"
#include "bfv/keys.h"
#include "ntt/rns.h"

namespace pimhe {

/**
 * Public-key BFV encryptor. The public key is held in RNS-NTT form
 * (transformed once, as SEAL keeps it), so an encryption transforms
 * only u, once for both products, and then makes one pass per
 * coefficient of each component: the product's residues recombined
 * straight into [0, q), plus Delta * m or the noise, in 128-bit words.
 */
template <std::size_t N>
class Encryptor
{
  public:
    Encryptor(const BfvContext<N> &ctx, const PublicKey<N> &pk, Rng &rng)
        : ctx_(ctx), key_(ctx.ring()), rng_(rng),
          delta_(NttResidentProducts<N>::toU128(ctx.delta()))
    {
        key_.prepare(pk.p0, "p0");
        key_.prepare(pk.p1, "p1");
    }

    /**
     * Encrypt a plaintext: ct = (p0 u + e1 + Delta m, p1 u + e2).
     */
    Ciphertext<N>
    encrypt(const Plaintext &pt) const
    {
        const std::size_t n = ctx_.ring().degree();
        PIMHE_ASSERT(pt.size() == n, "plaintext degree mismatch");

        // u, e1 and e2 straight from their draws, in sampleTernary's
        // and sampleNoise's order.
        std::vector<std::int8_t> u(n);
        for (auto &x : u)
            x = static_cast<std::int8_t>(rng_.ternary());
        const int eta = ctx_.params().noiseEta;
        std::vector<int> e1(n), e2(n);
        for (auto &x : e1)
            x = rng_.centeredBinomial(eta);
        for (auto &x : e2)
            x = rng_.centeredBinomial(eta);
        const auto u_ntt = key_.transformTernary(u);

        // Delta * (m mod t) < q: one 128-bit product.
        using u128 = unsigned __int128;
        const std::uint64_t t = ctx_.plainModulus();
        std::vector<u128> c0(n), c1(n);
        for (std::size_t i = 0; i < n; ++i) {
            c0[i] = key_.addModQ(delta_ * (pt.coeffs[i] % t),
                                 key_.liftModQ(e1[i]));
            c1[i] = key_.liftModQ(e2[i]);
        }
        key_.multiplyAddModQ(u_ntt, 0, c0);
        key_.multiplyAddModQ(u_ntt, 1, c1);

        Ciphertext<N> ct;
        ct.comps.push_back(NttResidentProducts<N>::toPolynomial(c0));
        ct.comps.push_back(NttResidentProducts<N>::toPolynomial(c1));
        return ct;
    }

  private:
    const BfvContext<N> &ctx_;
    NttResidentProducts<N> key_; //!< p0 (index 0) and p1 (index 1)
    Rng &rng_;
    unsigned __int128 delta_; //!< Delta = floor(q / t)
};

/**
 * Secret-key BFV decryptor with noise introspection. The secret is
 * held in RNS-NTT form, transformed once; c0 + c1 s (+ c2 s^2) is
 * formed in 128-bit words, one pass per coefficient per product.
 */
template <std::size_t N>
class Decryptor
{
  public:
    Decryptor(const BfvContext<N> &ctx, const SecretKey<N> &sk)
        : ctx_(ctx), secret_(ctx.ring()),
          delta_(NttResidentProducts<N>::toU128(ctx.delta()))
    {
        secret_.prepare(sk.s, "s");
    }

    /**
     * Decrypt a 2- or 3-component ciphertext:
     * m = round(t/q * (c0 + c1 s + c2 s^2)) mod t.
     */
    Plaintext
    decrypt(const Ciphertext<N> &ct) const
    {
        const auto v = noisyMessage(ct);
        Plaintext pt(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            pt.coeffs[i] = secret_.scaleRound(v[i], ctx_.plainModulus());
        return pt;
    }

    /**
     * Exact invariant noise budget in bits: bits(q) - 1 - bits(e)
     * with e the centred noise magnitude, computed entirely over
     * integer bit lengths (no floating point anywhere). Negative
     * means the ciphertext is already undecryptable. This is the
     * value the static certifier's bounds are validated against.
     */
    std::int64_t
    noiseBudgetBitsExact(const Ciphertext<N> &ct,
                         const Plaintext &expected) const
    {
        const std::size_t q_bits = ctx_.ring().modulus().bitLength();
        const auto bits = [](unsigned __int128 x) {
            const auto hi = static_cast<std::uint64_t>(x >> 64);
            return hi != 0 ? 64 + std::bit_width(hi)
                           : std::bit_width(static_cast<std::uint64_t>(x));
        };
        return static_cast<std::int64_t>(q_bits) - 1 -
               static_cast<std::int64_t>(
                   bits(maxNoiseMagnitude(ct, expected)));
    }

    /**
     * Invariant noise budget in bits, as SEAL reports it. Display
     * convenience only: delegates to the exact integer path and
     * widens — never compute with this (at wide q the double
     * round-trip is what noiseBudgetBitsExact exists to avoid).
     */
    double
    noiseBudgetBits(const Ciphertext<N> &ct,
                    const Plaintext &expected) const
    {
        return static_cast<double>(noiseBudgetBitsExact(ct, expected));
    }

  private:
    /** max_i |centred(v_i - Delta*m_i)| — the noise magnitude the
     *  budget is measured from. */
    unsigned __int128
    maxNoiseMagnitude(const Ciphertext<N> &ct,
                      const Plaintext &expected) const
    {
        const auto v = noisyMessage(ct);
        const auto q = secret_.modulus();
        const std::uint64_t t = ctx_.plainModulus();
        unsigned __int128 max_mag = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
            const auto dm = delta_ * (expected.coeffs[i] % t);
            const auto diff = v[i] >= dm ? v[i] - dm : v[i] + (q - dm);
            const auto mag = diff > q / 2 ? q - diff : diff;
            max_mag = std::max(max_mag, mag);
        }
        return max_mag;
    }

    /** c0 + c1 s (+ c2 s^2, formed as ((c2 s) mod q) s) mod q. */
    std::vector<unsigned __int128>
    noisyMessage(const Ciphertext<N> &ct) const
    {
        PIMHE_ASSERT(ct.size() == 2 || ct.size() == 3,
                     "unsupported ciphertext size ", ct.size());
        const auto c1 = secret_.transform(ct[1], "c1");
        auto v = secret_.values(ct[0], "c0");
        secret_.multiplyAddModQ(c1, 0, v);
        if (ct.size() == 3) {
            const auto c2s =
                secret_.multiply(secret_.transform(ct[2], "c2"), 0);
            secret_.multiplyAddModQ(secret_.transform(c2s, "c2 s"), 0, v);
        }
        return v;
    }

    const BfvContext<N> &ctx_;
    NttResidentProducts<N> secret_; //!< s (index 0)
    unsigned __int128 delta_; //!< Delta = floor(q / t)
};

} // namespace pimhe

#endif // PIMHE_BFV_ENCRYPTOR_H
