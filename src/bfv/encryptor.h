/**
 * @file
 * BFV encryption and decryption.
 *
 * In the paper's deployment model these run on the client; the server
 * (the PIM system) only ever sees ciphertexts.
 */

#ifndef PIMHE_BFV_ENCRYPTOR_H
#define PIMHE_BFV_ENCRYPTOR_H

#include <cstdint>
#include <vector>

#include "bfv/ciphertext.h"
#include "bfv/keys.h"
#include "ntt/rns.h"

namespace pimhe {

/**
 * Public-key BFV encryptor. The public key is held in RNS-NTT form
 * (transformed once, as SEAL keeps it), so an encryption transforms
 * only u, once for both products.
 */
template <std::size_t N>
class Encryptor
{
  public:
    Encryptor(const BfvContext<N> &ctx, const PublicKey<N> &pk, Rng &rng)
        : ctx_(ctx), key_(ctx.ring()), rng_(rng)
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
        const auto &ring = ctx_.ring();
        PIMHE_ASSERT(pt.size() == ring.degree(),
                     "plaintext degree mismatch");

        // u straight from its draws, in sampleTernary's order.
        std::vector<std::int8_t> u(ring.degree());
        for (auto &x : u)
            x = static_cast<std::int8_t>(rng_.ternary());
        const auto e1 = ring.sampleNoise(rng_, ctx_.params().noiseEta);
        const auto e2 = ring.sampleNoise(rng_, ctx_.params().noiseEta);
        const auto u_ntt = key_.transformTernary(u);

        // Delta * m, coefficientwise: m < t gives Delta * m < q, so the
        // wrapping N-limb product is exact and already reduced.
        Polynomial<N> dm(ring.degree());
        for (std::size_t i = 0; i < ring.degree(); ++i) {
            dm[i] = ctx_.delta() *
                    WideInt<N>(pt.coeffs[i] % ctx_.plainModulus());
        }

        Ciphertext<N> ct;
        ct.comps.push_back(
            ring.add(ring.add(key_.multiply(u_ntt, 0), e1), dm));
        ct.comps.push_back(ring.add(key_.multiply(u_ntt, 1), e2));
        return ct;
    }

  private:
    const BfvContext<N> &ctx_;
    NttResidentProducts<N> key_; //!< p0 (index 0) and p1 (index 1)
    Rng &rng_;
};

/**
 * Secret-key BFV decryptor with noise introspection. The secret is
 * held in RNS-NTT form, transformed once.
 */
template <std::size_t N>
class Decryptor
{
  public:
    Decryptor(const BfvContext<N> &ctx, const SecretKey<N> &sk)
        : ctx_(ctx), secret_(ctx.ring())
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
        const auto &ring = ctx_.ring();
        const auto q = ring.modulus();
        const std::uint64_t t = ctx_.plainModulus();

        Plaintext pt(ring.degree());
        // For each coefficient: m = round(t * v / q) mod t, computed
        // over the integers with 2N-limb intermediates.
        using Wide = WideInt<2 * N>;
        const Wide q_wide = q.template convert<2 * N>();
        const Wide half_q = q_wide.shr(1);
        for (std::size_t i = 0; i < ring.degree(); ++i) {
            const Wide tv = v[i].mulFull(WideInt<N>(t));
            const Wide quot = divmod(tv + half_q, q_wide).first;
            // quot <= t here, so the low 64 bits hold the full value.
            pt.coeffs[i] = quot.toUint64() % t;
        }
        return pt;
    }

    /**
     * Exact invariant noise budget in bits: bits(q) - 1 - bits(e)
     * with e the centred noise magnitude, computed entirely over
     * WideInt bit lengths (no floating point anywhere). Negative
     * means the ciphertext is already undecryptable. This is the
     * value the static certifier's bounds are validated against.
     */
    std::int64_t
    noiseBudgetBitsExact(const Ciphertext<N> &ct,
                         const Plaintext &expected) const
    {
        const std::size_t q_bits = ctx_.ring().modulus().bitLength();
        const std::size_t noise_bits =
            maxNoiseMagnitude(ct, expected).bitLength();
        return static_cast<std::int64_t>(q_bits) - 1 -
               static_cast<std::int64_t>(noise_bits);
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
    WideInt<N>
    maxNoiseMagnitude(const Ciphertext<N> &ct,
                      const Plaintext &expected) const
    {
        const auto &ring = ctx_.ring();
        const auto v = noisyMessage(ct);
        WideInt<N> max_mag;
        for (std::size_t i = 0; i < ring.degree(); ++i) {
            const auto dm = ring.reducer().mulMod(
                ctx_.delta(),
                WideInt<N>(expected.coeffs[i] % ctx_.plainModulus()));
            const auto diff = ring.reducer().subMod(v[i], dm);
            const auto [mag, neg] = ring.toCentered(diff);
            (void)neg;
            if (mag > max_mag)
                max_mag = mag;
        }
        return max_mag;
    }

    /** c0 + c1 s (+ c2 s^2, formed as (c2 s) s) mod q. */
    Polynomial<N>
    noisyMessage(const Ciphertext<N> &ct) const
    {
        const auto &ring = ctx_.ring();
        PIMHE_ASSERT(ct.size() == 2 || ct.size() == 3,
                     "unsupported ciphertext size ", ct.size());
        auto v = ring.add(
            ct[0], secret_.multiply(secret_.transform(ct[1], "c1"), 0));
        if (ct.size() == 3)
            v = ring.add(v, secret_.multiply(
                                secret_.transform(ct[2], "c2"), 0, 2));
        return v;
    }

    const BfvContext<N> &ctx_;
    NttResidentProducts<N> secret_; //!< s (index 0)
};

} // namespace pimhe

#endif // PIMHE_BFV_ENCRYPTOR_H
