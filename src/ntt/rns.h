/**
 * @file
 * Residue Number System basis and exact RNS/NTT polynomial products.
 *
 * The SEAL-like baseline multiplies ciphertext polynomials by (1)
 * decomposing coefficients into residues modulo a basis of NTT-friendly
 * primes, (2) running negacyclic NTT convolutions per prime, and (3)
 * recombining with the Chinese Remainder Theorem. With a basis product
 * larger than 2 * n * q^2 the recombined integers are exact, so the
 * final reduction mod q matches the schoolbook result bit-for-bit.
 */

#ifndef PIMHE_NTT_RNS_H
#define PIMHE_NTT_RNS_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/wide_int.h"
#include "ntt/ntt.h"
#include "poly/convolver.h"
#include "poly/ring.h"

namespace pimhe {

/**
 * A basis of coprime word-sized primes with CRT precomputation.
 *
 * Values up to the basis product P (at most 256 bits here) can be
 * round-tripped exactly through decompose()/recombine().
 */
class RnsBasis
{
  public:
    /** Build from explicit primes (must be pairwise distinct). */
    explicit RnsBasis(std::vector<std::uint64_t> primes);

    /**
     * Convenience factory: enough `bits`-wide NTT primes (step 2n) to
     * cover `min_product_bits` bits of dynamic range.
     */
    static RnsBasis forExactConvolution(std::size_t n,
                                        std::size_t min_product_bits,
                                        int bits = 59);

    const std::vector<std::uint64_t> &primes() const { return primes_; }
    std::size_t size() const { return primes_.size(); }

    /** Product of all primes. */
    const U256 &product() const { return product_; }

    /** Residues of x modulo every basis prime. */
    std::vector<std::uint64_t> decompose(const U256 &x) const;

    /** CRT recombination; result is the unique value < P. */
    U256 recombine(std::span<const std::uint64_t> residues) const;

  private:
    std::vector<std::uint64_t> primes_;
    U256 product_;
    std::vector<U256> hat_;                //!< P / p_i
    std::vector<std::uint64_t> hatInv_;    //!< (P / p_i)^-1 mod p_i
};

/**
 * Exact negacyclic polynomial multiplier using RNS + NTT, generic over
 * the coefficient width N.
 */
template <std::size_t N>
class RnsPolyMultiplier
{
  public:
    /**
     * @param ring Target ring R_q; the RNS basis is sized so the
     *             integer convolution of two reduced operands is exact.
     */
    explicit
    RnsPolyMultiplier(const RingContext<N> &ring)
        : ring_(ring),
          basis_(RnsBasis::forExactConvolution(
              ring.degree(),
              // |negacyclic coeff| < n * q^2; leave one sign bit.
              2 * ring.modulus().bitLength() +
                  ring.degreeLog2() + 2))
    {
        for (const std::uint64_t p : basis_.primes())
            tables_.emplace_back(p, ring.degree());
    }

    /** Negacyclic product in R_q, exact match with mulSchoolbook. */
    Polynomial<N>
    multiply(const Polynomial<N> &a, const Polynomial<N> &b) const
    {
        const std::size_t n = ring_.degree();
        const std::size_t k = basis_.size();
        requireRingDegree(a, n, "a");
        requireRingDegree(b, n, "b");

        // Per-prime negacyclic convolutions.
        std::vector<std::vector<std::uint64_t>> residue_products(k);
        for (std::size_t pi = 0; pi < k; ++pi) {
            const std::uint64_t p = basis_.primes()[pi];
            std::vector<std::uint64_t> ra(n), rb(n);
            for (std::size_t i = 0; i < n; ++i) {
                ra[i] = residueOf(a[i], p);
                rb[i] = residueOf(b[i], p);
            }
            residue_products[pi] =
                tables_[pi].multiply(std::move(ra), std::move(rb));
        }

        // CRT-recombine each coefficient and reduce into [0, q).
        const U256 big_p = basis_.product();
        const U256 half_p = big_p.shr(1);
        const U256 q_wide = ring_.modulus().template convert<8>();
        Polynomial<N> out(n);
        std::vector<std::uint64_t> residues(k);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t pi = 0; pi < k; ++pi)
                residues[pi] = residue_products[pi][i];
            const U256 v = basis_.recombine(residues);
            U256 reduced;
            if (v > half_p) {
                // Negative centred value: v - P (mod q).
                const U256 mag = big_p - v;
                const U256 r = mod(mag, q_wide);
                reduced = r.isZero() ? U256() : q_wide - r;
            } else {
                reduced = mod(v, q_wide);
            }
            out[i] = reduced.convert<N>();
        }
        return out;
    }

  private:
    static std::uint64_t
    residueOf(const WideInt<N> &x, std::uint64_t p)
    {
        std::uint64_t rem = 0;
        for (std::size_t i = N; i-- > 0;) {
            const unsigned __int128 cur =
                (static_cast<unsigned __int128>(rem) << 32) | x.limb(i);
            rem = static_cast<std::uint64_t>(cur % p);
        }
        return rem;
    }

    const RingContext<N> &ring_;
    RnsBasis basis_;
    std::vector<NttTable> tables_;
};

/**
 * RNS+NTT implementation of the ExactConvolver strategy — the engine
 * behind the SEAL-like baseline. Centred operands are decomposed into
 * residues per basis prime, convolved with negacyclic NTTs, and
 * CRT-recombined into exact signed integers.
 */
template <std::size_t N>
class RnsNttConvolver : public ExactConvolver<N>
{
  public:
    explicit
    RnsNttConvolver(const RingContext<N> &ring)
        : ring_(ring),
          basis_(RnsBasis::forExactConvolution(
              ring.degree(),
              2 * ring.modulus().bitLength() + ring.degreeLog2() + 2))
    {
        for (const std::uint64_t p : basis_.primes())
            tables_.emplace_back(p, ring.degree());
    }

    std::vector<U256>
    convolveCentered(const Polynomial<N> &a,
                     const Polynomial<N> &b) const override
    {
        const std::size_t n = ring_.degree();
        const std::size_t k = basis_.size();
        requireRingDegree(a, n, "a");
        requireRingDegree(b, n, "b");

        std::vector<std::vector<std::uint64_t>> residue_products(k);
        for (std::size_t pi = 0; pi < k; ++pi) {
            const std::uint64_t p = basis_.primes()[pi];
            std::vector<std::uint64_t> ra(n), rb(n);
            for (std::size_t i = 0; i < n; ++i) {
                ra[i] = centeredResidue(a[i], p);
                rb[i] = centeredResidue(b[i], p);
            }
            residue_products[pi] =
                tables_[pi].multiply(std::move(ra), std::move(rb));
        }

        const U256 big_p = basis_.product();
        const U256 half_p = big_p.shr(1);
        std::vector<U256> out(n);
        std::vector<std::uint64_t> residues(k);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t pi = 0; pi < k; ++pi)
                residues[pi] = residue_products[pi][i];
            const U256 v = basis_.recombine(residues);
            if (v > half_p)
                out[i] = signed256::fromSignMagnitude(big_p - v, true);
            else
                out[i] = v;
        }
        return out;
    }

    std::string name() const override { return "rns-ntt"; }

    const RnsBasis &basis() const { return basis_; }

  private:
    std::uint64_t
    centeredResidue(const WideInt<N> &c, std::uint64_t p) const
    {
        const auto [mag, neg] = ring_.toCentered(c);
        std::uint64_t rem = 0;
        for (std::size_t i = N; i-- > 0;) {
            const unsigned __int128 cur =
                (static_cast<unsigned __int128>(rem) << 32) |
                mag.limb(i);
            rem = static_cast<std::uint64_t>(cur % p);
        }
        return (neg && rem != 0) ? p - rem : rem;
    }

    const RingContext<N> &ring_;
    RnsBasis basis_;
    std::vector<NttTable> tables_;
};

} // namespace pimhe

#endif // PIMHE_NTT_RNS_H
