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
 * Residues and recombination run on 64-bit words with Shoup constants
 * precomputed per prime; nothing in a product divides.
 */

#ifndef PIMHE_NTT_RNS_H
#define PIMHE_NTT_RNS_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/wide_int.h"
#include "modular/mod64.h"
#include "ntt/ntt.h"
#include "poly/convolver.h"
#include "poly/ring.h"

namespace pimhe {

/**
 * A basis of coprime word-sized primes (each below 2^62) with CRT
 * precomputation.
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

    /**
     * x mod p_i, for x given as little-endian 64-bit words (at least
     * one): Horner over the words, each step two lazy Shoup products
     * (each in [0, 2p), so their sum stays below 4p < 2^64).
     */
    std::uint64_t
    residue(std::span<const std::uint64_t> words, std::size_t i) const
    {
        const std::uint64_t p = primes_[i];
        const PrimeConstants &c = consts_[i];
        std::uint64_t r = mulShoup(words.back(), c.one, p);
        for (std::size_t l = words.size() - 1; l-- > 0;) {
            r = mulShoupLazy(r, c.wordShift, p) +
                mulShoupLazy(words[l], c.one, p);
            r = r >= 2 * p ? r - 2 * p : r;
            r = r >= p ? r - p : r;
        }
        return r;
    }

    /** Residues of x modulo every basis prime. */
    std::vector<std::uint64_t> decompose(const U256 &x) const;

    /**
     * CRT recombination; result is the unique value < P. Residues may
     * be any 64-bit values (they are read mod p_i).
     */
    U256 recombine(std::span<const std::uint64_t> residues) const;

  private:
    using Words = std::array<std::uint64_t, 4>;

    /** Per-prime constants of residue() and recombine(). */
    struct PrimeConstants
    {
        ShoupOperand wordShift; //!< 2^64 mod p
        ShoupOperand one;       //!< 1 (quotient floor(2^64 / p))
        ShoupOperand hatInv;    //!< (P / p)^-1 mod p
        Words hat{};            //!< P / p
    };

    std::vector<std::uint64_t> primes_;
    U256 product_;
    Words productWords_{};
    std::vector<PrimeConstants> consts_;
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

        // Per-prime residues of both operands; each product overwrites
        // a's residues and consumes b's.
        std::vector<std::vector<std::uint64_t>> ra(k), rb(k);
        centeredResidues(a, ra);
        centeredResidues(b, rb);
        for (std::size_t pi = 0; pi < k; ++pi)
            ra[pi] = tables_[pi].multiply(std::move(ra[pi]),
                                          std::move(rb[pi]));

        // A recombined v > P/2 stands for the negative value v - P.
        const U256 &big_p = basis_.product();
        const U256 half_p = big_p.shr(1);
        std::vector<U256> out(n);
        std::vector<std::uint64_t> residues(k);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t pi = 0; pi < k; ++pi)
                residues[pi] = ra[pi][i];
            const U256 v = basis_.recombine(residues);
            out[i] = v > half_p ? v - big_p : v;
        }
        return out;
    }

    std::string name() const override { return "rns-ntt"; }

    const RnsBasis &basis() const { return basis_; }

  private:
    /**
     * out[pi][i] = centred(a[i]) mod p_i. Each coefficient is centred
     * once, and its magnitude reduced per prime as 64-bit words.
     */
    void
    centeredResidues(const Polynomial<N> &a,
                     std::vector<std::vector<std::uint64_t>> &out) const
    {
        const std::size_t n = ring_.degree();
        for (auto &r : out)
            r.resize(n);
        std::array<std::uint64_t, (N + 1) / 2> words;
        for (std::size_t i = 0; i < n; ++i) {
            const auto [mag, neg] = ring_.toCentered(a[i]);
            for (std::size_t w = 0; w < words.size(); ++w)
                words[w] = mag.limb(2 * w) |
                           static_cast<std::uint64_t>(
                               mag.limb(2 * w + 1))
                               << 32;
            // Small magnitudes (ternary, noise) reduce one word.
            std::size_t used = words.size();
            while (used > 1 && words[used - 1] == 0)
                --used;
            const std::span<const std::uint64_t> value(words.data(),
                                                       used);
            for (std::size_t pi = 0; pi < out.size(); ++pi) {
                const std::uint64_t r = basis_.residue(value, pi);
                out[pi][i] =
                    (neg && r != 0) ? basis_.primes()[pi] - r : r;
            }
        }
    }

    const RingContext<N> &ring_;
    RnsBasis basis_;
    std::vector<NttTable> tables_;
};

} // namespace pimhe

#endif // PIMHE_NTT_RNS_H
