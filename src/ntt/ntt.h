/**
 * @file
 * Negacyclic Number Theoretic Transform over word-sized prime fields.
 *
 * This powers the SEAL-like CPU baseline: BFV multiplication via
 * O(n log n) pointwise products instead of the O(n^2) schoolbook
 * convolution that the PIM kernels use (the paper leaves NTT-on-PIM to
 * future work, but compares against SEAL which has it).
 */

#ifndef PIMHE_NTT_NTT_H
#define PIMHE_NTT_NTT_H

#include <cstdint>
#include <vector>

#include "modular/mod64.h"
#include "modular/montgomery.h"

namespace pimhe {

/**
 * Precomputed tables for the negacyclic NTT of length n modulo a prime
 * p == 1 (mod 2n).
 *
 * Uses the Longa-Naehrig formulation where the psi twisting factors are
 * merged into the butterflies, so forward followed by inverse is an
 * exact negacyclic identity. The butterflies are Harvey's lazy ones
 * ("Faster arithmetic for number-theoretic transforms", 2014): every
 * twiddle carries its Shoup quotient, forward values stay in [0, 4p)
 * and inverse values in [0, 2p) (both fit a word since p < 2^62), and
 * one pass at the end of each transform returns canonical residues.
 */
class NttTable
{
  public:
    /**
     * @param p Prime modulus, p == 1 (mod 2n), p < 2^62.
     * @param n Transform length (power of two).
     */
    NttTable(std::uint64_t p, std::size_t n);

    std::uint64_t prime() const { return p_; }
    std::size_t degree() const { return n_; }

    /** In-place forward negacyclic NTT (standard -> evaluation). */
    void forward(std::vector<std::uint64_t> &a) const;

    /** In-place inverse negacyclic NTT (evaluation -> standard). */
    void inverse(std::vector<std::uint64_t> &a) const;

    /**
     * Negacyclic product of two standard-domain polynomials via
     * forward NTTs, a pointwise product, and one inverse NTT.
     */
    std::vector<std::uint64_t>
    multiply(std::vector<std::uint64_t> a,
             std::vector<std::uint64_t> b) const;

  private:
    /** Inverse butterflies, then every value times `scale`. */
    void inverseScaled(std::vector<std::uint64_t> &a,
                       const ShoupOperand &scale) const;

    std::uint64_t p_;
    std::size_t n_;
    MontgomeryReducer mont_;              //!< multiply's pointwise product
    std::vector<ShoupOperand> psiRev_;    //!< psi^bitrev(i)
    std::vector<ShoupOperand> psiInvRev_; //!< psi^-bitrev(i)
    ShoupOperand nInv_;                   //!< n^-1 mod p
    /** n^-1 * 2^64 mod p: also cancels the 2^-64 of mulMont. */
    ShoupOperand nInvMont_;
};

} // namespace pimhe

#endif // PIMHE_NTT_NTT_H
