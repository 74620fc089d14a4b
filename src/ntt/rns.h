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
 *
 * The client's products (encryption against the public key, decryption
 * against the secret) have one ternary operand, so they run on a
 * smaller basis of wider primes against fixed polynomials kept in NTT
 * form, and recombine straight into [0, q) (NttResidentProducts).
 */

#ifndef PIMHE_NTT_RNS_H
#define PIMHE_NTT_RNS_H

#include <algorithm>
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

/** Residues of one polynomial: a length-n vector per basis prime. */
using RnsResidues = std::vector<std::vector<std::uint64_t>>;

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
    /** A value below 2^256 as little-endian 64-bit words. */
    using Words = std::array<std::uint64_t, 4>;

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

    /**
     * Signed CRT recombination: the magnitude of the value whose
     * residues are `residues`, with its sign in `negative`. A
     * recombined v > P/2 stands for the negative value v - P.
     */
    Words recombineSigned(std::span<const std::uint64_t> residues,
                          bool &negative) const;

    /**
     * recombineSigned of every coefficient of `r`, in two's
     * complement.
     */
    std::vector<U256> recombineCentered(const RnsResidues &r) const;

  private:
    /** The unique value below P with the given residues. */
    Words recombineWords(std::span<const std::uint64_t> residues) const;

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
    Words halfProductWords_{}; //!< floor(P / 2)
    std::size_t productWordCount_ = 0; //!< words of P
    std::vector<PrimeConstants> consts_;
};

/**
 * out[pi][i] = centred(a[i]) mod p_i for every prime p_i of `basis`.
 * Each coefficient is centred once, and its magnitude reduced per
 * prime as 64-bit words.
 */
template <std::size_t N>
RnsResidues
centeredResidues(const RingContext<N> &ring, const RnsBasis &basis,
                 const Polynomial<N> &a)
{
    RnsResidues out(basis.size(), std::vector<std::uint64_t>(a.size()));
    std::array<std::uint64_t, (N + 1) / 2> words;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto [mag, neg] = ring.toCentered(a[i]);
        for (std::size_t w = 0; w < words.size(); ++w)
            words[w] = mag.limb(2 * w) |
                       static_cast<std::uint64_t>(mag.limb(2 * w + 1))
                           << 32;
        // Small magnitudes (ternary, noise) reduce one word.
        std::size_t used = words.size();
        while (used > 1 && words[used - 1] == 0)
            --used;
        const std::span<const std::uint64_t> value(words.data(), used);
        for (std::size_t pi = 0; pi < out.size(); ++pi) {
            const std::uint64_t r = basis.residue(value, pi);
            out[pi][i] = (neg && r != 0) ? basis.primes()[pi] - r : r;
        }
    }
    return out;
}

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
        requireRingDegree(a, n, "a");
        requireRingDegree(b, n, "b");

        // Per-prime residues of both operands; each product overwrites
        // a's residues and consumes b's.
        RnsResidues ra = centeredResidues(ring_, basis_, a);
        RnsResidues rb = centeredResidues(ring_, basis_, b);
        for (std::size_t pi = 0; pi < basis_.size(); ++pi)
            ra[pi] = tables_[pi].multiply(std::move(ra[pi]),
                                          std::move(rb[pi]));
        return basis_.recombineCentered(ra);
    }

    std::string name() const override { return "rns-ntt"; }

    const RnsBasis &basis() const { return basis_; }

  private:
    const RingContext<N> &ring_;
    RnsBasis basis_;
    std::vector<NttTable> tables_;
};

/**
 * The 64-bit word half of NttResidentProducts, compiled once in
 * rns.cpp: the basis, one NTT table per prime, every fixed
 * polynomial's transform with a Shoup quotient per value, and the
 * per-coefficient arithmetic mod q that the client's products end in.
 */
class NttResidentCore
{
  public:
    using u128 = unsigned __int128;

    /** An operand in RNS-NTT form. */
    struct Operand
    {
        RnsResidues values; //!< forward transform, one vector per prime
        bool small = false; //!< every centred coefficient in {-1, 0, 1}
    };

    const RnsBasis &basis() const { return basis_; }

    /** q. */
    u128 modulus() const { return q_; }

    /**
     * Values in {-1, 0, 1} (encryption's u, straight from its draws)
     * in RNS-NTT form.
     */
    Operand transformTernary(std::span<const std::int8_t> x) const;

    /**
     * acc[i] = (acc[i] + (lift(x) * f_j)[i]) mod q for every
     * coefficient, each acc[i] below q: per prime one pointwise Shoup
     * product and one inverse NTT, then per coefficient one
     * recombineModQ. Panics unless one factor is small.
     */
    void multiplyAddModQ(const Operand &x, std::size_t j,
                         std::span<u128> acc) const;

    /**
     * The value mod q of the signed integer in (-P/2, P/2) whose
     * residues are `residues` (each below its prime): Garner's mixed
     * radix digits a_m, a sign from comparing them with floor(P/2)'s,
     * and sum a_m * (p_0 ... p_{m-1} mod q) through the one-word
     * Barrett reduction.
     */
    u128 recombineModQ(std::span<const std::uint64_t> residues) const;

    /** (a + b) mod q, for a and b below q. */
    u128
    addModQ(u128 a, u128 b) const
    {
        const u128 s = a + b; // wraps only when q > 2^127
        return s < a || s >= q_ ? s - q_ : s;
    }

    /** v mod q in [0, q), as RingContext::centeredToModQ. */
    u128 liftModQ(std::int64_t v) const;

    /**
     * floor((t * v + floor(q/2)) / q) mod t, decryption's scaled
     * rounding of v < q, for t < 2^62 (BfvParams::validate): then
     * t * v + floor(q/2) < (t + 1) * q stays in the Barrett window.
     */
    std::uint64_t scaleRound(u128 v, std::uint64_t t) const;

  protected:
    /**
     * The fewest 62-bit NTT primes (step 2n) whose product P exceeds
     * 2 * n * floor(q/2), for n <= 2^30.
     */
    NttResidentCore(std::size_t n, u128 q);

    /** Forward-transform centred residues `r` per prime. */
    Operand forward(RnsResidues r, bool small) const;

    /**
     * Keep a fixed polynomial, given as centred residues, in NTT form;
     * returns its index.
     */
    std::size_t keep(RnsResidues r, bool small);

  private:
    struct Fixed
    {
        std::vector<std::vector<ShoupOperand>> values; //!< per prime
        bool small = false;
    };

    /**
     * x mod q for x < 2^(k + 62), k the bit length of q; floor(x / q)
     * in `quotient` when it is given.
     */
    u128 reduce(const RnsBasis::Words &x,
                std::uint64_t *quotient = nullptr) const;

    RnsBasis basis_;
    std::vector<NttTable> tables_;
    std::vector<Fixed> fixed_;
    /** garnerInv_[m][l] = p_l^-1 mod p_m, for l < m. */
    std::vector<std::vector<ShoupOperand>> garnerInv_;
    std::vector<std::uint64_t> halfDigits_; //!< floor(P/2)'s digits
    std::vector<u128> radixModQ_; //!< p_0 ... p_{m-1} mod q, per m
    u128 productModQ_ = 0;        //!< P mod q
    u128 q_;
    unsigned qBits_ = 0;    //!< k
    std::uint64_t qMu_ = 0; //!< floor(2^(k + 62) / q)
};

/**
 * Exact negacyclic products in R_q against fixed polynomials kept in
 * RNS-NTT form: the client's side of BFV (Encryptor's public key,
 * Decryptor's secret). Each fixed polynomial is centred and
 * forward-transformed once. A product then costs one forward NTT per
 * prime of the other operand (shared by every fixed polynomial it
 * meets), a pointwise Shoup product and an inverse NTT per prime, and
 * one recombination straight into [0, q) per coefficient.
 *
 * The basis is sized for the one product the client makes: a small
 * operand (centred |x| <= 1: encryption's u, the secret s) against a
 * reduced one (|y| <= floor(q/2)), at most n * floor(q/2) per
 * coefficient. Its product P exceeds 2 * n * floor(q/2), so every
 * such product recombines exactly in (-P/2, P/2); decryption's
 * c2 * s^2 is two of them, ((c2 * s) mod q) * s. At the paper's
 * n = 4096 and 109-bit q that is two 62-bit primes, where
 * RnsNttConvolver's bound for two reduced operands takes four 59-bit
 * ones.
 */
template <std::size_t N>
class NttResidentProducts : public NttResidentCore
{
    static_assert(N <= 4, "q must fit 128 bits");

  public:
    explicit
    NttResidentProducts(const RingContext<N> &ring)
        : NttResidentCore(ring.degree(), toU128(ring.modulus())),
          ring_(ring)
    {}

    /**
     * Keep fixed polynomial `f` (`name` in panics) in RNS-NTT form;
     * returns its index for multiply().
     */
    std::size_t
    prepare(const Polynomial<N> &f, const char *name)
    {
        requireReduced(f, name);
        return keep(centeredResidues(ring_, basis(), f), isSmall(f));
    }

    /** Operand `x` (`name` in panics) in RNS-NTT form. */
    Operand
    transform(const Polynomial<N> &x, const char *name) const
    {
        requireReduced(x, name);
        return forward(centeredResidues(ring_, basis(), x), isSmall(x));
    }

    /** x * f_j in R_q. */
    Polynomial<N>
    multiply(const Operand &x, std::size_t j) const
    {
        std::vector<u128> values(ring_.degree());
        multiplyAddModQ(x, j, values);
        return toPolynomial(values);
    }

    /** The coefficients of `p` (`name` in panics) as 128-bit words. */
    std::vector<u128>
    values(const Polynomial<N> &p, const char *name) const
    {
        requireReduced(p, name);
        std::vector<u128> out(p.size());
        for (std::size_t i = 0; i < p.size(); ++i)
            out[i] = toU128(p[i]);
        return out;
    }

    /** Values below q as the coefficients of a polynomial. */
    static Polynomial<N>
    toPolynomial(std::span<const u128> values)
    {
        Polynomial<N> out(values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            u128 v = values[i];
            for (std::size_t l = 0; l < N; ++l, v >>= 32)
                out[i].setLimb(l, static_cast<std::uint32_t>(v));
        }
        return out;
    }

    static u128
    toU128(const WideInt<N> &v)
    {
        u128 w = 0;
        for (std::size_t l = N; l-- > 0;)
            w = (w << 32) | v.limb(l);
        return w;
    }

  private:
    /** The basis bound assumes n coefficients, each below q. */
    void
    requireReduced(const Polynomial<N> &p, const char *name) const
    {
        requireRingDegree(p, ring_.degree(), name);
        for (std::size_t i = 0; i < p.size(); ++i)
            PIMHE_ASSERT(p[i] < ring_.modulus(), "operand ", name,
                         " coefficient ", i, " is not below q");
    }

    bool
    isSmall(const Polynomial<N> &p) const
    {
        const WideInt<N> one(1ULL);
        const WideInt<N> minus_one = ring_.modulus() - one;
        return std::all_of(p.coeffs().begin(), p.coeffs().end(),
                           [&](const WideInt<N> &c) {
                               return c <= one || c == minus_one;
                           });
    }

    const RingContext<N> &ring_;
};

} // namespace pimhe

#endif // PIMHE_NTT_RNS_H
