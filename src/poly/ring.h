/**
 * @file
 * The polynomial quotient ring R_q = Z_q[x] / (x^n + 1).
 *
 * All BFV plaintexts and ciphertexts live in (products of) this ring.
 * Coefficients are WideInt<N> values reduced modulo q; n is a power of
 * two so that x^n + 1 is the 2n-th cyclotomic polynomial.
 */

#ifndef PIMHE_POLY_RING_H
#define PIMHE_POLY_RING_H

#include <cstddef>
#include <vector>

#include "bigint/wide_int.h"
#include "common/logging.h"
#include "common/rng.h"
#include "modular/barrett.h"

namespace pimhe {

/**
 * Dense polynomial with n coefficients of N 32-bit limbs each.
 *
 * A Polynomial does not know its modulus; operations happen through a
 * RingContext which owns the Barrett reduction state.
 */
template <std::size_t N>
class Polynomial
{
  public:
    using Coeff = WideInt<N>;

    Polynomial() = default;

    /** Zero polynomial of the given length. */
    explicit Polynomial(std::size_t n) : coeffs_(n) {}

    explicit Polynomial(std::vector<Coeff> coeffs)
        : coeffs_(std::move(coeffs))
    {}

    std::size_t size() const { return coeffs_.size(); }

    const Coeff &operator[](std::size_t i) const { return coeffs_[i]; }
    Coeff &operator[](std::size_t i) { return coeffs_[i]; }

    const std::vector<Coeff> &coeffs() const { return coeffs_; }
    std::vector<Coeff> &coeffs() { return coeffs_; }

    bool
    operator==(const Polynomial &other) const
    {
        return coeffs_ == other.coeffs_;
    }

    bool
    isZero() const
    {
        for (const auto &c : coeffs_)
            if (!c.isZero())
                return false;
        return true;
    }

  private:
    std::vector<Coeff> coeffs_;
};

/**
 * Arithmetic context for R_q: degree n, modulus q and the associated
 * Barrett reducer, plus samplers for the distributions BFV needs.
 */
template <std::size_t N>
class RingContext
{
  public:
    using Coeff = WideInt<N>;
    using Poly = Polynomial<N>;

    /**
     * @param n Ring degree; must be a power of two.
     * @param q Coefficient modulus.
     */
    RingContext(std::size_t n, const Coeff &q)
        : n_(n), reducer_(q)
    {
        PIMHE_ASSERT(n >= 2 && (n & (n - 1)) == 0,
                     "ring degree must be a power of two, got ", n);
    }

    std::size_t degree() const { return n_; }

    /** log2 of the ring degree. */
    std::size_t
    degreeLog2() const
    {
        std::size_t l = 0;
        while ((std::size_t(1) << l) < n_)
            ++l;
        return l;
    }

    const Coeff &modulus() const { return reducer_.modulus(); }
    const BarrettReducer<N> &reducer() const { return reducer_; }

    /** Elementwise (a + b) mod q. */
    Poly
    add(const Poly &a, const Poly &b) const
    {
        checkSize(a);
        checkSize(b);
        Poly r(n_);
        for (std::size_t i = 0; i < n_; ++i)
            r[i] = reducer_.addMod(a[i], b[i]);
        return r;
    }

    /** Elementwise (a - b) mod q. */
    Poly
    sub(const Poly &a, const Poly &b) const
    {
        checkSize(a);
        checkSize(b);
        Poly r(n_);
        for (std::size_t i = 0; i < n_; ++i)
            r[i] = reducer_.subMod(a[i], b[i]);
        return r;
    }

    /** Elementwise negation mod q. */
    Poly
    negate(const Poly &a) const
    {
        checkSize(a);
        Poly r(n_);
        for (std::size_t i = 0; i < n_; ++i)
            r[i] = reducer_.negMod(a[i]);
        return r;
    }

    /** Scale every coefficient by s mod q. */
    Poly
    scalarMul(const Poly &a, const Coeff &s) const
    {
        checkSize(a);
        Poly r(n_);
        const Coeff sr = reducer_.reduceSingle(s);
        for (std::size_t i = 0; i < n_; ++i)
            r[i] = reducer_.mulMod(a[i], sr);
        return r;
    }

    /**
     * Negacyclic product a * b mod (x^n + 1, q) via schoolbook
     * convolution. O(n^2) coefficient multiplications — exactly the
     * algorithm the paper maps onto DPU threads (NTT is left to the
     * SEAL-like baseline, as in the paper).
     */
    Poly
    mulSchoolbook(const Poly &a, const Poly &b) const
    {
        checkSize(a);
        checkSize(b);
        Poly r(n_);
        for (std::size_t i = 0; i < n_; ++i) {
            for (std::size_t j = 0; j < n_; ++j) {
                const Coeff p = reducer_.mulMod(a[i], b[j]);
                const std::size_t k = i + j;
                if (k < n_)
                    r[k] = reducer_.addMod(r[k], p);
                else
                    r[k - n_] = reducer_.subMod(r[k - n_], p);
            }
        }
        return r;
    }

    /** Uniform polynomial with coefficients in [0, q). */
    Poly
    sampleUniform(Rng &rng) const
    {
        Poly r(n_);
        const std::size_t bits = modulus().bitLength();
        for (std::size_t i = 0; i < n_; ++i) {
            // Rejection-sample below q from bit-masked draws.
            Coeff c;
            do {
                for (std::size_t l = 0; l < N; ++l)
                    c.setLimb(l, rng.next32());
                if (bits < Coeff::numBits)
                    c = c & (Coeff::oneShl(bits) - Coeff(1ULL));
            } while (c >= modulus());
            r[i] = c;
        }
        return r;
    }

    /** Ternary polynomial ({-1, 0, 1} mapped into Z_q). */
    Poly
    sampleTernary(Rng &rng) const
    {
        Poly r(n_);
        for (std::size_t i = 0; i < n_; ++i)
            r[i] = centeredToModQ(rng.ternary());
        return r;
    }

    /** Noise polynomial from a centred binomial distribution. */
    Poly
    sampleNoise(Rng &rng, int eta = 10) const
    {
        Poly r(n_);
        for (std::size_t i = 0; i < n_; ++i)
            r[i] = centeredToModQ(rng.centeredBinomial(eta));
        return r;
    }

    /**
     * v mod q in [0, q), for every int64 v. The samplers' small values
     * take the |v| < q path: |v| or q - |v|, with no reduction.
     */
    Coeff
    centeredToModQ(std::int64_t v) const
    {
        // |v| in unsigned arithmetic, defined for INT64_MIN too.
        std::uint64_t mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                  : static_cast<std::uint64_t>(v);
        // A modulus wider than 64 bits exceeds every |v|.
        if (modulus().fitsUint64() && mag >= modulus().toUint64())
            mag %= modulus().toUint64();
        const Coeff r(mag);
        return v < 0 ? reducer_.negMod(r) : r;
    }

    /**
     * Interpret a reduced coefficient as a signed value in
     * (-q/2, q/2], returning it widened to 2N limbs with sign info.
     *
     * @return pair (magnitude, is_negative).
     */
    std::pair<Coeff, bool>
    toCentered(const Coeff &c) const
    {
        const Coeff half = modulus().shr(1);
        if (c > half)
            return {modulus() - c, true};
        return {c, false};
    }

  private:
    void
    checkSize(const Poly &p) const
    {
        PIMHE_ASSERT(p.size() == n_, "polynomial size ", p.size(),
                     " does not match ring degree ", n_);
    }

    std::size_t n_;
    BarrettReducer<N> reducer_;
};

} // namespace pimhe

#endif // PIMHE_POLY_RING_H
