/**
 * @file
 * Barrett modular reduction over WideInt limbs.
 *
 * BarrettReducer is the workhorse behind all host-side R_q coefficient
 * arithmetic: it reduces double-width products (from WideInt::mulFull /
 * mulKaratsuba) back into [0, q) without division in the hot path.
 */

#ifndef PIMHE_MODULAR_BARRETT_H
#define PIMHE_MODULAR_BARRETT_H

#include "bigint/wide_int.h"
#include "common/logging.h"

namespace pimhe {

/**
 * Precomputed Barrett reduction context for a modulus of at most
 * N*32 bits.
 *
 * Given k = bitLength(q), precomputes mu = floor(2^(2k) / q). Then for
 * any x < 2^(2k) (in particular any product of two reduced values),
 * reduce() returns x mod q using two multiplications and at most two
 * conditional subtractions.
 */
template <std::size_t N>
class BarrettReducer
{
  public:
    using Value = WideInt<N>;
    using Wide = WideInt<2 * N>;

    explicit
    BarrettReducer(const Value &modulus)
        : q_(modulus), qWide_(modulus.template convert<2 * N>()),
          k_(modulus.bitLength())
    {
        PIMHE_ASSERT(!modulus.isZero(), "zero modulus");
        PIMHE_ASSERT(2 * k_ + 1 <= Wide::numBits,
                     "modulus too wide for Barrett context");
        // mu = floor(2^(2k) / q), held in 2N limbs.
        const Wide numerator = Wide::oneShl(2 * k_);
        mu_ = divmod(numerator, qWide_).first;
    }

    const Value &modulus() const { return q_; }

    /**
     * Reduce a double-width value x < 2^(2k) to x mod q.
     */
    Value
    reduce(const Wide &x) const
    {
        // q1 = floor(x / 2^(k-1)); q2 = q1 * mu;
        // q3 = floor(q2 / 2^(k+1)); r = x - q3 * q.
        const Wide q1 = x.shr(k_ - 1);
        // Only the high part of the 4N-limb product survives the
        // downshift; compute the full product and shift.
        const WideInt<4 * N> q2 = q1.mulFull(mu_);
        const Wide q3 = q2.shr(k_ + 1).template convert<2 * N>();
        Wide r = x - q3 * qWide_;
        // Barrett guarantees r < 3q after one pass.
        while (r >= qWide_)
            r -= qWide_;
        return r.template convert<N>();
    }

    /** Reduce a single-width value (may exceed q, e.g. after add). */
    Value
    reduceSingle(const Value &x) const
    {
        return reduce(x.template convert<2 * N>());
    }

    /** (a + b) mod q for reduced inputs. */
    Value
    addMod(const Value &a, const Value &b) const
    {
        Value s = a;
        const std::uint32_t carry = s.addInPlace(b);
        if (carry || s >= q_)
            s -= q_;
        return s;
    }

    /** (a - b) mod q for reduced inputs. */
    Value
    subMod(const Value &a, const Value &b) const
    {
        Value d = a;
        if (d.subInPlace(b))
            d += q_;
        return d;
    }

    /** (-a) mod q for a reduced input. */
    Value
    negMod(const Value &a) const
    {
        return a.isZero() ? a : q_ - a;
    }

    /** (a * b) mod q for reduced inputs. */
    Value
    mulMod(const Value &a, const Value &b) const
    {
        return reduce(a.mulFull(b));
    }

    /** (base ^ exp) mod q via square-and-multiply. */
    Value
    powMod(Value base, std::uint64_t exp) const
    {
        Value result(1ULL);
        result = result >= q_ ? result - q_ : result;
        while (exp > 0) {
            if (exp & 1)
                result = mulMod(result, base);
            base = mulMod(base, base);
            exp >>= 1;
        }
        return result;
    }

  private:
    Value q_;
    Wide qWide_;
    std::size_t k_;
    Wide mu_;
};

} // namespace pimhe

#endif // PIMHE_MODULAR_BARRETT_H
