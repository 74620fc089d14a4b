/**
 * @file
 * Barrett modular reduction over WideInt limbs.
 *
 * BarrettReducer is the workhorse behind all host-side R_q coefficient
 * arithmetic: it reduces double-width products (from WideInt::mulFull /
 * mulKaratsuba) back into [0, q) without division in the hot path.
 * The reduction runs in 64-bit words with unsigned __int128 partial
 * products: a 2N-limb value is N words.
 */

#ifndef PIMHE_MODULAR_BARRETT_H
#define PIMHE_MODULAR_BARRETT_H

#include <array>
#include <cstdint>

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
        : q_(modulus), k_(modulus.bitLength())
    {
        PIMHE_ASSERT(!modulus.isZero(), "zero modulus");
        PIMHE_ASSERT(2 * k_ + 1 <= Wide::numBits,
                     "modulus too wide for Barrett context");
        const Wide q_wide = modulus.template convert<2 * N>();
        // mu = floor(2^(2k) / q), held in 2N limbs.
        const Wide mu = divmod(Wide::oneShl(2 * k_), q_wide).first;
        qWords_ = toWords(q_wide);
        muWords_ = toWords(mu);
    }

    const Value &modulus() const { return q_; }

    /**
     * Reduce a double-width value x < 2^(2k) to x mod q:
     * q1 = floor(x / 2^(k-1)); q2 = q1 * mu; q3 = floor(q2 / 2^(k+1));
     * r = x - q3 * q, which Barrett bounds below 3q.
     */
    Value
    reduce(const Wide &x) const
    {
        using u128 = unsigned __int128;
        const Words xw = toWords(x);
        const Words q1 = shrWords<W, W>(xw, k_ - 1);
        // Only the high part of the 2W-word product survives the
        // downshift; compute the full product and shift.
        std::array<std::uint64_t, 2 * W> q2{};
        for (std::size_t i = 0; i < W; ++i) {
            std::uint64_t carry = 0;
            for (std::size_t j = 0; j < W; ++j) {
                const u128 t = static_cast<u128>(q1[i]) * muWords_[j] +
                               q2[i + j] + carry;
                q2[i + j] = static_cast<std::uint64_t>(t);
                carry = static_cast<std::uint64_t>(t >> 64);
            }
            q2[i + W] = carry;
        }
        const Words q3 = shrWords<2 * W, W>(q2, k_ + 1);
        // q3 * q mod 2^(64W): r fits W words, so the rest cancels.
        Words t{};
        for (std::size_t i = 0; i < W; ++i) {
            std::uint64_t carry = 0;
            for (std::size_t j = 0; i + j < W; ++j) {
                const u128 p = static_cast<u128>(q3[i]) * qWords_[j] +
                               t[i + j] + carry;
                t[i + j] = static_cast<std::uint64_t>(p);
                carry = static_cast<std::uint64_t>(p >> 64);
            }
        }
        Words r = xw;
        subWords(r, t);
        while (geqWords(r, qWords_))
            subWords(r, qWords_);
        Value out;
        for (std::size_t i = 0; i < N; ++i)
            out.setLimb(i, static_cast<std::uint32_t>(r[i / 2] >>
                                                      (32 * (i % 2))));
        return out;
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
    /** Words of a 2N-limb value. */
    static constexpr std::size_t W = N;

    using Words = std::array<std::uint64_t, W>;

    static Words
    toWords(const Wide &v)
    {
        Words w{};
        for (std::size_t i = 0; i < W; ++i)
            w[i] = v.limb(2 * i) |
                   (static_cast<std::uint64_t>(v.limb(2 * i + 1)) << 32);
        return w;
    }

    /** Words [0, Out) of `in` shifted right by `bits`. */
    template <std::size_t In, std::size_t Out>
    static std::array<std::uint64_t, Out>
    shrWords(const std::array<std::uint64_t, In> &in, std::size_t bits)
    {
        const std::size_t ws = bits / 64;
        const unsigned bs = static_cast<unsigned>(bits % 64);
        std::array<std::uint64_t, Out> out{};
        for (std::size_t i = 0; i + ws < In && i < Out; ++i) {
            const std::uint64_t lo = in[i + ws];
            const std::uint64_t hi = i + ws + 1 < In ? in[i + ws + 1] : 0;
            out[i] = bs == 0 ? lo : (lo >> bs) | (hi << (64 - bs));
        }
        return out;
    }

    /** a >= b over W words. */
    static bool
    geqWords(const Words &a, const Words &b)
    {
        for (std::size_t i = W; i-- > 0;)
            if (a[i] != b[i])
                return a[i] > b[i];
        return true;
    }

    /** a -= b mod 2^(64W). */
    static void
    subWords(Words &a, const Words &b)
    {
        std::uint64_t borrow = 0;
        for (std::size_t i = 0; i < W; ++i) {
            const std::uint64_t d = a[i] - b[i] - borrow;
            borrow = (a[i] < b[i] || (a[i] == b[i] && borrow)) ? 1 : 0;
            a[i] = d;
        }
    }

    Value q_;
    std::size_t k_;
    Words qWords_{};
    Words muWords_{};
};

} // namespace pimhe

#endif // PIMHE_MODULAR_BARRETT_H
