/**
 * @file
 * Montgomery arithmetic on word-sized odd moduli.
 *
 * Montgomery form replaces the per-product division with shifts and
 * multiplies. The reducer here handles moduli below 2^62 (everything
 * the RNS bases use); the host NTT's pointwise product runs on it,
 * with REDC's 2^-64 folded into the inverse transform's n^-1.
 */

#ifndef PIMHE_MODULAR_MONTGOMERY_H
#define PIMHE_MODULAR_MONTGOMERY_H

#include <cstdint>

#include "common/logging.h"

namespace pimhe {

/**
 * Montgomery context for an odd modulus p < 2^62, with R = 2^64.
 *
 * Values in Montgomery form represent x * R mod p; REDC after a
 * 128-bit product keeps everything reduced without division.
 */
class MontgomeryReducer
{
  public:
    explicit
    MontgomeryReducer(std::uint64_t p)
        : p_(p)
    {
        PIMHE_ASSERT(p >= 3 && (p & 1) == 1, "modulus must be odd >= 3");
        PIMHE_ASSERT(p < (1ULL << 62), "modulus too wide");
        // pInv = -p^-1 mod 2^64 via Newton iteration (5 steps double
        // the precision from the 2^3 seed each time).
        std::uint64_t inv = p;
        for (int i = 0; i < 5; ++i)
            inv *= 2 - p * inv;
        pInv_ = ~inv + 1; // = -p^-1 mod 2^64
        // r2 = (2^64)^2 mod p via repeated doubling of 2^64 mod p.
        const std::uint64_t r_mod_p =
            static_cast<std::uint64_t>((static_cast<unsigned __int128>(1)
                                        << 64) %
                                       p);
        unsigned __int128 acc = r_mod_p;
        acc = acc * r_mod_p % p;
        r2_ = static_cast<std::uint64_t>(acc);
    }

    std::uint64_t modulus() const { return p_; }

    /** Montgomery reduction of a 128-bit value t < p * 2^64. */
    std::uint64_t
    reduce(unsigned __int128 t) const
    {
        const std::uint64_t m =
            static_cast<std::uint64_t>(t) * pInv_;
        const unsigned __int128 u =
            (t + static_cast<unsigned __int128>(m) * p_) >> 64;
        const std::uint64_t r = static_cast<std::uint64_t>(u);
        return r >= p_ ? r - p_ : r;
    }

    /** Convert into Montgomery form: x -> x * R mod p. */
    std::uint64_t
    toMont(std::uint64_t x) const
    {
        return reduce(static_cast<unsigned __int128>(x % p_) * r2_);
    }

    /** Convert out of Montgomery form: xR -> x. */
    std::uint64_t
    fromMont(std::uint64_t x) const
    {
        return reduce(x);
    }

    /** Product of two Montgomery-form values, in Montgomery form. */
    std::uint64_t
    mulMont(std::uint64_t a, std::uint64_t b) const
    {
        return reduce(static_cast<unsigned __int128>(a) * b);
    }

    /** Plain (a * b) mod p through the Montgomery machinery. */
    std::uint64_t
    mulMod(std::uint64_t a, std::uint64_t b) const
    {
        return fromMont(mulMont(toMont(a), toMont(b)));
    }

    /** (base ^ exp) mod p with Montgomery squarings. */
    std::uint64_t
    powMod(std::uint64_t base, std::uint64_t exp) const
    {
        std::uint64_t acc = toMont(1);
        std::uint64_t b = toMont(base);
        while (exp > 0) {
            if (exp & 1)
                acc = mulMont(acc, b);
            b = mulMont(b, b);
            exp >>= 1;
        }
        return fromMont(acc);
    }

  private:
    std::uint64_t p_;
    std::uint64_t pInv_; //!< -p^-1 mod 2^64
    std::uint64_t r2_;   //!< (2^64)^2 mod p
};

} // namespace pimhe

#endif // PIMHE_MODULAR_MONTGOMERY_H
