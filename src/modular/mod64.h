/**
 * @file
 * Modular arithmetic on 64-bit residues.
 *
 * These helpers back the NTT engine (which works over word-sized
 * NTT-friendly primes) and the parameter generation in src/bfv.
 */

#ifndef PIMHE_MODULAR_MOD64_H
#define PIMHE_MODULAR_MOD64_H

#include <cstdint>
#include <vector>

namespace pimhe {

/** (a * b) mod m computed without overflow. */
std::uint64_t mulMod64(std::uint64_t a, std::uint64_t b, std::uint64_t m);

/** (a + b) mod m; operands must already be reduced. */
inline std::uint64_t
addMod64(std::uint64_t a, std::uint64_t b, std::uint64_t m)
{
    const std::uint64_t s = a + b;
    return (s >= m || s < a) ? s - m : s;
}

/** (a - b) mod m; operands must already be reduced. */
inline std::uint64_t
subMod64(std::uint64_t a, std::uint64_t b, std::uint64_t m)
{
    return a >= b ? a - b : a + (m - b);
}

/**
 * A fixed multiplicand w < p with Shoup's precomputed quotient
 * floor(w * 2^64 / p), which turns every later product by w into two
 * multiplies and no division (mulShoupLazy).
 */
struct ShoupOperand
{
    std::uint64_t w = 0;
    std::uint64_t quotient = 0;

    ShoupOperand() = default;

    ShoupOperand(std::uint64_t w_, std::uint64_t p)
        : w(w_), quotient(static_cast<std::uint64_t>(
                     (static_cast<unsigned __int128>(w_) << 64) / p))
    {}
};

/**
 * x * w mod p up to one extra p: the result lies in [0, 2p) for every
 * x < 2^64, given w < p < 2^63 (Harvey 2014; the bound is proved by
 * analysis::analyzeHostNttPrime).
 */
inline std::uint64_t
mulShoupLazy(std::uint64_t x, const ShoupOperand &w, std::uint64_t p)
{
    const auto q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * w.quotient) >> 64);
    return x * w.w - q * p;
}

/** x * w mod p in [0, p), for every x < 2^64. */
inline std::uint64_t
mulShoup(std::uint64_t x, const ShoupOperand &w, std::uint64_t p)
{
    const std::uint64_t r = mulShoupLazy(x, w, p);
    return r >= p ? r - p : r;
}

/** (base ^ exp) mod m via square-and-multiply. */
std::uint64_t powMod64(std::uint64_t base, std::uint64_t exp,
                       std::uint64_t m);

/** Multiplicative inverse of a modulo m (m prime or gcd(a,m)=1). */
std::uint64_t invMod64(std::uint64_t a, std::uint64_t m);

/** Deterministic Miller-Rabin primality test for 64-bit integers. */
bool isPrime64(std::uint64_t n);

/**
 * Find `count` distinct primes p with the given bit length satisfying
 * p == 1 (mod modulus_step). Used to build NTT-friendly RNS bases
 * (modulus_step = 2n enables the negacyclic NTT).
 */
std::vector<std::uint64_t> findNttPrimes(int bits,
                                         std::uint64_t modulus_step,
                                         std::size_t count);

/**
 * Find a generator of the multiplicative group mod prime p, then derive
 * a primitive `order`-th root of unity from it.
 *
 * @param p Prime with order | p-1.
 */
std::uint64_t primitiveRoot(std::uint64_t p, std::uint64_t order);

} // namespace pimhe

#endif // PIMHE_MODULAR_MOD64_H
