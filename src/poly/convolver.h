/**
 * @file
 * Exact signed negacyclic convolution strategies.
 *
 * BFV multiplication must form the tensor product of ciphertext
 * polynomials over the integers (with coefficients lifted to their
 * centred representatives in (-q/2, q/2]) before the t/q scale-and-
 * round step. ExactConvolver abstracts how that integer convolution is
 * computed: the custom-CPU baseline and the PIM kernels use schoolbook
 * (O(n^2)); the SEAL-like baseline plugs in RNS+NTT (O(n log n)).
 *
 * Results are returned as 256-bit two's-complement values: negacyclic
 * coefficients are bounded by n * (q/2)^2 < 2^230 for the largest
 * parameter set, so the sign bit always survives.
 */

#ifndef PIMHE_POLY_CONVOLVER_H
#define PIMHE_POLY_CONVOLVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "poly/ring.h"

namespace pimhe {

/** Two's-complement helpers over U256. */
namespace signed256 {

/** True when the value is negative under two's-complement reading. */
inline bool
isNegative(const U256 &v)
{
    return v.bit(U256::numBits - 1);
}

/** Magnitude of a two's-complement value. */
inline U256
magnitude(const U256 &v)
{
    return isNegative(v) ? U256() - v : v;
}

/** Build a two's-complement value from sign and magnitude. */
inline U256
fromSignMagnitude(const U256 &mag, bool negative)
{
    return negative ? U256() - mag : mag;
}

} // namespace signed256

/**
 * Cumulative resource usage of a convolver engine. Host engines
 * report all zeros (the default); accelerator-backed engines expose
 * their simulator accounting so callers can attribute modelled time
 * and bus traffic to the ops that triggered convolutions — without
 * this layer ever naming the accelerator (poly/ cannot depend on
 * pim/).
 */
struct ConvolverUsage
{
    double modeledMs = 0;        //!< total modelled time charged
    double kernelCycles = 0;     //!< sum of per-launch kernel cycles
    std::uint64_t busBytes = 0;  //!< uploaded + downloaded bytes
    std::uint64_t launches = 0;  //!< kernel launches issued
};

/**
 * Panics unless convolution operand `name` holds the ring degree's n
 * coefficients. Every engine reads n coefficients of each operand, and
 * a ciphertext from outside the library (deserializeCiphertext) can
 * carry any degree.
 */
template <std::size_t N>
void
requireRingDegree(const Polynomial<N> &p, std::size_t n, const char *name)
{
    PIMHE_ASSERT(p.size() == n, "convolution operand ", name, " has ",
                 p.size(), " coefficients, not the ring degree ", n);
}

/**
 * Strategy interface: exact negacyclic convolution over Z of the
 * centred lifts of two reduced polynomials.
 */
template <std::size_t N>
class ExactConvolver
{
  public:
    virtual ~ExactConvolver() = default;

    /**
     * @return n two's-complement 256-bit coefficients of
     *         lift(a) * lift(b) mod (x^n + 1), computed over Z.
     */
    virtual std::vector<U256>
    convolveCentered(const Polynomial<N> &a,
                     const Polynomial<N> &b) const = 0;

    /** Human-readable engine name for reports. */
    virtual std::string name() const = 0;

    /**
     * Cumulative simulator accounting since construction. Host
     * engines keep the zero default; accelerator-backed engines
     * override (snapshot before/after an op to attribute usage).
     */
    virtual ConvolverUsage usage() const { return {}; }
};

/**
 * O(n^2) schoolbook convolver. This mirrors, on the host, exactly the
 * algorithm the paper maps onto PIM threads, and serves as the
 * correctness oracle for every other convolution engine.
 */
template <std::size_t N>
class SchoolbookConvolver : public ExactConvolver<N>
{
  public:
    explicit
    SchoolbookConvolver(const RingContext<N> &ring)
        : ring_(ring)
    {}

    std::vector<U256>
    convolveCentered(const Polynomial<N> &a,
                     const Polynomial<N> &b) const override
    {
        const std::size_t n = ring_.degree();
        requireRingDegree(a, n, "a");
        requireRingDegree(b, n, "b");
        std::vector<U256> la(n), lb(n);
        for (std::size_t i = 0; i < n; ++i) {
            la[i] = centeredLift(a[i]);
            lb[i] = centeredLift(b[i]);
        }
        std::vector<U256> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                // Wrapping two's-complement product and accumulate.
                const U256 p = la[i] * lb[j];
                const std::size_t k = i + j;
                if (k < n)
                    out[k] += p;
                else
                    out[k - n] -= p;
            }
        }
        return out;
    }

    std::string name() const override { return "schoolbook"; }

  private:
    U256
    centeredLift(const WideInt<N> &c) const
    {
        const auto [mag, neg] = ring_.toCentered(c);
        return signed256::fromSignMagnitude(mag.template convert<8>(),
                                            neg);
    }

    const RingContext<N> &ring_;
};

} // namespace pimhe

#endif // PIMHE_POLY_CONVOLVER_H
