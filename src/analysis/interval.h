/**
 * @file
 * Interval-domain abstract interpretation of the library's arithmetic
 * pipelines.
 *
 * The gen1 DPU has no native wide multiply, so every modular
 * operation is built from 32-bit limbs whose intermediate widths must
 * never overflow (wide_ops.h), and the host mirrors the same limb
 * discipline through BarrettReducer (modular/barrett.h),
 * MontgomeryReducer (modular/montgomery.h) and the Shoup products of
 * the host NTT (ntt/ntt.h). Each helper's correctness
 * rests on range side-conditions ("x < 2^(2k)", "the fold's carry
 * never leaves 32 bits", "r < 3q after one Barrett pass") that the
 * code can only assert dynamically — on values a given run happens to
 * produce.
 *
 * This analyzer closes that gap statically: values are abstracted to
 * intervals [lo, hi] over a 512-bit domain, and each primitive gets a
 * transfer function that mirrors its concrete dataflow step by step
 * (the three pseudo-Mersenne folds, the Karatsuba cross term, the
 * convolution accumulator, the Barrett and Montgomery remainder
 * bounds). Running the transfer functions over a BFV parameter set's
 * worst-case inputs ([0, q-1] operands, full-degree accumulations)
 * proves — for *all* inputs, not one run — that no limb or
 * accumulator overflows; a violated obligation is reported with the
 * exact trace of the offending operation.
 *
 * Barrett-style remainder bounds need relational precision a plain
 * interval join cannot express (r = x - qest*p with qest correlated
 * to x), so those two transfer functions carry the standard algebraic
 * bound evaluated exactly in the abstract domain; every other step is
 * straight interval propagation.
 */

#ifndef PIMHE_ANALYSIS_INTERVAL_H
#define PIMHE_ANALYSIS_INTERVAL_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bigint/wide_int.h"

namespace pimhe {
namespace analysis {

/**
 * Abstract value: 512 bits, enough for every bound the analyzer
 * forms (the largest is x_max * (2^(2k) mod q) < 2^384 for a
 * full-width 128-bit modulus). Products are computed full-width and
 * checked, so even absurd registered parameters saturate into a
 * reported violation instead of silently wrapping.
 */
using AbsVal = WideInt<16>;

/** Closed interval [lo, hi] over AbsVal. */
struct Interval
{
    AbsVal lo;
    AbsVal hi;

    static Interval
    exact(const AbsVal &v)
    {
        return Interval{v, v};
    }

    /** [0, hi] — the shape almost every obligation uses. */
    static Interval
    upTo(const AbsVal &hi)
    {
        return Interval{AbsVal(), hi};
    }

    /** Bits needed to represent the upper bound. */
    std::size_t bits() const { return hi.bitLength(); }
};

/** One recorded abstract-interpretation step. */
struct IntervalStep
{
    std::string op;     //!< primitive name, e.g. "fold 2/3"
    std::string detail; //!< inputs, constraint, computed bound
    AbsVal bound;       //!< the step's resulting upper bound
    std::size_t widthBits = 0; //!< width obligation (0 = relational)
    bool ok = true;

    std::string describe() const;
};

/**
 * Ordered trace of transfer-function applications. On a violated
 * obligation the trace pinpoints the exact operation: everything
 * before it holds, the flagged step carries the failing bound.
 */
class IntervalTrace
{
  public:
    /** Record a width obligation: bound must fit `width_bits` bits. */
    bool
    requireWidth(const std::string &op, const std::string &detail,
                 const AbsVal &bound, std::size_t width_bits)
    {
        const bool fits = bound.bitLength() <= width_bits;
        push(op, detail, bound, width_bits, fits);
        return fits;
    }

    /** Record a relational obligation with its own pass/fail. */
    bool
    require(const std::string &op, const std::string &detail,
            const AbsVal &bound, bool holds)
    {
        push(op, detail, bound, 0, holds);
        return holds;
    }

    /** Record an informational step that always holds. */
    void
    info(const std::string &op, const std::string &detail,
         const AbsVal &bound)
    {
        push(op, detail, bound, 0, true);
    }

    bool ok() const { return firstBad_ == kNone; }
    const std::vector<IntervalStep> &steps() const { return steps_; }

    /** The first violated step (trace must not be ok()). */
    const IntervalStep &firstViolation() const;

    /** Full trace rendering; violated steps are marked. */
    std::string describe() const;

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    void
    push(const std::string &op, const std::string &detail,
         const AbsVal &bound, std::size_t width_bits, bool ok)
    {
        steps_.push_back({op, detail, bound, width_bits, ok});
        if (!ok && firstBad_ == kNone)
            firstBad_ = steps_.size() - 1;
    }

    std::vector<IntervalStep> steps_;
    std::size_t firstBad_ = kNone;
};

/**
 * Arithmetic shape of one registered parameter set, decoupled from
 * BfvParams<N> so deliberately broken sets (e.g. a fold constant
 * that does not fit 32 bits) are still expressible and rejectable.
 */
struct ParamsSpec
{
    std::string name;      //!< label for reports
    std::size_t limbs = 1; //!< 32-bit limbs per coefficient
    AbsVal q;              //!< ciphertext modulus
    std::size_t n = 0;     //!< ring degree (convolution length)
    std::uint64_t t = 0;   //!< plaintext modulus
};

/** Outcome of analyzing one subject (a params set or a prime). */
struct IntervalReport
{
    std::string subject;
    IntervalTrace trace;

    bool ok() const { return trace.ok(); }

    /** One-line verdict plus, on failure, the offending-op trace. */
    std::string summary() const;
};

/**
 * Prove (or refute) that every arithmetic pipeline the PIM kernels
 * and host reducers run for this parameter set stays in range:
 * pseudo-Mersenne shape and fold chain (wide_ops.h), Karatsuba
 * intermediates, the negacyclic convolution accumulator (kernels.h),
 * and the host Barrett reducer (modular/barrett.h).
 */
IntervalReport analyzeParamsSet(const ParamsSpec &spec);

/**
 * Prove the dpuModMul30 Barrett pipeline safe for an NTT prime p at
 * transform length n (ntt_kernel.h): mu fits 32 bits, products fit
 * the shift path, and the remainder bound clears two conditional
 * subtractions.
 */
IntervalReport analyzeNttPrime(std::uint32_t p, std::uint32_t n);

/**
 * Prove the MontgomeryReducer pipeline safe for a word-sized odd
 * modulus p (modular/montgomery.h): REDC output < 2p and one
 * conditional subtraction suffices.
 */
IntervalReport analyzeMontgomeryPrime(std::uint64_t p);

/**
 * Prove the host NTT and RNS arithmetic safe for a word-sized prime p
 * at transform length n (ntt/ntt.h, ntt/rns.h): p is odd, NTT-friendly
 * and below 2^62; a Shoup product x*w - floor(x*w'/2^64)*p lies in
 * [0, 2p) for every x < 2^64 and w < p; the lazy forward values stay
 * below 4p and the inverse ones below 2p; the residue step's two Shoup
 * terms sum below 4p; and the CRT sum of k terms below P fits the
 * five-word accumulator. The pointwise product's REDC bound is
 * analyzeMontgomeryPrime's.
 */
IntervalReport analyzeHostNttPrime(std::uint64_t p, std::size_t n);

/**
 * Prove the client's NTT-resident products exact and in range for a
 * parameter set over the basis `primes` (ntt/rns.h, NttResidentCore):
 * the basis product P exceeds 2 * n * floor(q/2), the bound of a
 * small operand against a reduced one; Garner's digit steps stay in a
 * word; the sum of digits times radixes mod q stays in the one-word
 * Barrett window (below 2^(k + 62), k the bit length of q); and so
 * does decryption's t * (q - 1) + floor(q/2). Each prime's
 * NTT and REDC bounds are analyzeHostNttPrime's and
 * analyzeMontgomeryPrime's.
 */
IntervalReport analyzeClientBasis(const ParamsSpec &spec,
                                  std::span<const std::uint64_t> primes);

/** Build a ParamsSpec from a concrete BfvParams instantiation. */
template <std::size_t N, typename ParamsT>
ParamsSpec
specOfParams(const ParamsT &params, const std::string &name)
{
    ParamsSpec spec;
    spec.name = name;
    spec.limbs = N;
    for (std::size_t l = 0; l < N; ++l)
        spec.q.setLimb(l, params.q.limb(l));
    spec.n = params.n;
    spec.t = params.t;
    return spec;
}

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_INTERVAL_H
