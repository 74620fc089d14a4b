/**
 * @file
 * Worst-case BFV noise-growth abstract interpretation over HE op DAGs.
 *
 * Every ciphertext in this library satisfies, over the integers,
 * ct(s) = Delta*m + e - q*k with Delta = floor(q/t); decryption
 * succeeds exactly when the invariant noise e stays below q/(2t).
 * This analyzer assigns every DAG node a sound upper bound B on
 * ||e||_inf, computed in the same 512-bit interval domain the
 * arithmetic analyzer (interval.h) uses, and records the obligation
 *
 *     2 * t * B < q
 *
 * at every node on a path to a decryption point. The first node that
 * violates it is reported with the exact op and multiplicative depth
 * (an IntervalTrace-style witness), so a plan whose mul chain
 * exhausts the budget is rejected *before* any launch.
 *
 * The transfer functions are derived from the concrete implementations
 * in src/bfv (encryptor.h, evaluator.h, keys.h), with r_t = q mod t,
 * eta the centred-binomial noise bound, n the ring degree:
 *
 *   fresh:      B = eta * (2n + 1)            (-u*e_pk + e1 + e2*s)
 *   add:        B = B1 + B2 + r_t             (Delta-carry residue)
 *   mulPlain:   B = n*(t-1)*B1 + r_t*ceil(n*(t-1)^2 / t)
 *   reduce(f):  B = sum B_i + (f-1)*r_t
 *   mul/square: the tensor-product bound below, plus relinearisation
 *               noise l*n*eta*(2^w - 1) with l = ceil(bits(q)/w)
 *
 * The tensor-product bound uses ct_i(s) = Delta*m_i + e_i - q*k_i
 * with ||k_i|| <= ceil((n+1)/2) + 1 + ceil(B_i/q) (centred
 * components) and tracks every term of t/q * ct_a(s)*ct_b(s) reduced
 * mod q, including the scale-rounding residue (1 + n + n^2)/2 from
 * rounding the three output components independently.
 *
 * Soundness is never hand-trusted: tests/test_noise_fuzz.cpp runs
 * hundreds of seeded random DAGs end-to-end and asserts the measured
 * exact noise budget (Decryptor::noiseBudgetBitsExact) never falls
 * below the static bound computed here.
 */

#ifndef PIMHE_ANALYSIS_NOISE_H
#define PIMHE_ANALYSIS_NOISE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/he_dag.h"
#include "analysis/interval.h"

namespace pimhe {
namespace analysis {

/**
 * BFV-semantic shape of one parameter set. Decoupled from
 * BfvParams<N> (like ParamsSpec) so deliberately broken sets — e.g. a
 * plaintext modulus at or above q — are expressible and rejectable
 * with a witness instead of a constructor panic.
 */
struct NoiseSpec
{
    std::string name;        //!< label for reports
    std::size_t limbs = 1;   //!< 32-bit limbs per coefficient
    std::size_t n = 0;       //!< ring degree
    AbsVal q;                //!< ciphertext modulus
    std::uint64_t t = 2;     //!< plaintext modulus
    unsigned eta = 1;        //!< centred-binomial bound: |e| <= eta
    std::size_t relinBaseBits = 8; //!< relin digit width w
};

/** Noise bound and budget of one DAG node. */
struct NodeNoise
{
    NodeId node = 0;
    HeOp op = HeOp::Input;
    AbsVal bound;       //!< worst-case ||invariant noise||_inf
    /** bits(q) - 1 - bits(bound): the static floor under the measured
     *  noiseBudgetBitsExact. Negative = statically undecryptable. */
    std::int64_t budgetBits = 0;
    std::size_t mulDepth = 0;
};

/** Outcome of certifying one DAG against one parameter set. */
struct NoiseReport
{
    std::string subject; //!< "<spec name>" or "<spec>/<plan tag>"
    IntervalTrace trace;
    std::vector<NodeNoise> nodes; //!< one entry per DAG node

    bool ok() const { return trace.ok(); }

    /** Smallest static budget over all Output nodes;
     *  INT64_MAX when the plan has no outputs. */
    std::int64_t minOutputBudgetBits() const;

    /** One-line verdict; on failure the exact op/depth witness. */
    std::string summary() const;
};

/** Static budget bits for a noise bound: bits(q) - 1 - bits(bound). */
std::int64_t staticBudgetBits(const AbsVal &bound, const AbsVal &q);

/**
 * Run the worst-case noise transfer functions over the DAG and attach
 * the decryptability obligation 2*t*B < q to every node that reaches
 * an Output node. Invalid specs (t < 2, t >= q, degenerate degree)
 * are rejected up front with a "params" witness.
 */
NoiseReport analyzeNoise(const HeDag &dag, const NoiseSpec &spec);

/** Build a NoiseSpec from a concrete BfvParams instantiation. */
template <std::size_t N, typename ParamsT>
NoiseSpec
specOfBfv(const ParamsT &params, const std::string &name)
{
    NoiseSpec spec;
    spec.name = name;
    spec.limbs = N;
    spec.n = params.n;
    for (std::size_t l = 0; l < N; ++l)
        spec.q.setLimb(l, params.q.limb(l));
    spec.t = params.t;
    spec.eta = static_cast<unsigned>(params.noiseEta);
    spec.relinBaseBits = params.relinBaseBits;
    return spec;
}

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_NOISE_H
