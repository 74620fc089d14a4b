/**
 * @file
 * BFV worst-case noise transfer functions over the interval domain.
 *
 * Every bound is an exact integer computed in saturating 512-bit
 * arithmetic: a product or sum that leaves the domain clamps to
 * AbsVal::maxValue(), which is sound (a saturated bound can only fail
 * the decryptability obligation harder) and keeps absurdly deep
 * chains rejectable instead of silently wrapping.
 */

#include "analysis/noise.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace pimhe {
namespace analysis {

namespace {

/** a + b, clamped to the domain maximum on overflow. */
AbsVal
satAdd(const AbsVal &a, const AbsVal &b)
{
    const AbsVal r = a + b;
    return r < a ? AbsVal::maxValue() : r;
}

/** a * b, clamped to the domain maximum on overflow. */
AbsVal
satMul(const AbsVal &a, const AbsVal &b)
{
    const WideInt<32> full = a.mulFull(b);
    for (std::size_t l = 16; l < 32; ++l)
        if (full.limb(l) != 0)
            return AbsVal::maxValue();
    return full.convert<16>();
}

/** ceil(a / b) for b >= 1, saturation-aware. */
AbsVal
divCeil(const AbsVal &a, const AbsVal &b)
{
    PIMHE_ASSERT(!(b == AbsVal()), "division by zero bound");
    const AbsVal bm1 = b - AbsVal(1ULL);
    if (AbsVal::maxValue() - bm1 < a)
        return AbsVal::maxValue(); // a + (b-1) would wrap
    return divmod(a + bm1, b).first;
}

/** Render a bound compactly: exact when small, 2^b order otherwise. */
std::string
renderBits(const AbsVal &v)
{
    if (v.fitsUint64())
        return v.toDecimalString();
    std::ostringstream os;
    os << "~2^" << v.bitLength();
    return os.str();
}

/** Everything the per-op transfer functions need, precomputed. */
struct Ctx
{
    const NoiseSpec &spec;
    AbsVal q;
    AbsVal t;      //!< plaintext modulus
    AbsVal rt;     //!< r_t = q mod t
    AbsVal tm1;    //!< t - 1 (max plaintext coefficient magnitude)
    AbsVal n;      //!< ring degree (expansion factor)
    AbsVal fresh;  //!< eta * (2n + 1)
    AbsVal relin;  //!< l * n * eta * (2^w - 1)
    AbsVal round;  //!< (n^2 + n + 2) / 2 scale-rounding residue
};

Ctx
makeCtx(const NoiseSpec &spec)
{
    Ctx c{spec, spec.q, AbsVal(spec.t), AbsVal(), AbsVal(spec.t - 1),
          AbsVal(static_cast<std::uint64_t>(spec.n)), AbsVal(),
          AbsVal(), AbsVal()};
    c.rt = mod(c.q, c.t);
    // Fresh encryption: e = -u*e_pk + e1 + e2*s with ternary u, s and
    // centred-binomial errors bounded by eta (encryptor.h):
    // ||e|| <= n*eta + eta + n*eta = eta*(2n + 1).
    const AbsVal eta(static_cast<std::uint64_t>(spec.eta));
    c.fresh = satMul(eta, satAdd(satMul(AbsVal(2ULL), c.n),
                                 AbsVal(1ULL)));
    // Relinearisation adds sum_j e_j (x) d_j with l = ceil(bits(q)/w)
    // digits of magnitude < 2^w (keys.h / evaluator.h).
    const std::size_t w = std::max<std::size_t>(1, spec.relinBaseBits);
    const std::uint64_t digits = (c.q.bitLength() + w - 1) / w;
    c.relin = satMul(satMul(AbsVal(digits), c.n),
                     satMul(eta, AbsVal::oneShl(w) - AbsVal(1ULL)));
    // Independent rounding of the three tensor components evaluated
    // at s: 1/2 * (1 + n + n^2), taken as its integer ceiling.
    c.round = divmod(satAdd(satMul(c.n, c.n),
                            satAdd(c.n, AbsVal(2ULL))),
                     AbsVal(2ULL))
                  .first;
    return c;
}

/** ||k|| bound of ct(s) = Delta*m + e - q*k with centred components:
 *  ceil((n+1)/2) + 1 + ceil(B/q). */
AbsVal
wrapBound(const Ctx &c, const AbsVal &b)
{
    const AbsVal half =
        AbsVal((static_cast<std::uint64_t>(c.spec.n) + 2) / 2);
    return satAdd(satAdd(half, AbsVal(1ULL)), divCeil(b, c.q));
}

/**
 * Worst-case invariant noise of the BFV tensor product of operands
 * bounded by ba, bb, after relinearisation. Tracks every term of
 * t/q * ct_a(s) * ct_b(s) mod q (see noise.h header).
 */
AbsVal
mulBound(const Ctx &c, const AbsVal &ba, const AbsVal &bb)
{
    const AbsVal ka = wrapBound(c, ba);
    const AbsVal kb = wrapBound(c, bb);
    // E1: r_t * n * (t-1) * (ka + kb) — the -q*k_i terms folded
    // against the partner's message.
    const AbsVal e1 = satMul(satMul(c.rt, c.n),
                             satMul(c.tm1, satAdd(ka, kb)));
    // E2: t * n * (ka*bb + kb*ba) — -q*k_i against partner's noise.
    const AbsVal e2 = satMul(satMul(c.t, c.n),
                             satAdd(satMul(ka, bb), satMul(kb, ba)));
    // E3: n * (t-1) * (ba + bb) — t*Delta/q < 1 times cross terms.
    const AbsVal e3 = satMul(c.n, satMul(c.tm1, satAdd(ba, bb)));
    // E4: ceil(t * n * ba * bb / q) — the noise-noise product.
    const AbsVal e4 =
        divCeil(satMul(satMul(c.t, c.n), satMul(ba, bb)), c.q);
    // E5: 2 * r_t * n * (t-1) — message-term residue of scaling
    // Delta^2 * m_a*m_b back to Delta * (m_a*m_b mod t).
    const AbsVal e5 =
        satMul(AbsVal(2ULL), satMul(satMul(c.rt, c.n), c.tm1));
    AbsVal b = satAdd(e1, e2);
    b = satAdd(b, e3);
    b = satAdd(b, e4);
    b = satAdd(b, e5);
    b = satAdd(b, c.round);
    return satAdd(b, c.relin);
}

} // namespace

std::int64_t
staticBudgetBits(const AbsVal &bound, const AbsVal &q)
{
    return static_cast<std::int64_t>(q.bitLength()) - 1 -
           static_cast<std::int64_t>(bound.bitLength());
}

std::int64_t
NoiseReport::minOutputBudgetBits() const
{
    std::int64_t min_budget = INT64_MAX;
    for (const NodeNoise &nn : nodes)
        if (nn.op == HeOp::Output)
            min_budget = std::min(min_budget, nn.budgetBits);
    return min_budget;
}

std::string
NoiseReport::summary() const
{
    std::ostringstream os;
    if (ok()) {
        os << "noise '" << subject << "': plan certifies, " << nodes.size()
           << " node(s)";
        const std::int64_t b = minOutputBudgetBits();
        if (b != INT64_MAX)
            os << ", min output budget " << b << " bits";
        return os.str();
    }
    os << "noise '" << subject << "': REJECTED at\n"
       << trace.firstViolation().describe();
    return os.str();
}

NoiseReport
analyzeNoise(const HeDag &dag, const NoiseSpec &spec)
{
    NoiseReport report;
    report.subject = spec.name;
    IntervalTrace &tr = report.trace;

    // Structural obligations on the parameter set itself: a spec that
    // fails here is the "bad plain modulus" class — rejected with a
    // params witness before any transfer function runs.
    const AbsVal t_abs(spec.t);
    bool params_ok = true;
    params_ok &= tr.require("params", "plaintext modulus t >= 2",
                            t_abs, spec.t >= 2);
    params_ok &= tr.require(
        "params", "t < q (Delta = floor(q/t) vanishes otherwise)",
        t_abs, t_abs < spec.q);
    params_ok &= tr.require(
        "params", "ring degree is a power of two >= 4",
        AbsVal(static_cast<std::uint64_t>(spec.n)),
        spec.n >= 4 && (spec.n & (spec.n - 1)) == 0);
    params_ok &= tr.require(
        "params", "noise parameter eta >= 1",
        AbsVal(static_cast<std::uint64_t>(spec.eta)), spec.eta >= 1);
    params_ok &= tr.require(
        "params", "relin digit width in [1, 32]",
        AbsVal(static_cast<std::uint64_t>(spec.relinBaseBits)),
        spec.relinBaseBits >= 1 && spec.relinBaseBits <= 32);
    if (!params_ok)
        return report;

    const Ctx c = makeCtx(spec);
    const std::vector<bool> live = dag.reachesOutput();
    std::vector<AbsVal> bound(dag.size());

    const AbsVal two_t = satMul(AbsVal(2ULL), c.t);
    for (NodeId id = 0; id < dag.size(); ++id) {
        const HeNode &node = dag[id];
        const auto arg = [&](std::size_t i) {
            return bound[node.args[i]];
        };
        AbsVal b;
        switch (node.op) {
          case HeOp::Input:
            b = c.fresh;
            break;
          case HeOp::Add:
            b = satAdd(satAdd(arg(0), arg(1)), c.rt);
            break;
          case HeOp::MulPlain:
            // n*(t-1)*B + r_t * ceil(n*(t-1)^2 / t): the plaintext
            // operand multiplies the noise and the Delta-carry count.
            b = satAdd(satMul(satMul(c.n, c.tm1), arg(0)),
                       satMul(c.rt,
                              divCeil(satMul(c.n,
                                             satMul(c.tm1, c.tm1)),
                                      c.t)));
            break;
          case HeOp::Mul:
            b = mulBound(c, arg(0), arg(1));
            break;
          case HeOp::Square:
            b = mulBound(c, arg(0), arg(0));
            break;
          case HeOp::Reduce: {
            for (const NodeId a : node.args)
                b = satAdd(b, bound[a]);
            b = satAdd(b, satMul(AbsVal(node.args.size() - 1), c.rt));
            break;
          }
          case HeOp::Output:
            b = arg(0);
            break;
        }
        bound[id] = b;

        NodeNoise nn;
        nn.node = id;
        nn.op = node.op;
        nn.bound = b;
        nn.budgetBits = staticBudgetBits(b, c.q);
        nn.mulDepth = dag.mulDepth(id);
        report.nodes.push_back(nn);

        std::ostringstream detail;
        detail << dag.describe(id) << ": ||e|| <= " << renderBits(b)
               << ", static budget " << nn.budgetBits << " bits";
        if (live[id] || node.op == HeOp::Output) {
            // Decryptability obligation at every node on a path to a
            // decryption point (noise is monotone, so the first
            // violated node is the exact op that exhausts the budget).
            detail << " [needs 2*t*B < q]";
            tr.require(toString(node.op), detail.str(), b,
                       satMul(two_t, b) < c.q);
        } else {
            tr.info(toString(node.op), detail.str(), b);
        }
    }
    return report;
}

} // namespace analysis
} // namespace pimhe
