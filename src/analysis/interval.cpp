/**
 * @file
 * Transfer functions of the interval analyzer: pseudo-Mersenne fold
 * chain, Karatsuba intermediates, convolution accumulator, Barrett,
 * Montgomery and Shoup remainder bounds.
 */

#include "analysis/interval.h"

#include <algorithm>
#include <sstream>

#include "pim/config.h"

namespace pimhe {
namespace analysis {

namespace {

/** Render a bound compactly: exact when small, 2^b order otherwise. */
std::string
renderBound(const AbsVal &v)
{
    if (v.fitsUint64())
        return v.toDecimalString();
    std::ostringstream os;
    os << "~2^" << v.bitLength();
    return os.str();
}

/**
 * Full-width product with domain-overflow detection: a 512x512 bit
 * product that does not fit back into 512 bits saturates and records
 * a violation (sound: the saturated bound fails every later width
 * obligation too).
 */
AbsVal
mulChecked(IntervalTrace &trace, const std::string &op,
           const AbsVal &a, const AbsVal &b)
{
    const WideInt<32> full = a.mulFull(b);
    bool fits = true;
    for (std::size_t l = 16; l < 32; ++l)
        if (full.limb(l) != 0)
            fits = false;
    if (!fits) {
        trace.require(op, "abstract product exceeds the analyzer's "
                          "512-bit domain",
                      AbsVal::maxValue(), false);
        return AbsVal::maxValue();
    }
    return full.convert<16>();
}

AbsVal
minVal(const AbsVal &a, const AbsVal &b)
{
    return a < b ? a : b;
}

} // namespace

std::string
IntervalStep::describe() const
{
    std::ostringstream os;
    os << (ok ? "  ok  " : "  FAIL") << " " << op << ": " << detail
       << " [bound " << renderBound(bound);
    if (widthBits != 0)
        os << ", must fit " << widthBits << " bits";
    os << "]";
    return os.str();
}

const IntervalStep &
IntervalTrace::firstViolation() const
{
    PIMHE_ASSERT(firstBad_ != kNone,
                 "no violation recorded in this trace");
    return steps_[firstBad_];
}

std::string
IntervalTrace::describe() const
{
    std::ostringstream os;
    for (const auto &s : steps_)
        os << s.describe() << "\n";
    return os.str();
}

std::string
IntervalReport::summary() const
{
    std::ostringstream os;
    os << "interval analysis '" << subject << "': ";
    if (ok()) {
        os << "all " << trace.steps().size()
           << " obligations hold\n";
    } else {
        os << "VIOLATION at " << trace.firstViolation().op << "\n"
           << trace.describe();
    }
    return os.str();
}

IntervalReport
analyzeParamsSet(const ParamsSpec &spec)
{
    IntervalReport report;
    report.subject = spec.name;
    IntervalTrace &tr = report.trace;

    const std::size_t limbs = spec.limbs;
    const AbsVal &q = spec.q;
    const AbsVal one(1ULL);

    // The kernels only instantiate Karatsuba at 1/2/4 limbs.
    if (!tr.require("limb count",
                    "kernel arithmetic supports 1, 2 or 4 limbs",
                    AbsVal(static_cast<std::uint64_t>(limbs)),
                    limbs == 1 || limbs == 2 || limbs == 4))
        return report;

    const std::size_t k = q.bitLength();
    {
        std::ostringstream d;
        d << "k = bitLength(q) = " << k << " must satisfy "
          << 32 * (limbs - 1) << " < k <= " << 32 * limbs;
        if (!tr.require("modulus shape", d.str(), q,
                        k > 32 * (limbs - 1) && k <= 32 * limbs))
            return report;
    }

    // c = 2^k - q: the pseudo-Mersenne fold constant must be a
    // single 32-bit limb (dpuFoldOnce multiplies by it with one
    // mul32 per high limb).
    const AbsVal c = AbsVal::oneShl(k) - q;
    if (!tr.requireWidth("pseudo-mersenne constant",
                         "c = 2^k - q feeds mul32 in dpuFoldOnce",
                         c, 32))
        return report;

    // Convergence precondition of the 3-fold reduction (mirrors the
    // assert in dpuPseudoMersenneReduce).
    {
        const bool holds =
            k / 2 >= 32 || c <= AbsVal::oneShl(k / 2);
        std::ostringstream d;
        d << "c <= 2^(k/2) = 2^" << k / 2
          << " so three folds reach < 2q";
        tr.require("fold convergence precondition", d.str(), c,
                   holds);
    }

    // Operands entering every kernel are reduced: [0, q-1].
    const AbsVal opmax = q - one;

    // Karatsuba product of two reduced operands fits 2*limbs limbs.
    AbsVal prodmax = mulChecked(tr, "karatsuba product", opmax, opmax);
    tr.requireWidth("karatsuba product",
                    "(q-1)^2 into the 2*limbs-limb product buffer",
                    prodmax, 64 * limbs);

    // Karatsuba cross term z1 (incl. carry fix-ups) equals
    // (a_lo+a_hi)*(b_lo+b_hi) and is accumulated in 2h+2 limbs.
    if (limbs >= 2) {
        const std::size_t h = limbs / 2;
        const AbsVal samax =
            AbsVal::oneShl(32 * h + 1) - AbsVal(2ULL);
        const AbsVal z1max =
            mulChecked(tr, "karatsuba cross term", samax, samax);
        std::ostringstream d;
        d << "(a_lo+a_hi)*(b_lo+b_hi) into the " << 2 * h + 2
          << "-limb z1 buffer";
        tr.requireWidth("karatsuba cross term", d.str(), z1max,
                        32 * (2 * h + 2));
    }

    // The three pseudo-Mersenne folds, with the exact output widths
    // dpuPseudoMersenneReduce declares (limbs+2, limbs+2, limbs+1).
    const AbsVal two_k = AbsVal::oneShl(k);
    AbsVal bound = prodmax;
    const std::size_t out_limbs[3] = {limbs + 2, limbs + 2,
                                      limbs + 1};
    for (int fold = 0; fold < 3; ++fold) {
        const AbsVal lo = minVal(bound, two_k - one);
        const AbsVal hi = bound.shr(k);
        std::ostringstream op;
        op << "fold " << fold + 1 << "/3";
        const AbsVal prod = mulChecked(tr, op.str(), hi, c);
        bound = lo + prod;
        std::ostringstream d;
        d << "(in mod 2^k) + (in >> k)*c into " << out_limbs[fold]
          << " limbs (carry-out must be zero)";
        if (!tr.requireWidth(op.str(), d.str(), bound,
                             32 * out_limbs[fold]))
            return report;
    }

    // Two branch-free conditional subtractions need w < 3q.
    {
        const AbsVal three_q = q + q + q;
        std::ostringstream d;
        d << "post-fold value < 3q so two conditional subtractions "
          << "finish the reduction";
        tr.require("final conditional subtractions", d.str(), bound,
                   bound < three_q);
    }

    // Ring degree feeds the convolution accumulator bound.
    {
        const bool pow2 = spec.n >= 2 && (spec.n & (spec.n - 1)) == 0;
        std::ostringstream d;
        d << "ring degree n = " << spec.n << " is a power of two";
        if (!tr.require("ring degree", d.str(),
                        AbsVal(static_cast<std::uint64_t>(spec.n)),
                        pow2))
            return report;
    }

    // Negacyclic convolution accumulator: n centred products in
    // two's complement over pim::convAccLimbs limbs.
    {
        const std::size_t acc_limbs = pim::convAccLimbs(limbs);
        const AbsVal half = q.shr(1);
        const AbsVal hh =
            mulChecked(tr, "conv accumulator", half, half);
        const AbsVal acc = mulChecked(
            tr, "conv accumulator", hh,
            AbsVal(static_cast<std::uint64_t>(spec.n)));
        std::ostringstream d;
        d << "n * floor(q/2)^2 magnitude in signed " << acc_limbs
          << "-limb accumulator";
        tr.requireWidth("conv accumulator", d.str(), acc,
                        32 * acc_limbs - 1);
    }

    // Host-side BarrettReducer over WideInt<2*limbs>.
    {
        const std::size_t wide_bits = 64 * limbs;
        std::ostringstream d;
        d << "2k+1 = " << 2 * k + 1
          << " <= double-width type of " << wide_bits << " bits";
        if (!tr.require(
                "host barrett width", d.str(),
                AbsVal(static_cast<std::uint64_t>(2 * k + 1)),
                2 * k + 1 <= wide_bits))
            return report;

        // mu = floor(2^(2k) / q); one reduction pass leaves
        //   r < x*(2^(2k) - mu*q)/2^(2k) + mu*q/2^(k+1) + q < 3q
        // (relational bound — a plain interval join on x - q3*q
        // would lose the x~q3 correlation entirely).
        const AbsVal two_2k = AbsVal::oneShl(2 * k);
        const AbsVal mu = divmod(two_2k, q).first;
        const AbsVal muq = mulChecked(tr, "host barrett", mu, q);
        const AbsVal rem2k = two_2k - muq;
        const AbsVal xmax = two_2k - one;
        const AbsVal term1 =
            divmod(mulChecked(tr, "host barrett", xmax, rem2k),
                   two_2k)
                .first;
        const AbsVal term2 = muq.shr(k + 1);
        const AbsVal rmax = term1 + term2 + q + AbsVal(2ULL);
        const AbsVal three_q = q + q + q;
        std::ostringstream rd;
        rd << "one Barrett pass leaves r < 3q (conditional "
           << "subtraction loop terminates immediately)";
        tr.require("host barrett remainder", rd.str(), rmax,
                   rmax < three_q);
    }

    return report;
}

IntervalReport
analyzeNttPrime(std::uint32_t p, std::uint32_t n)
{
    IntervalReport report;
    {
        std::ostringstream s;
        s << "ntt prime p=" << p << " n=" << n;
        report.subject = s.str();
    }
    IntervalTrace &tr = report.trace;
    const AbsVal P(static_cast<std::uint64_t>(p));

    if (!tr.requireWidth("prime width",
                         "p feeds the 29/31-bit shift path of "
                         "dpuModMul30",
                         P, 30))
        return report;
    if (!tr.require("prime floor", "p >= 3 so mu and inverses exist",
                    P, p >= 3))
        return report;
    {
        std::ostringstream d;
        d << "p == 1 mod 2n (n = " << n << ") for negacyclic roots";
        tr.require("ntt-friendly", d.str(), P,
                   n >= 2 && (p - 1) % (2ULL * n) == 0);
    }

    // mu = floor(2^60 / p) is stored in a uint32 field.
    const std::uint64_t mu = (1ULL << 60) / p;
    if (!tr.requireWidth("barrett mu width",
                         "mu = floor(2^60/p) stored as uint32 "
                         "(requires p > 2^28)",
                         AbsVal(mu), 32))
        return report;

    // Worst product entering the reduction.
    const AbsVal xmax = mulChecked(tr, "product width", P - AbsVal(1ULL),
                                   P - AbsVal(1ULL));
    tr.requireWidth("product width",
                    "(p-1)^2 must stay below 2^60 for the "
                    "x >> 29 funnel shift",
                    xmax, 60);

    // r < x*(2^60 mod p)/2^60 + p*mu/2^31 + p, evaluated exactly
    // (+2 absorbs the floor slack of the derivation).
    const AbsVal two60 = AbsVal::oneShl(60);
    const AbsVal rem60 = AbsVal((1ULL << 60) % p);
    const AbsVal term1 =
        divmod(mulChecked(tr, "remainder bound", xmax, rem60), two60)
            .first;
    // p < 2^30 and mu < 2^32 after the checks above, so p*mu fits 64
    // bits exactly.
    const AbsVal term2 = AbsVal((static_cast<std::uint64_t>(p) * mu) >> 31);
    const AbsVal rmax = term1 + term2 + P + AbsVal(2ULL);
    const AbsVal three_p = P + P + P;
    tr.require("remainder bound",
               "r < 3p so two conditional subtractions reduce fully",
               rmax, rmax < three_p);
    tr.requireWidth("remainder register",
                    "3p must fit the 32-bit remainder register",
                    three_p, 32);

    // dpuModAdd30 / dpuModSub30 operate on reduced operands.
    tr.requireWidth("modadd range",
                    "a + b <= 2(p-1) within the 32-bit adder",
                    P + P - AbsVal(2ULL), 32);

    return report;
}

IntervalReport
analyzeMontgomeryPrime(std::uint64_t p)
{
    IntervalReport report;
    {
        std::ostringstream s;
        s << "montgomery modulus p=" << p;
        report.subject = s.str();
    }
    IntervalTrace &tr = report.trace;
    const AbsVal P(p);

    if (!tr.require("modulus odd", "p odd and >= 3 so -p^-1 mod 2^64 "
                                   "exists",
                    P, p >= 3 && (p & 1) == 1))
        return report;
    if (!tr.requireWidth("modulus width",
                         "p < 2^62 keeps u = (t + m*p) >> 64 below "
                         "2p in 64 bits",
                         P, 62))
        return report;

    // mulMont: t = a*b with a, b < p; REDC precondition t < p*2^64.
    const AbsVal tmax = mulChecked(tr, "redc input", P - AbsVal(1ULL),
                                   P - AbsVal(1ULL));
    const AbsVal p_shift64 = mulChecked(tr, "redc input", P,
                                        AbsVal::oneShl(64));
    tr.require("redc input", "t = a*b < p * 2^64", tmax,
               tmax < p_shift64);

    // u = (t + m*p) / 2^64 with m <= 2^64 - 1.
    const AbsVal m_p = mulChecked(tr, "redc output",
                                  AbsVal::oneShl(64) - AbsVal(1ULL),
                                  P);
    const AbsVal umax = (tmax + m_p).shr(64);
    tr.require("redc output",
               "u < 2p so one conditional subtraction reduces fully",
               umax, umax < P + P);

    return report;
}

IntervalReport
analyzeHostNttPrime(std::uint64_t p, std::size_t n)
{
    IntervalReport report;
    {
        std::ostringstream s;
        s << "host ntt prime p=" << p << " n=" << n;
        report.subject = s.str();
    }
    IntervalTrace &tr = report.trace;
    const AbsVal P(p);
    const AbsVal one(1ULL);
    const AbsVal two_p = P + P;
    const AbsVal four_p = two_p + two_p;

    if (!tr.require("modulus odd", "p odd and >= 3 so the Montgomery "
                                   "and Shoup constants exist",
                    P, p >= 3 && (p & 1) == 1))
        return report;
    {
        const bool pow2 = n >= 2 && (n & (n - 1)) == 0;
        std::ostringstream d;
        d << "n = " << n << " a power of two and p == 1 mod 2n for "
          << "negacyclic roots";
        if (!tr.require("ntt-friendly", d.str(), P,
                        pow2 && (p - 1) % (2 * n) == 0))
            return report;
    }
    if (!tr.requireWidth("lazy range width",
                         "4p fits a 64-bit word (p < 2^62)", four_p,
                         64))
        return report;

    // Shoup: w' = floor(w*2^64/p) leaves e = w*2^64 - w'*p in [0, p),
    // and q = floor(x*w'/2^64) >= (x*w' - 2^64 + 1)/2^64, so
    //   r*2^64 = x*w*2^64 - q*p*2^64 <= x*e + (2^64 - 1)*p
    // (relational, like the Barrett bounds). q <= x*w/p keeps r >= 0.
    const AbsVal xmax = AbsVal::oneShl(64) - one;
    const AbsVal rmax =
        (mulChecked(tr, "shoup product", xmax, P - one) +
         mulChecked(tr, "shoup product", xmax, P))
            .shr(64);
    if (!tr.require("shoup product",
                    "x*w - floor(x*w'/2^64)*p < 2p for every x < 2^64 "
                    "and w < p",
                    rmax, rmax < two_p))
        return report;

    // Forward (Cooley-Tukey): X, Y < 4p; X' = X - 2p if X >= 2p, so
    // X' < 2p; T = shoup(Y) <= rmax. Outputs X' + T and X' - T + 2p.
    const AbsVal fwd_sum = two_p - one + rmax;
    const AbsVal fwd_diff = two_p - one + two_p;
    tr.require("forward butterfly",
               "X' + T < 4p (next stage's input range)", fwd_sum,
               fwd_sum < four_p);
    tr.require("forward butterfly",
               "X' - T + 2p in [1, 4p) since T < 2p", fwd_diff,
               fwd_diff < four_p);
    tr.info("forward canonicalisation",
            "< 4p: conditional subtractions of 2p then p give [0, p)",
            P - one);

    // Inverse (Gentleman-Sande): X, Y < 2p; X + Y < 4p, one
    // conditional subtraction of 2p; X - Y + 2p < 4p feeds a Shoup
    // product (< 2p). The closing scale is a Shoup product plus one
    // conditional subtraction.
    const AbsVal inv_sum = two_p - one + two_p - one;
    tr.require("inverse butterfly",
               "X + Y < 4p, one subtraction of 2p leaves < 2p", inv_sum,
               inv_sum < four_p);
    tr.require("inverse butterfly",
               "X - Y + 2p < 4p fits a word for the Shoup product",
               fwd_diff, fwd_diff < four_p);

    // Residues: r*2^64 + word mod p as two Shoup terms.
    const AbsVal residue_sum = rmax + rmax;
    tr.require("residue step",
               "two Shoup terms sum below 4p: conditional subtractions "
               "of 2p then p give [0, p)",
               residue_sum, residue_sum < four_p);

    // CRT: each term w*(P/p) with w < p is below P < 2^256 (RnsBasis
    // asserts the product's width), and a basis has at most 128 primes
    // (each at least 2 bits wide), so the sum fits five words and at
    // most k - 1 subtractions of P reduce it.
    const AbsVal crt_sum = mulChecked(tr, "crt accumulator",
                                      AbsVal(128ULL),
                                      AbsVal::oneShl(256) - one);
    tr.requireWidth("crt accumulator",
                    "k * P < 128 * 2^256 in the five-word accumulator",
                    crt_sum, 320);

    return report;
}

IntervalReport
analyzeClientBasis(const ParamsSpec &spec,
                   std::span<const std::uint64_t> primes)
{
    IntervalReport report;
    {
        std::ostringstream s;
        s << "client basis " << spec.name << ", " << primes.size()
          << " prime(s)";
        report.subject = s.str();
    }
    IntervalTrace &tr = report.trace;
    const AbsVal one(1ULL);
    const AbsVal &q = spec.q;
    const std::size_t k = q.bitLength();
    if (!tr.require("basis", "at least one prime, q >= 3", q,
                    !primes.empty() && AbsVal(2ULL) < q))
        return report;

    // Exactness: u * p or c * s is at most n * floor(q/2) in
    // magnitude, and recombines into (-P/2, P/2) when P > 2 * that.
    AbsVal product = one;
    std::uint64_t lo = ~0ULL;
    std::uint64_t hi = 0;
    for (const std::uint64_t p : primes) {
        product = mulChecked(tr, "basis product", product, AbsVal(p));
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    const AbsVal bound =
        mulChecked(tr, "product bound", AbsVal(2ULL * spec.n), q.shr(1));
    {
        std::ostringstream d;
        d << "P ~2^" << product.bitLength()
          << " > 2 * n * floor(q/2) for n = " << spec.n;
        tr.require("basis bound", d.str(), bound, bound < product);
    }

    // Garner digit m: r + 2 * p_m - a_l with r < p_m and a_l < p_l
    // lies in (0, 3 * p_m), so every digit prime must exceed half of
    // every other one and 3 * p_m must fit a word.
    tr.require("garner digit", "a_l < 2 * p_m for every pair of primes",
               AbsVal(hi), AbsVal(hi) < AbsVal(lo) + AbsVal(lo));
    tr.requireWidth("garner digit", "r + 2 * p_m - a_l < 3 * p_m",
                    AbsVal(hi) + AbsVal(hi) + AbsVal(hi), 64);

    // Garner's sum of digits a_m < p_m times (p_0 ... p_{m-1} mod q),
    // reduced in one Barrett step: below 2^(k + 62).
    AbsVal sum;
    AbsVal radix = one;
    for (const std::uint64_t p : primes) {
        sum += mulChecked(tr, "garner sum", AbsVal(p - 1),
                          divmod(radix, q).second);
        radix = mulChecked(tr, "garner sum", radix, AbsVal(p));
    }
    tr.requireWidth("garner sum",
                    "sum (p_m - 1) * (radix_m mod q) below 2^(k+62)", sum,
                    k + 62);

    // Decryption's rounding: t * v + floor(q/2) with v < q.
    const AbsVal rounding =
        mulChecked(tr, "decryption rounding", AbsVal(spec.t), q - one) +
        q.shr(1);
    tr.requireWidth("decryption rounding",
                    "t * (q - 1) + floor(q/2) below 2^(k+62)", rounding,
                    k + 62);
    return report;
}

} // namespace analysis
} // namespace pimhe
