/**
 * @file
 * Static HE-plan certifier tests: DAG IR structure, noise-budget
 * certification in both directions (clean shipped-op plans certify
 * across the full parameter grid; seeded violations are rejected with
 * exact witnesses), resident-capacity obligations, the exact-integer
 * decryptor budget, and the verifyBeforeLaunch gate rejecting a plan
 * before any simulated cycle.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "analysis/he_dag.h"
#include "analysis/noise.h"
#include "analysis/plan_cost.h"
#include "pimhe/orchestrator.h"
#include "pimhe/plan.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;
namespace an = pimhe::analysis;

// ----- plan shapes (mirrors the tools/pim_certify grid) -----

an::HeDag
addChain(std::size_t depth)
{
    an::HeDag dag;
    an::NodeId acc = dag.input("x0");
    for (std::size_t i = 1; i <= depth; ++i)
        acc = dag.add(acc, dag.input("x" + std::to_string(i)));
    dag.output(acc);
    return dag;
}

an::HeDag
treeReduce(std::size_t fan_in)
{
    an::HeDag dag;
    std::vector<an::NodeId> terms;
    for (std::size_t i = 0; i < fan_in; ++i)
        terms.push_back(dag.input());
    dag.output(dag.reduce(std::move(terms)));
    return dag;
}

an::HeDag
mulChain(std::size_t depth)
{
    an::HeDag dag;
    an::NodeId acc = dag.input("x0");
    for (std::size_t i = 1; i <= depth; ++i)
        acc = dag.mul(acc, dag.input("y" + std::to_string(i)));
    dag.output(acc);
    return dag;
}

std::size_t
maxCertifiedMulDepth(const an::NoiseSpec &spec, std::size_t cap = 16)
{
    std::size_t best = 0;
    for (std::size_t d = 1; d <= cap; ++d) {
        if (!an::analyzeNoise(mulChain(d), spec).ok())
            break;
        best = d;
    }
    return best;
}

template <std::size_t N>
an::NoiseSpec
levelSpec()
{
    return an::specOfBfv<N>(
        standardParams<N>(),
        levelName(N == 1   ? SecurityLevel::Bits27
                  : N == 2 ? SecurityLevel::Bits54
                           : SecurityLevel::Bits109));
}

pim::SystemConfig
tinySystem(std::size_t dpus)
{
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    return cfg;
}

// ----- DAG IR structure -----

TEST(HeDag, TracksInputsOutputsAndDepth)
{
    an::HeDag dag;
    const auto a = dag.input("a");
    const auto b = dag.input("b");
    const auto s = dag.add(a, b);
    const auto m = dag.mul(s, a);
    const auto q = dag.square(m);
    const auto o = dag.output(q);

    EXPECT_EQ(dag.inputs(), (std::vector<an::NodeId>{a, b}));
    EXPECT_EQ(dag.outputs(), (std::vector<an::NodeId>{o}));
    EXPECT_EQ(dag.mulDepth(a), 0u);
    EXPECT_EQ(dag.mulDepth(s), 0u);
    EXPECT_EQ(dag.mulDepth(m), 1u);
    EXPECT_EQ(dag.mulDepth(q), 2u);
    EXPECT_EQ(dag.mulDepth(), 2u);
}

TEST(HeDag, PlanDepthIsTheDeepestNodeNotTheLast)
{
    // output(mul(x, y)); output(z): the last node sits at depth 0.
    an::HeDag dag;
    const auto x = dag.input("x");
    const auto y = dag.input("y");
    const auto z = dag.input("z");
    dag.output(dag.mul(x, y));
    const auto last = dag.output(z);
    EXPECT_EQ(dag.mulDepth(last), 0u);
    EXPECT_EQ(dag.mulDepth(), 1u);
    EXPECT_EQ(an::HeDag().mulDepth(), 0u);
}

TEST(HeDag, ReachabilityMarksDeadNodes)
{
    an::HeDag dag;
    const auto a = dag.input("a");
    const auto b = dag.input("b");
    const auto live = dag.add(a, b);
    const auto dead = dag.square(b); // never reaches an output
    dag.output(live);

    const auto reach = dag.reachesOutput();
    EXPECT_TRUE(reach[a]);
    EXPECT_TRUE(reach[b]);
    EXPECT_TRUE(reach[live]);
    EXPECT_FALSE(reach[dead]);
}

TEST(HeDag, DescribeNamesOpAndDepth)
{
    an::HeDag dag;
    const auto a = dag.input("a");
    const auto m = dag.mul(a, dag.input("b"));
    const std::string d = dag.describe(m);
    EXPECT_NE(d.find("mul"), std::string::npos) << d;
    EXPECT_NE(d.find("depth 1"), std::string::npos) << d;
}

TEST(HeDagDeath, MalformedPlansPanic)
{
    an::HeDag dag;
    const auto a = dag.input("a");
    EXPECT_DEATH(dag.add(a, 7), "operand");
    const auto o = dag.output(a);
    EXPECT_DEATH(dag.square(o), "[Oo]utput");
}

// ----- clean plans certify across the full parameter grid -----

template <typename T>
class CertifierWidths : public ::testing::Test
{
};

using CWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(CertifierWidths, CWidths);

TYPED_TEST(CertifierWidths, ShippedPlansCertify)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const an::NoiseSpec spec = levelSpec<N>();

    for (const auto &[tag, dag] :
         {std::pair<std::string, an::HeDag>{"add-chain-8",
                                            addChain(8)},
          {"tree-reduce-64", treeReduce(64)}}) {
        const auto rep = an::analyzeNoise(dag, spec);
        EXPECT_TRUE(rep.ok()) << tag << ": " << rep.summary();
        EXPECT_GT(rep.minOutputBudgetBits(), 0) << tag;
    }

    // The measured noise-budget crossover of the paper's grid: no
    // multiplication fits the 27-bit set; one relinearised level
    // fits the 54- and 109-bit sets.
    const std::size_t depth = maxCertifiedMulDepth(spec);
    EXPECT_EQ(depth, N == 1 ? 0u : 1u);
    if (depth >= 1) {
        const auto rep = an::analyzeNoise(mulChain(depth), spec);
        EXPECT_TRUE(rep.ok()) << rep.summary();
    }
}

TYPED_TEST(CertifierWidths, CostReportRecommendsABackend)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    const BfvParams<N> params = standardParams<N>();
    const PimCostModel model;
    const an::CostSpec spec =
        costSpecFor(model, N, params.n, relinDigitsOf<N>(params),
                    model.config().numDpus, "grid");

    const auto rep = an::estimateCost(addChain(8), spec);
    ASSERT_TRUE(rep.ok()) << rep.summary();
    EXPECT_FALSE(rep.recommended.empty());
    EXPECT_GT(rep.pimStaged.totalMs(), 0.0);
    EXPECT_GT(rep.pimResident.totalMs(), 0.0);
    EXPECT_GT(rep.host.totalMs(), 0.0);
    // The resident backend exists to avoid re-uploads; a chained add
    // plan must report nonzero reuse and beat the staged backend.
    EXPECT_GT(rep.pimResident.residentBytesReused, 0u);
    EXPECT_LT(rep.pimResident.totalMs(), rep.pimStaged.totalMs());
}

// ----- seeded violations: exact witnesses -----

TEST(CertifierRejects, OverDeepMulChain)
{
    const an::NoiseSpec spec = levelSpec<2>();
    const std::size_t d = maxCertifiedMulDepth(spec);
    const auto rep = an::analyzeNoise(mulChain(d + 3), spec);
    ASSERT_FALSE(rep.ok());
    // The witness names the eaxct first node past the budget: the
    // mul at depth d+1, not the output or the end of the chain.
    const auto &step = rep.trace.firstViolation();
    EXPECT_EQ(step.op, "mul");
    EXPECT_NE(step.detail.find("depth " + std::to_string(d + 1)),
              std::string::npos)
        << step.detail;
    EXPECT_NE(rep.summary().find("2*t*B < q"), std::string::npos)
        << rep.summary();
}

TEST(CertifierRejects, BudgetExactBoundary)
{
    // Depth d certifies and depth d+1 does not, so the static bound
    // is tight at the boundary rather than conservatively early.
    const an::NoiseSpec spec = levelSpec<2>();
    const std::size_t d = maxCertifiedMulDepth(spec);
    ASSERT_GE(d, 1u);
    EXPECT_TRUE(an::analyzeNoise(mulChain(d), spec).ok());
    const auto rep = an::analyzeNoise(mulChain(d + 1), spec);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.trace.firstViolation().op, "mul");
    EXPECT_LT(rep.minOutputBudgetBits(), 0);
}

TEST(CertifierRejects, BadPlainModulus)
{
    // t >= q: Delta = floor(q/t) vanishes and nothing is decodable.
    // The params obligation must reject before any transfer function.
    an::NoiseSpec spec = levelSpec<2>();
    spec.t = ~0ULL;
    const auto rep = an::analyzeNoise(addChain(1), spec);
    ASSERT_FALSE(rep.ok());
    EXPECT_NE(rep.summary().find("t < q"), std::string::npos)
        << rep.summary();
    // Rejected before the walk: no per-node bounds were computed.
    EXPECT_TRUE(rep.nodes.empty());
}

TEST(CertifierRejects, ReduceFanInTooWide)
{
    // A 512-way reduction pins 512 slices at once; on one DPU with a
    // 1 MB arena that is 16 MB/DPU - an exact Staging violation from
    // arithmetic alone (the spec carries no probed fits).
    an::CostSpec spec;
    spec.name = "reduce-wide";
    spec.limbs = 2;
    spec.n = standardParams<2>().n;
    spec.numDpus = 1;
    spec.residentArenaBytes = 1ULL << 20;
    const auto rep = an::estimateCost(treeReduce(512), spec);
    ASSERT_FALSE(rep.ok());
    const auto &v = rep.violations.front();
    EXPECT_EQ(v.resource, an::Resource::Staging);
    EXPECT_EQ(v.budget, 1ULL << 20);
    EXPECT_GT(v.usage, v.budget);
    EXPECT_NE(v.what.find("reduce"), std::string::npos) << v.what;
}

// ----- system gate: certifyPlan / lastNoiseCheck / runPlan -----

TEST(PlanGate, CertifyPlanRetainsReports)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> sys(h.ctx, tinySystem(2), 2, 8);

    EXPECT_TRUE(sys.certifyPlan(addChain(4), "adds"));
    EXPECT_TRUE(sys.lastNoiseCheck().ok());
    EXPECT_GT(sys.lastNoiseCheck().minOutputBudgetBits(), 0);
    EXPECT_TRUE(sys.lastCostEstimate().ok());
    EXPECT_FALSE(sys.lastCostEstimate().recommended.empty());
}

TEST(PlanGate, CertifyProbesTheFitsOnce)
{
    // The cost model memoises its cycle fits: the first certification
    // runs the 7 probe simulations (2 add, 2 mul, 3 convolution), a
    // second one none.
    BfvHarness<2> h(16);
    PimHeSystem<2> sys(h.ctx, tinySystem(2), 2, 8);
    obs::Registry &reg = obs::Registry::global();
    reg.setEnabled(true);
    const auto runs = [&reg] {
        std::uint64_t v = 0;
        reg.scrape().counterValue("pim.dpu.runs", &v);
        return v;
    };
    const std::uint64_t before = runs();
    ASSERT_TRUE(sys.certifyPlan(addChain(4), "first"));
    const std::uint64_t first = runs();
    ASSERT_TRUE(sys.certifyPlan(addChain(4), "second"));
    EXPECT_EQ(first - before, 7u);
    EXPECT_EQ(runs() - first, 0u);
    reg.setEnabled(false);
}

TEST(PlanGateDeath, ReportsRequireACertifiedPlan)
{
    BfvHarness<1> h(16);
    PimHeSystem<1> sys(h.ctx, tinySystem(2), 2, 8);
    EXPECT_DEATH(sys.lastNoiseCheck(), "no plan certified");
    EXPECT_DEATH(sys.lastCostEstimate(), "no plan certified");
}

TEST(PlanGate, RunPlanMatchesHostEvaluator)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> sys(h.ctx, tinySystem(2), 2, 8);
    const auto rlk = h.keygen.makeRelinKey();

    // out0 = (a + b) * c, out1 = a + b - the whole offloadable mix.
    an::HeDag dag;
    const auto a = dag.input("a");
    const auto b = dag.input("b");
    const auto c = dag.input("c");
    const auto s = dag.add(a, b);
    dag.output(dag.mul(s, c));
    dag.output(s);

    const std::vector<Ciphertext<2>> ins = {
        h.encryptScalar(3), h.encryptScalar(4), h.encryptScalar(5)};
    const auto outs = sys.runPlan(dag, ins, {}, &rlk);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(h.decryptScalar(outs[0]),
              (3ull + 4) * 5 % h.params.t);
    EXPECT_EQ(h.decryptScalar(outs[1]), (3ull + 4) % h.params.t);

    const auto host_s = h.eval.add(ins[0], ins[1]);
    const auto host_m = h.eval.multiplyRelin(host_s, ins[2], rlk);
    for (std::size_t comp = 0; comp < 2; ++comp)
        EXPECT_TRUE(outs[0][comp] == host_m[comp])
            << "component " << comp;
}

TEST(PlanGate, RejectedPlanCausesNoSimulatedCycle)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> sys(h.ctx, tinySystem(2), 2, 8);

    // Deep enough that the reduced-degree spec also rejects it.
    const std::size_t d =
        maxCertifiedMulDepth(sys.noiseSpec("probe")) + 3;
    EXPECT_FALSE(sys.certifyPlan(mulChain(d), "too-deep"));
    EXPECT_FALSE(sys.lastNoiseCheck().ok());

    // Rejection is pure arithmetic: nothing was launched, staged or
    // probed on the system's DPU set.
    EXPECT_EQ(sys.totalModeledMs(), 0.0);
    EXPECT_EQ(sys.transferTotals().uploads, 0u);
    EXPECT_EQ(sys.transferTotals().downloads, 0u);
}

TEST(PlanGateDeath, VerifyBeforeLaunchRejectsWithWitness)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> sys(h.ctx, tinySystem(2), 2, 8);
    const std::size_t d =
        maxCertifiedMulDepth(sys.noiseSpec("probe")) + 3;

    an::HeDag dag = mulChain(d);
    std::vector<Ciphertext<2>> ins;
    for (std::size_t i = 0; i < dag.inputs().size(); ++i)
        ins.push_back(h.encryptScalar(1));
    const auto rlk = h.keygen.makeRelinKey();
    EXPECT_DEATH(sys.runPlan(dag, ins, {}, &rlk),
                 "pre-launch plan certification failed");
}

// ----- exact-integer decryptor noise budget (max-q set) -----

template <typename T>
class BudgetWidths : public ::testing::Test
{
};

using BWidths = ::testing::Types<WideInt<1>, WideInt<2>, WideInt<4>>;
TYPED_TEST_SUITE(BudgetWidths, BWidths);

TYPED_TEST(BudgetWidths, ExactBudgetIsIntegerAndDisplayAgrees)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    // N = 4 is the max-q (109-bit) set the double path used to round
    // through; the exact path must be bit-length arithmetic only.
    BfvHarness<N> h(64);
    const auto pt = h.encoder.encodeScalar(9);
    auto ct = h.enc.encrypt(pt);

    static_assert(
        std::is_same_v<decltype(h.dec.noiseBudgetBitsExact(ct, pt)),
                       std::int64_t>,
        "exact budget must be an integer bit count");

    const std::int64_t exact = h.dec.noiseBudgetBitsExact(ct, pt);
    EXPECT_GT(exact, 0);
    const double display = h.dec.noiseBudgetBits(ct, pt);
    EXPECT_EQ(display, static_cast<double>(exact));
    EXPECT_EQ(display, std::floor(display)) << "display path rounds";

    // Budget shrinks monotonically under homomorphic additions and
    // the two paths keep agreeing on the noisier ciphertext.
    auto sum_pt = pt;
    for (int i = 0; i < 4; ++i) {
        ct = h.eval.add(ct, h.enc.encrypt(pt));
        for (std::size_t j = 0; j < sum_pt.coeffs.size(); ++j)
            sum_pt.coeffs[j] =
                (sum_pt.coeffs[j] + pt.coeffs[j]) % h.params.t;
    }
    const std::int64_t after = h.dec.noiseBudgetBitsExact(ct, sum_pt);
    EXPECT_LE(after, exact);
    EXPECT_EQ(h.dec.noiseBudgetBits(ct, sum_pt),
              static_cast<double>(after));
}

TYPED_TEST(BudgetWidths, StaticBoundIsBelowMeasuredForFreshCt)
{
    constexpr std::size_t N = TypeParam::numLimbs;
    BfvHarness<N> h(32);
    const an::NoiseSpec spec =
        an::specOfBfv<N>(h.params, "fresh");

    an::HeDag dag;
    dag.output(dag.input("x"));
    const auto rep = an::analyzeNoise(dag, spec);
    ASSERT_TRUE(rep.ok()) << rep.summary();

    const auto pt = h.encoder.encodeScalar(3);
    const auto ct = h.enc.encrypt(pt);
    EXPECT_GE(h.dec.noiseBudgetBitsExact(ct, pt),
              rep.minOutputBudgetBits());
}

} // namespace
} // namespace pimhe
