/**
 * @file
 * Validation of the analytic PIM cost model against exact simulation
 * (DESIGN.md tier-2 vs tier-1 requirement: within 2%).
 */

#include <gtest/gtest.h>

#include "analysis/he_dag.h"
#include "analysis/plan_cost.h"
#include "pimhe/cost_model.h"
#include "pimhe/orchestrator.h"
#include "pimhe/plan.h"
#include "test_util.h"

namespace pimhe {
namespace {

using perf::OpKind;

struct FitCase
{
    OpKind op;
    std::size_t limbs;
    std::size_t elems;
};

class CostModelFit : public ::testing::TestWithParam<FitCase>
{
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, CostModelFit,
    ::testing::Values(FitCase{OpKind::VecAdd, 1, 5000},
                      FitCase{OpKind::VecAdd, 2, 7777},
                      FitCase{OpKind::VecAdd, 4, 3001},
                      FitCase{OpKind::VecAdd, 4, 20011},
                      FitCase{OpKind::VecMul, 1, 4099},
                      FitCase{OpKind::VecMul, 2, 2048},
                      FitCase{OpKind::VecMul, 4, 1500},
                      FitCase{OpKind::VecMul, 4, 9973}),
    [](const auto &tpi) {
        return std::string(tpi.param.op == OpKind::VecAdd ? "add"
                                                          : "mul") +
               "L" + std::to_string(tpi.param.limbs) + "e" +
               std::to_string(tpi.param.elems);
    });

TEST_P(CostModelFit, MatchesExactSimulationWithin2Percent)
{
    const auto [op, limbs, elems] = GetParam();
    pim::SystemConfig one;
    one.numDpus = 1;
    PimCostModel model(one, 12);
    const double exact =
        model.simulateElementwiseCycles(op, limbs, elems);
    const double est =
        model.elementwiseMs(op, limbs, elems).computeMs *
        one.dpu.clockMhz * 1e3;
    EXPECT_NEAR(est / exact, 1.0, 0.02)
        << "exact=" << exact << " est=" << est;
}

TEST(CostModel, ConvolutionFitMatchesSimulation)
{
    pim::SystemConfig one;
    one.numDpus = 1;
    PimCostModel model(one, 12);
    // A plan of one MulPlain: exactly two one-DPU convolutions.
    analysis::HeDag dag;
    dag.output(dag.mulPlain(dag.input("a"), 0));
    for (const std::size_t limbs : {1ul, 2ul, 4ul}) {
        for (const std::size_t n : {48ul, 96ul, 144ul, 1024ul}) {
            const double ms = model.convolutionMs(n, limbs, 1).computeMs;
            // One fit: the plan model prices the same memoised fit.
            const analysis::CostReport plan = analysis::estimateCost(
                dag, costSpecFor(model, limbs, n, 0, 1, "one-fit"));
            EXPECT_EQ(plan.rows[1].pimStaged.kernelMs, 2 * ms)
                << "limbs=" << limbs << " n=" << n;
            if (n > 144)
                continue; // beyond what an interpreted run affords
            const double exact =
                model.simulateConvolutionCycles(n, limbs);
            const double est = ms * one.dpu.clockMhz * 1e3;
            EXPECT_NEAR(est / exact, 1.0, 0.02)
                << "limbs=" << limbs << " n=" << n;
        }
    }
}

TEST(CostModel, FastProbesEqualTheInterpreterAtEveryProbeShape)
{
    // The fits probe the compiled kernels in Fast mode. At every shape
    // they probe, 3 widths x (2 ops x 2 element counts + 3 degrees),
    // the cycles must be the interpreter's exactly.
    PimCostModel model;
    const auto fast = pim::ExecMode::Fast;
    int shapes = 0;
    for (const std::size_t limbs : {1ul, 2ul, 4ul}) {
        for (const OpKind op : {OpKind::VecAdd, OpKind::VecMul}) {
            for (const std::size_t e : model.elementwiseProbeElems(limbs)) {
                EXPECT_EQ(
                    model.simulateElementwiseCycles(op, limbs, e, fast),
                    model.simulateElementwiseCycles(op, limbs, e))
                    << "limbs=" << limbs << " elems=" << e;
                ++shapes;
            }
        }
        for (const std::size_t n : model.convolutionProbeDegrees()) {
            EXPECT_EQ(model.simulateConvolutionCycles(n, limbs, fast),
                      model.simulateConvolutionCycles(n, limbs))
                << "limbs=" << limbs << " n=" << n;
            ++shapes;
        }
    }
    EXPECT_EQ(shapes, 21);
}

TEST(CostModel, ScalesLinearlyInElements)
{
    PimCostModel model;
    const double t1 =
        model.elementwiseMs(OpKind::VecAdd, 4, 1 << 22).computeMs;
    const double t2 =
        model.elementwiseMs(OpKind::VecAdd, 4, 1 << 23).computeMs;
    EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(CostModel, MulCostsMoreThanAdd)
{
    PimCostModel model;
    for (const std::size_t limbs : {1ul, 2ul, 4ul}) {
        const double add =
            model.elementwiseMs(OpKind::VecAdd, limbs, 1 << 20)
                .totalMs();
        const double mul =
            model.elementwiseMs(OpKind::VecMul, limbs, 1 << 20)
                .totalMs();
        EXPECT_GT(mul, 5 * add) << "limbs " << limbs;
    }
}

TEST(CostModel, WiderElementsCostMore)
{
    PimCostModel model;
    const auto ms = [&](std::size_t limbs) {
        return model.elementwiseMs(OpKind::VecMul, limbs, 1 << 20)
            .computeMs;
    };
    EXPECT_LT(ms(1), ms(2));
    EXPECT_LT(ms(2), ms(4));
}

TEST(CostModel, MemoryCapacityProportionalScaling)
{
    // Key Takeaway 3: with work spread across all DPUs, doubling the
    // data on a full-size system doubles time; but doubling both data
    // and DPUs keeps time constant.
    pim::SystemConfig half = pim::paperSystem();
    half.numDpus = 1262;
    pim::SystemConfig full = pim::paperSystem();
    PimCostModel small(half, 12);
    PimCostModel big(full, 12);
    const std::size_t elems = 1262 * 4096;
    const double t_small =
        small.elementwiseMs(OpKind::VecMul, 4, elems).computeMs;
    const double t_big =
        big.elementwiseMs(OpKind::VecMul, 4, 2 * elems).computeMs;
    EXPECT_NEAR(t_big / t_small, 1.0, 0.02);
}

TEST(CostModel, ConstantTimeAcrossUserCounts)
{
    // The paper's Figure 2 observation: PIM time stays ~constant as
    // users grow, because utilisation grows with them.
    PimCostModel model;
    const double t640 =
        model.elementwiseMs(OpKind::VecAdd, 4, 640 * 2 * 4096, 640)
            .totalMs();
    const double t2560 =
        model.elementwiseMs(OpKind::VecAdd, 4, 2560 * 2 * 4096, 2560)
            .totalMs();
    EXPECT_LT(t2560 / t640, 2.1)
        << "per-DPU work should stay nearly flat below system size";
}

TEST(CostModel, TransfersAddVisibleTime)
{
    PimCostModel model;
    const std::size_t elems = 1 << 22;
    const double without =
        model.elementwiseMs(OpKind::VecAdd, 4, elems).totalMs();
    const double with =
        model.elementwiseWithTransfersMs(OpKind::VecAdd, 4, elems)
            .totalMs();
    EXPECT_GT(with, 2 * without)
        << "staging 128-bit operands dominates a cheap add kernel";
}

TEST(CostModel, TaskletSweepSaturatesAtEleven)
{
    // S1 experiment backing: per-DPU cycles stop improving at the
    // dispatch-interval tasklet count.
    pim::SystemConfig one;
    one.numDpus = 1;
    std::vector<double> cycles;
    for (const unsigned t : {2u, 4u, 8u, 11u, 16u}) {
        PimCostModel m(one, t);
        cycles.push_back(
            m.simulateElementwiseCycles(OpKind::VecMul, 4, 1056));
    }
    EXPECT_GT(cycles[0], 1.8 * cycles[1]);
    EXPECT_GT(cycles[1], 1.8 * cycles[2]);
    EXPECT_GT(cycles[2], 1.2 * cycles[3]);
    EXPECT_NEAR(cycles[4] / cycles[3], 1.0, 0.05);
}

TEST(CostModel, NativeMulAblationSpeedsUpMultiplication)
{
    pim::SystemConfig gen1 = pim::paperSystem();
    pim::SystemConfig gen2 = pim::paperSystem();
    gen2.dpu.nativeMul32 = true;
    PimCostModel m1(gen1, 12);
    PimCostModel m2(gen2, 12);
    const std::size_t elems = 1 << 22;
    const double t1 =
        m1.elementwiseMs(OpKind::VecMul, 4, elems).computeMs;
    const double t2 =
        m2.elementwiseMs(OpKind::VecMul, 4, elems).computeMs;
    EXPECT_GT(t1 / t2, 3.0)
        << "Key Takeaway 2: native multipliers change the story";
    // Addition is unaffected.
    const double a1 =
        m1.elementwiseMs(OpKind::VecAdd, 4, elems).computeMs;
    const double a2 =
        m2.elementwiseMs(OpKind::VecAdd, 4, elems).computeMs;
    EXPECT_NEAR(a1 / a2, 1.0, 0.01);
}

TEST(BusTime, OneFormulaForEveryCaller)
{
    const pim::SystemConfig paper = pim::paperSystem();
    struct Row
    {
        std::uint64_t bytes;
        std::size_t dpus;
        double gbps;
        double ms;
    };
    const Row rows[] = {
        {0, 1, paper.hostToDpuGbps, 0.0},
        // One DPU: its 0.33 GB/s link binds, not the 6 GB/s bus.
        {330000, 1, paper.hostToDpuGbps, 1.0},
        // 64 DPUs: 64 links outrun the bus, the aggregate binds.
        {6000000, 64, paper.hostToDpuGbps, 1.0},
        {4400000, 64, paper.dpuToHostGbps, 1.0},
    };
    for (const Row &r : rows) {
        EXPECT_DOUBLE_EQ(pim::busMs(r.bytes, r.dpus, r.gbps), r.ms)
            << r.bytes << " B over " << r.dpus << " DPU(s)";

        // Every caller charges exactly busMs for the same transfer.
        pim::SystemConfig cfg = paper;
        cfg.numDpus = r.dpus;
        const double up = pim::busMs(r.bytes, r.dpus, cfg.hostToDpuGbps);
        const double down =
            pim::busMs(r.bytes, r.dpus, cfg.dpuToHostGbps);

        pim::DpuSet set(cfg, r.dpus);
        const std::vector<std::uint8_t> slice(r.bytes / r.dpus, 0);
        for (std::size_t d = 0; d < r.dpus && !slice.empty(); ++d)
            set.copyToMram(d, 0, slice);
        EXPECT_EQ(set.launch(1, [](pim::TaskletCtx &ctx) {
                         ctx.charge(1);
                     }).hostToDpuMs,
                  up);

        const std::uint64_t elems = r.bytes / 4;
        EXPECT_EQ(PimCostModel(cfg, 12)
                      .elementwiseWithTransfersMs(OpKind::VecAdd, 1,
                                                  elems)
                      .transferMs,
                  pim::busMs(2 * r.bytes, r.dpus, cfg.hostToDpuGbps) +
                      down);

        analysis::CostSpec spec;
        spec.numDpus = r.dpus;
        EXPECT_EQ(analysis::modeledDownloadMs(spec, r.bytes), down);
    }
}

/**
 * One (n, DPUs) shape through every caller of pim::sliceLayout: the
 * staged slot, the resident region and the plan cost model must each
 * lay one ciphertext (2 components x n coefficients) out with
 * `stride` bytes per DPU, and the model's pim-resident walk must move
 * the bytes runPlan moves.
 */
template <std::size_t N>
void
expectOneLayout(std::size_t n, std::size_t dpus, std::uint64_t stride)
{
    SCOPED_TRACE("n " + std::to_string(n) + ", " + std::to_string(dpus) +
                 " DPUs, " + std::to_string(N) + " limb(s)");
    EXPECT_EQ(pim::sliceLayout(2 * n, dpus, N * 4).stride, stride);

    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    pimhe::testing::BfvHarness<N> h(n);
    const Ciphertext<N> ct = h.encryptScalar(1);

    // Staged slot: both operands upload one slice per DPU, the sum
    // downloads one.
    PimHeSystem<N> staged(h.ctx, cfg, dpus, 12);
    staged.addCiphertextVectors({ct}, {ct});
    EXPECT_EQ(staged.transferTotals().uploadedBytes, 2 * dpus * stride);
    EXPECT_EQ(staged.transferTotals().downloadedBytes, dpus * stride);

    // Resident region: two packed slices per DPU up, the folded one
    // back.
    PimHeSystem<N> resident(h.ctx, cfg, dpus, 12);
    resident.reduceCiphertexts({ct, ct});
    EXPECT_EQ(resident.residentStats().uploadedBytes, 2 * dpus * stride);
    EXPECT_EQ(resident.residentStats().downloadedBytes, dpus * stride);

    // Plan cost model: a two-term Reduce pins two slices per DPU, which
    // an empty arena reports as the violation's usage.
    analysis::HeDag dag;
    dag.output(dag.reduce({dag.input(), dag.input()}));
    analysis::CostSpec spec;
    spec.limbs = N;
    spec.n = n;
    spec.numDpus = dpus;
    spec.residentArenaBytes = 0;
    const analysis::CostReport rep = analysis::estimateCost(dag, spec);
    ASSERT_EQ(rep.violations.size(), 1u);
    EXPECT_EQ(rep.violations[0].usage, 2 * stride);

    // With a full arena the pim-resident walk charges what runPlan
    // moves: two terms go up packed and their sum comes back; one
    // term is its own sum and never leaves the host.
    spec.residentArenaBytes = cfg.residentArenaBytes();
    for (const std::size_t fan_in : {1u, 2u}) {
        SCOPED_TRACE("fan-in " + std::to_string(fan_in));
        analysis::HeDag plan;
        std::vector<analysis::NodeId> terms;
        for (std::size_t i = 0; i < fan_in; ++i)
            terms.push_back(plan.input());
        plan.output(plan.reduce(terms));
        const analysis::BackendCost predicted =
            analysis::estimateCost(plan, spec).pimResident;

        PimHeSystem<N> run(h.ctx, cfg, dpus, 12);
        run.runPlan(plan, std::vector<Ciphertext<N>>(fan_in, ct));
        EXPECT_EQ(predicted.uploadedBytes,
                  run.transferTotals().uploadedBytes);
        EXPECT_EQ(predicted.downloadedBytes,
                  run.transferTotals().downloadedBytes);
        EXPECT_EQ(predicted.uploadedBytes,
                  (fan_in - 1) * 2 * dpus * stride);
        EXPECT_EQ(predicted.launches, run.dpuSet().launches().size());
    }

    // The pim-staged walk charges what runPlan's staged add moves:
    // both operands up and the sum down, one padded slice per DPU.
    analysis::HeDag sum;
    sum.output(sum.add(sum.input(), sum.input()));
    const analysis::BackendCost staged_cost =
        analysis::estimateCost(sum, spec).pimStaged;
    PimHeSystem<N> run(h.ctx, cfg, dpus, 12);
    run.runPlan(sum, {ct, ct});
    EXPECT_EQ(staged_cost.uploadedBytes,
              run.transferTotals().uploadedBytes);
    EXPECT_EQ(staged_cost.downloadedBytes,
              run.transferTotals().downloadedBytes);
    EXPECT_EQ(staged_cost.uploadedBytes, 2 * dpus * stride);
    EXPECT_EQ(staged_cost.downloadedBytes, dpus * stride);
}

TEST(Layout, OneFormulaForEveryCaller)
{
    struct Row
    {
        std::size_t n;
        std::size_t dpus;
        std::size_t limbs;
        std::uint64_t stride;
    };
    const Row rows[] = {
        {16, 1, 1, 128},
        {16, 4, 2, 64},
        // 32 elements over 3 DPUs: 11 each, the last one padded.
        {16, 3, 1, 48}, // 44 bytes rounded up to the 8-byte granule
        {16, 3, 2, 88},
        {16, 3, 4, 176},
        {16, 6, 1, 24},
        {32, 5, 2, 104},
        // More DPUs than elements: one padded element each.
        {16, 64, 1, 8},
    };
    for (const Row &r : rows) {
        switch (r.limbs) {
          case 1: expectOneLayout<1>(r.n, r.dpus, r.stride); break;
          case 2: expectOneLayout<2>(r.n, r.dpus, r.stride); break;
          default: expectOneLayout<4>(r.n, r.dpus, r.stride); break;
        }
    }
}

TEST(CostModel, DpusUsedClampsToSystem)
{
    PimCostModel model;
    EXPECT_EQ(model.dpusUsed(1), 1u);
    EXPECT_EQ(model.dpusUsed(100), 100u);
    EXPECT_EQ(model.dpusUsed(1 << 30), 2524u);
}

} // namespace
} // namespace pimhe
