/**
 * @file
 * Golden-figure regression tests: lock the paper's qualitative shapes
 * so refactors (like the host-parallel execution engine) cannot
 * silently break them. Tolerances are deliberately loose — these
 * guard the *shape* of each result, not exact constants:
 *
 *  - homomorphic add is modelled far cheaper than multiply (Key
 *    Takeaway 2: no native 32-bit multiplier),
 *  - tasklet scaling saturates at the 11-stage dispatch interval
 *    (the paper's Observation 1),
 *  - modelled time is invariant to the host thread count (the
 *    execution engine's contract).
 */

#include <gtest/gtest.h>

#include "pimhe/cost_model.h"
#include "pimhe/fast_kernels.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;

/** Cycles of one elementwise launch under the given execution mode,
 *  through the compiled-kernel path (zeros input, like the model). */
template <std::size_t L>
double
compiledVecCycles(bool multiply, std::size_t elems, unsigned tasklets,
                  pim::ExecMode mode)
{
    const auto kp = pimhe_kernels::standardVecParams(L, elems);

    pim::Dpu dpu(pim::DpuConfig{});
    const std::vector<std::uint8_t> zeros(elems * L * 4, 0);
    dpu.mram().write(kp.mramA, zeros.data(), zeros.size());
    dpu.mram().write(kp.mramB, zeros.data(), zeros.size());
    const auto ck = multiply
                        ? pimhe_kernels::compiledVecMulModQ(kp)
                        : pimhe_kernels::compiledVecAddModQ(kp);
    return dpu.run(tasklets, ck, mode).cycles;
}

TEST(PaperShapes, AddFarCheaperThanMulAtEveryWidth)
{
    PimCostModel model;
    for (const std::size_t limbs : {1u, 2u, 4u}) {
        const double add =
            model.simulateElementwiseCycles(perf::OpKind::VecAdd,
                                            limbs, 512);
        const double mul =
            model.simulateElementwiseCycles(perf::OpKind::VecMul,
                                            limbs, 512);
        // The paper measures >10x at 32 bits and more at wider
        // widths; 5x is the loose floor that still catches a broken
        // mul_step cost model.
        EXPECT_GT(mul, 5.0 * add) << limbs << " limbs";
    }
}

TEST(PaperShapes, WiderOperandsCostMore)
{
    PimCostModel model;
    double prev = 0;
    for (const std::size_t limbs : {1u, 2u, 4u}) {
        const double mul =
            model.simulateElementwiseCycles(perf::OpKind::VecMul,
                                            limbs, 512);
        EXPECT_GT(mul, prev) << limbs << " limbs";
        prev = mul;
    }
}

TEST(PaperShapes, TaskletScalingSaturatesAtDispatchInterval)
{
    // Balanced real kernel (vector mul, 64-bit) across tasklet
    // counts: strictly better up to 11 tasklets, flat within 2%
    // beyond (tail imbalance allows the slack).
    pim::SystemConfig cfg;
    cfg.numDpus = 1;
    cfg.hostThreads = 1;
    cfg.verifyBeforeLaunch = true;

    std::vector<double> cycles;
    for (const unsigned t : {1u, 2u, 4u, 8u, 11u, 16u, 24u}) {
        PimCostModel m(cfg, t);
        cycles.push_back(m.simulateElementwiseCycles(
            perf::OpKind::VecMul, 2, 2112)); // 2112 = lcm-friendly
    }
    EXPECT_GT(cycles[0], 1.5 * cycles[1]);
    EXPECT_GT(cycles[1], 1.5 * cycles[2]);
    EXPECT_GT(cycles[2], 1.5 * cycles[3]);
    EXPECT_GT(cycles[3], 1.2 * cycles[4]);
    EXPECT_NEAR(cycles[5] / cycles[4], 1.0, 0.02);
    EXPECT_NEAR(cycles[6] / cycles[4], 1.0, 0.02);
}

TEST(PaperShapes, ModelledTimeInvariantToHostThreads)
{
    // The execution engine's contract, end to end through the HE
    // orchestrator: identical modelled time and bit-identical
    // ciphertexts at 1 vs 8 host threads.
    auto run = [](std::size_t threads) {
        BfvHarness<2> h(16);
        pim::SystemConfig cfg;
        cfg.numDpus = 6;
        cfg.hostThreads = threads;
        cfg.verifyBeforeLaunch = true;
        PimHeSystem<2> pimsys(h.ctx, cfg, 6, 12);
        std::vector<Ciphertext<2>> as, bs;
        for (int i = 0; i < 4; ++i) {
            as.push_back(h.encryptScalar(i + 1));
            bs.push_back(h.encryptScalar(2 * i + 1));
        }
        auto sums = pimsys.addCiphertextVectors(as, bs);
        auto prods = pimsys.mulCoefficientwise(as, bs);
        return std::tuple(pimsys.totalModeledMs(), std::move(sums),
                          std::move(prods));
    };
    const auto [ms1, sums1, prods1] = run(1);
    const auto [ms8, sums8, prods8] = run(8);
    EXPECT_EQ(ms1, ms8) << "modelled time must not depend on host "
                           "thread count";
    ASSERT_EQ(sums1.size(), sums8.size());
    for (std::size_t i = 0; i < sums1.size(); ++i)
        for (std::size_t c = 0; c < sums1[i].size(); ++c) {
            EXPECT_TRUE(sums1[i][c] == sums8[i][c]);
            EXPECT_TRUE(prods1[i][c] == prods8[i][c]);
        }
}

// ----- the same golden shapes through the compiled fast path -----

TEST(PaperShapesFast, AddFarCheaperThanMulAtEveryWidth)
{
    const auto at = [](auto widthTag, bool multiply) {
        constexpr std::size_t L = decltype(widthTag)::value;
        const double fast = compiledVecCycles<L>(multiply, 512, 12,
                                                 pim::ExecMode::Fast);
        const double interp = compiledVecCycles<L>(
            multiply, 512, 12, pim::ExecMode::Interpret);
        EXPECT_EQ(fast, interp)
            << "fast-path cycle model drifted (L=" << L << ")";
        return fast;
    };
    EXPECT_GT(at(std::integral_constant<std::size_t, 1>{}, true),
              5.0 * at(std::integral_constant<std::size_t, 1>{}, false));
    EXPECT_GT(at(std::integral_constant<std::size_t, 2>{}, true),
              5.0 * at(std::integral_constant<std::size_t, 2>{}, false));
    EXPECT_GT(at(std::integral_constant<std::size_t, 4>{}, true),
              5.0 * at(std::integral_constant<std::size_t, 4>{}, false));
}

TEST(PaperShapesFast, TaskletScalingSaturatesAtDispatchInterval)
{
    std::vector<double> cycles;
    for (const unsigned t : {1u, 2u, 4u, 8u, 11u, 16u, 24u}) {
        const double fast =
            compiledVecCycles<2>(true, 2112, t, pim::ExecMode::Fast);
        EXPECT_EQ(fast, compiledVecCycles<2>(true, 2112, t,
                                             pim::ExecMode::Interpret))
            << t << " tasklets";
        cycles.push_back(fast);
    }
    EXPECT_GT(cycles[0], 1.5 * cycles[1]);
    EXPECT_GT(cycles[1], 1.5 * cycles[2]);
    EXPECT_GT(cycles[2], 1.5 * cycles[3]);
    EXPECT_GT(cycles[3], 1.2 * cycles[4]);
    EXPECT_NEAR(cycles[5] / cycles[4], 1.0, 0.02);
    EXPECT_NEAR(cycles[6] / cycles[4], 1.0, 0.02);
}

TEST(PaperShapesFast, ModelledTimeInvariantToHostThreadsAndMode)
{
    // The engine contract must survive the fast path: modelled time
    // and ciphertext bytes are identical across host thread counts
    // AND across execution modes.
    auto run = [](std::size_t threads, pim::ExecMode mode) {
        BfvHarness<2> h(16);
        pim::SystemConfig cfg;
        cfg.numDpus = 6;
        cfg.hostThreads = threads;
        cfg.verifyBeforeLaunch = true;
        cfg.execMode = mode;
        PimHeSystem<2> pimsys(h.ctx, cfg, 6, 12);
        std::vector<Ciphertext<2>> as, bs;
        for (int i = 0; i < 4; ++i) {
            as.push_back(h.encryptScalar(i + 1));
            bs.push_back(h.encryptScalar(2 * i + 1));
        }
        auto sums = pimsys.addCiphertextVectors(as, bs);
        auto prods = pimsys.mulCoefficientwise(as, bs);
        return std::tuple(pimsys.totalModeledMs(), std::move(sums),
                          std::move(prods));
    };
    const auto [ms1, sums1, prods1] = run(1, pim::ExecMode::Fast);
    const auto [ms8, sums8, prods8] = run(8, pim::ExecMode::Fast);
    const auto [msi, sumsi, prodsi] = run(8, pim::ExecMode::Interpret);
    EXPECT_EQ(ms1, ms8) << "fast-mode modelled time must not depend "
                           "on host thread count";
    EXPECT_EQ(ms1, msi) << "fast-mode modelled time must equal the "
                           "interpreter's";
    ASSERT_EQ(sums1.size(), sums8.size());
    for (std::size_t i = 0; i < sums1.size(); ++i)
        for (std::size_t c = 0; c < sums1[i].size(); ++c) {
            EXPECT_TRUE(sums1[i][c] == sums8[i][c]);
            EXPECT_TRUE(prods1[i][c] == prods8[i][c]);
            EXPECT_TRUE(sums1[i][c] == sumsi[i][c]);
            EXPECT_TRUE(prods1[i][c] == prodsi[i][c]);
        }
}

TEST(PaperShapes, HostStagingDominatesCheapOps)
{
    // Key Takeaway on data movement: once host<->DPU staging is
    // included, transfers dwarf the add kernel itself.
    PimCostModel model;
    const auto b = model.elementwiseWithTransfersMs(
        perf::OpKind::VecAdd, 2, 1 << 20);
    EXPECT_GT(b.transferMs, 3.0 * b.computeMs);
}

} // namespace
} // namespace pimhe
