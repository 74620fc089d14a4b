/**
 * @file
 * Tests for the cross-tasklet conflict checker: deliberately racy
 * kernels must be flagged with the right tasklet ids and byte ranges,
 * disjoint kernels must come out clean, and every shipped kernel must
 * run conflict-free at 1, 11 and 16 tasklets.
 */

#include <gtest/gtest.h>

#include "bfv/params.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;

DpuConfig
checkedCfg()
{
    DpuConfig cfg;
    cfg.checker.enabled = true;
    return cfg;
}

// ----- positive cases: deliberately conflicting kernels -----

TEST(Checker, WriteWriteOverlapReported)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        ctx.wramStore32(64, ctx.id());
    });
    const auto &report = stats.conflicts;
    ASSERT_EQ(report.totalConflicts, 1u) << report.summary();
    const auto &c = report.conflicts.at(0);
    EXPECT_EQ(c.space, MemSpace::Wram);
    EXPECT_EQ(c.begin, 64u);
    EXPECT_EQ(c.end, 68u);
    EXPECT_EQ(c.taskletA, 0u);
    EXPECT_EQ(c.taskletB, 1u);
    EXPECT_TRUE(c.writeWrite);
    EXPECT_TRUE(c.kindsA &
                (1u << static_cast<unsigned>(AccessKind::WramStore)));
    EXPECT_NE(c.describe().find("write/write"), std::string::npos);
}

TEST(Checker, ReadWriteOverlapReported)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        if (ctx.id() == 0)
            ctx.wramStore32(128, 7);
        else
            ctx.wramLoad32(128);
    });
    const auto &report = stats.conflicts;
    ASSERT_EQ(report.totalConflicts, 1u) << report.summary();
    const auto &c = report.conflicts.at(0);
    EXPECT_FALSE(c.writeWrite);
    EXPECT_EQ(c.begin, 128u);
    EXPECT_EQ(c.end, 132u);
    EXPECT_EQ(c.taskletA, 0u);
    EXPECT_EQ(c.taskletB, 1u);
}

TEST(Checker, MramDmaOverlapReported)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        // Disjoint WRAM staging, overlapping MRAM destination.
        ctx.mramWrite(ctx.id() * 64, 4096, 32);
    });
    const auto &report = stats.conflicts;
    ASSERT_EQ(report.totalConflicts, 1u) << report.summary();
    const auto &c = report.conflicts.at(0);
    EXPECT_EQ(c.space, MemSpace::Mram);
    EXPECT_EQ(c.begin, 4096u);
    EXPECT_EQ(c.end, 4096u + 32u);
    EXPECT_TRUE(c.writeWrite);
    EXPECT_TRUE(c.kindsA &
                (1u << static_cast<unsigned>(AccessKind::DmaWrite)));
}

TEST(Checker, PartialOverlapReportsExactByteRange)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        // [96, 128) vs [120, 152): 8 overlapping bytes.
        ctx.mramWrite(0, 96 + ctx.id() * 24, 32);
    });
    const auto &report = stats.conflicts;
    ASSERT_EQ(report.totalConflicts, 1u) << report.summary();
    EXPECT_EQ(report.conflicts.at(0).begin, 120u);
    EXPECT_EQ(report.conflicts.at(0).end, 128u);
}

TEST(Checker, UnalignedDmaFlagged)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(1, [](TaskletCtx &ctx) {
        ctx.mramRead(4, 0, 8);   // MRAM side unaligned
        ctx.mramRead(8, 12, 8);  // WRAM side unaligned
        ctx.mramRead(16, 16, 8); // aligned: no diagnostic
    });
    const auto &diags = stats.conflicts.diagnostics;
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].kind, Diagnostic::Kind::UnalignedDma);
    EXPECT_EQ(diags[1].kind, Diagnostic::Kind::UnalignedDma);
    EXPECT_EQ(stats.conflicts.totalConflicts, 0u);
}

TEST(Checker, WramNearMissFlagged)
{
    DpuConfig cfg = checkedCfg();
    cfg.checker.wramGuardBytes = 64;
    Dpu dpu(cfg);
    const std::uint32_t top =
        static_cast<std::uint32_t>(cfg.wramBytes) - 4;
    const auto stats = dpu.run(1, [top](TaskletCtx &ctx) {
        ctx.wramStore32(top, 1);       // inside the guard band
        ctx.wramStore32(top - 256, 1); // well clear of it
    });
    const auto &diags = stats.conflicts.diagnostics;
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, Diagnostic::Kind::WramNearMiss);
}

TEST(Checker, BarrierMismatchFlagged)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        if (ctx.id() == 0)
            ctx.barrier();
        ctx.wramStore32(ctx.id() * 64, 1);
    });
    const auto &diags = stats.conflicts.diagnostics;
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, Diagnostic::Kind::BarrierMismatch);
}

TEST(Checker, FailFastPanics)
{
    DpuConfig cfg = checkedCfg();
    cfg.checker.failFast = true;
    Dpu dpu(cfg);
    EXPECT_DEATH(dpu.run(2,
                         [](TaskletCtx &ctx) {
                             ctx.wramStore32(0, ctx.id());
                         }),
                 "conflict");
}

// ----- negative cases: ordered or disjoint accesses stay clean -----

TEST(Checker, DisjointPartitionIsClean)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(4, [](TaskletCtx &ctx) {
        const std::uint32_t base = ctx.id() * 256;
        ctx.mramRead(4096 + ctx.id() * 256, base, 64);
        for (std::uint32_t i = 0; i < 16; ++i)
            ctx.wramStore32(base + 64 + 4 * i,
                            ctx.wramLoad32(base + 4 * i));
        ctx.mramWrite(base + 64, 8192 + ctx.id() * 256, 64);
    });
    EXPECT_TRUE(stats.conflicts.clean()) << stats.conflicts.summary();
    EXPECT_GT(stats.conflicts.accessesRecorded, 0u);
}

TEST(Checker, SharedReadsAreClean)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(8, [](TaskletCtx &ctx) {
        // Everyone reads the same table: read/read never conflicts.
        for (std::uint32_t i = 0; i < 8; ++i)
            ctx.wramLoad32(4 * i);
    });
    EXPECT_TRUE(stats.conflicts.clean()) << stats.conflicts.summary();
}

TEST(Checker, BarrierOrdersStagingAgainstReaders)
{
    // The tasklet-0-stages-shared-data pattern used by the conv and
    // NTT kernels: racy without the barrier, clean with it.
    const auto staging = [](bool with_barrier) {
        return [with_barrier](TaskletCtx &ctx) {
            if (ctx.id() == 0)
                ctx.mramRead(0, 0, 64);
            if (with_barrier)
                ctx.barrier();
            ctx.wramLoad32(4 * ctx.id());
        };
    };
    Dpu racy(checkedCfg());
    const auto bad = racy.run(4, staging(false));
    EXPECT_GT(bad.conflicts.totalConflicts, 0u);

    Dpu ordered(checkedCfg());
    const auto good = ordered.run(4, staging(true));
    EXPECT_TRUE(good.conflicts.clean()) << good.conflicts.summary();
}

TEST(Checker, SuppressionApiSilencesJustifiedRanges)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        ctx.checkerAllowRange(MemSpace::Wram, 64, 4,
                              "test: externally synchronised slot");
        ctx.wramStore32(64, ctx.id());
    });
    EXPECT_EQ(stats.conflicts.totalConflicts, 0u);
    EXPECT_EQ(stats.conflicts.suppressedConflicts, 1u);
    EXPECT_TRUE(stats.conflicts.clean());
}

TEST(Checker, DisabledByDefaultRecordsNothing)
{
    Dpu dpu(DpuConfig{});
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        ctx.wramStore32(0, ctx.id()); // racy, but nobody is looking
    });
    EXPECT_TRUE(stats.conflicts.clean());
    EXPECT_EQ(stats.conflicts.accessesRecorded, 0u);
}

// ----- regression: every shipped kernel is conflict-clean -----

class ShippedKernels : public ::testing::TestWithParam<unsigned>
{
};

INSTANTIATE_TEST_SUITE_P(Tasklets, ShippedKernels,
                         ::testing::Values(1u, 11u, 16u),
                         [](const auto &tpi) {
                             return "t" + std::to_string(tpi.param);
                         });

TEST_P(ShippedKernels, ElementwiseKernelsConflictClean)
{
    const unsigned tasklets = GetParam();
    // Awkward element counts: odd splits at 4-byte element width used
    // to make adjacent tasklets' rounded-up DMA tails overlap.
    const struct
    {
        std::uint32_t limbs;
        std::uint32_t elems;
    } shapes[] = {{1, 1000}, {1, 513}, {2, 513}, {4, 129}};
    for (const auto &s : shapes) {
        const auto p = standardVecParams(s.limbs, s.elems);
        for (const bool multiply : {false, true}) {
            Dpu dpu(checkedCfg());
            const auto stats =
                dpu.run(tasklets, multiply
                                      ? makeVecMulModQKernel(p)
                                      : makeVecAddModQKernel(p));
            EXPECT_TRUE(stats.conflicts.clean())
                << "limbs=" << s.limbs << " elems=" << s.elems
                << " mul=" << multiply << " tasklets=" << tasklets
                << "\n"
                << stats.conflicts.summary();
        }
    }
}

TEST_P(ShippedKernels, ConvolutionKernelConflictClean)
{
    const unsigned tasklets = GetParam();
    const ConvKernelParams p = standardConvParams(2, 32);
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(tasklets, makeNegacyclicConvKernel(p));
    EXPECT_TRUE(stats.conflicts.clean())
        << "tasklets=" << tasklets << "\n" << stats.conflicts.summary();
}

TEST_P(ShippedKernels, NttKernelConflictClean)
{
    const unsigned tasklets = GetParam();
    const std::uint32_t n = 64;
    const std::uint32_t p = static_cast<std::uint32_t>(
        findNttPrimes(30, 2 * n, 1)[0]);
    const auto kp = makeNttParams(p, n, 5);
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(tasklets, makeNttMulKernel(kp));
    EXPECT_TRUE(stats.conflicts.clean())
        << "tasklets=" << tasklets << "\n" << stats.conflicts.summary();
}

TEST(CheckerOrchestrator, PimHeSystemLaunchesConflictClean)
{
    constexpr std::size_t N = 2;
    BfvHarness<N> h(16);
    pim::SystemConfig cfg;
    cfg.numDpus = 4;
    cfg.dpu.checker.enabled = true;
    cfg.dpu.checker.failFast = true; // a dirty launch would abort
    PimHeSystem<N> pimsys(h.ctx, cfg, 3, 11);

    std::vector<Ciphertext<N>> as, bs;
    for (int i = 0; i < 5; ++i) {
        as.push_back(h.encryptScalar(i));
        bs.push_back(h.encryptScalar(i + 2));
    }
    const auto sums = pimsys.addCiphertextVectors(as, bs);
    EXPECT_TRUE(pimsys.lastLaunch().conflictClean());
    EXPECT_EQ(pimsys.lastLaunch().totalConflicts(), 0u);
    const auto prods = pimsys.mulCoefficientwise(as, bs);
    EXPECT_TRUE(pimsys.lastLaunch().conflictClean());
    // The checked results still decrypt correctly.
    EXPECT_EQ(h.decryptScalar(sums[1]), 4u);
}

} // namespace
} // namespace pimhe
