/**
 * @file
 * Tests for the plan-level lifetime verifier: the four violation
 * classes with exact byte ranges, the freed-interval bookkeeping
 * (merge on free, split on realloc), write-target declaration
 * consumption, orchestrator integration (every resident flow keeps
 * the plan clean under verifyBeforeLaunch), and the death tests — a
 * use-after-drop launch must abort before any simulated cycle.
 */

#include <gtest/gtest.h>

#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;

analysis::KernelFootprint
planFootprint(const std::string &name,
              std::vector<analysis::MramRegion> regions)
{
    analysis::KernelFootprint fp;
    fp.kernel = name;
    fp.minTasklets = 1;
    fp.maxTasklets = 24;
    fp.mramRegions = std::move(regions);
    return fp;
}

// ----- the four violation classes -----

TEST(PlanVerify, UseAfterDropNamesExactBytes)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 1024, 4096, "victim");
    pv.noteFree(1);
    const auto report = pv.checkLaunch(planFootprint(
        "stale-read",
        {{"operand A", 2048, 512, analysis::Access::Read}}));
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.names(analysis::PlanViolationKind::UseAfterDrop));
    EXPECT_EQ(report.violations[0].begin, 2048u);
    EXPECT_EQ(report.violations[0].end, 2048u + 512);
    EXPECT_NE(report.violations[0].describe().find("use-after-drop"),
              std::string::npos);
}

TEST(PlanVerify, UseAfterDropCaughtOnWritesToo)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "victim");
    pv.noteFree(1);
    const auto report = pv.checkLaunch(planFootprint(
        "stale-write",
        {{"result", 0, 4096, analysis::Access::Write}}));
    EXPECT_TRUE(report.names(analysis::PlanViolationKind::UseAfterDrop));
}

TEST(PlanVerify, WriteWhilePinnedUnlessDeclared)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "operand");
    pv.notePin(1, true);
    const auto fp = planFootprint(
        "overwrite", {{"result", 0, 4096, analysis::Access::Write}});

    const auto bad = pv.checkLaunch(fp);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(
        bad.names(analysis::PlanViolationKind::WriteWhilePinned));
    EXPECT_NE(bad.violations[0].what.find("operand"),
              std::string::npos);

    // Declaring the region as this launch's output legitimises it.
    pv.declareWriteTarget(1);
    EXPECT_TRUE(pv.checkLaunch(fp).ok());
}

TEST(PlanVerify, ReadingPinnedOrDirtyRegionsIsFine)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "operand");
    pv.notePin(1, true);
    pv.noteDirty(1, true);
    const auto report = pv.checkLaunch(planFootprint(
        "reader", {{"operand A", 0, 4096, analysis::Access::Read}}));
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PlanVerify, DirtyAliasUnlessDeclared)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "cached result");
    pv.noteDirty(1, true);
    const auto fp = planFootprint(
        "staging",
        {{"scratch", 2048, 4096, analysis::Access::Write}});

    const auto bad = pv.checkLaunch(fp);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.names(analysis::PlanViolationKind::DirtyAlias));
    // Only the aliased prefix is reported, not the whole write.
    EXPECT_EQ(bad.violations[0].begin, 2048u);
    EXPECT_EQ(bad.violations[0].end, 4096u);

    pv.declareWriteTarget(1);
    EXPECT_TRUE(pv.checkLaunch(fp).ok());
}

TEST(PlanVerify, StrayWriteIntoCleanLiveRegion)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "cached operand"); // neither pinned nor dirty
    const auto report = pv.checkLaunch(planFootprint(
        "stray", {{"result", 0, 64, analysis::Access::Write}}));
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.names(analysis::PlanViolationKind::StrayWrite));
}

TEST(PlanVerify, UntrackedBytesAreUnconstrained)
{
    // A standalone layout the arena never tracked (e.g. the
    // convolver's fixed offsets) passes with no events recorded.
    analysis::PlanVerifier pv;
    const auto report = pv.checkLaunch(planFootprint(
        "standalone",
        {{"operand A", 0, 4096, analysis::Access::Read},
         {"result", 4096, 4096, analysis::Access::Write}}));
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(pv.launchesChecked(), 1u);
}

// ----- freed-interval bookkeeping -----

TEST(PlanVerify, AdjacentFreesMergeAndReallocSplits)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "a");
    pv.noteAlloc(2, 4096, 4096, "b");
    pv.noteFree(1);
    pv.noteFree(2);
    EXPECT_EQ(pv.freedRanges(), 1u); // [0, 8192) coalesced
    EXPECT_EQ(pv.liveRegions(), 0u);

    // Reallocating the middle splits the freed run in two...
    pv.noteAlloc(3, 2048, 4096, "c");
    EXPECT_EQ(pv.freedRanges(), 2u); // [0, 2048) and [6144, 8192)

    // ...the reallocated bytes are legitimate again...
    pv.declareWriteTarget(3);
    EXPECT_TRUE(pv.checkLaunch(planFootprint(
                      "reuse", {{"result", 2048, 4096,
                                 analysis::Access::Write}}))
                    .ok());

    // ...while the leftover freed tails still trip the check.
    const auto stale = pv.checkLaunch(planFootprint(
        "tail", {{"operand A", 0, 2048, analysis::Access::Read}}));
    EXPECT_TRUE(
        stale.names(analysis::PlanViolationKind::UseAfterDrop));
}

TEST(PlanVerify, DeclaredTargetsAreConsumedPerLaunch)
{
    analysis::PlanVerifier pv;
    pv.noteAlloc(1, 0, 4096, "output");
    pv.notePin(1, true);
    const auto fp = planFootprint(
        "writer", {{"result", 0, 4096, analysis::Access::Write}});

    pv.declareWriteTarget(1);
    EXPECT_TRUE(pv.checkLaunch(fp).ok());
    // The declaration armed exactly one launch; a repeat without
    // re-declaring is the bug this exists to catch.
    EXPECT_FALSE(pv.checkLaunch(fp).ok());

    // clearDeclaredTargets drops armed ids without checking anything
    // (the verify-off path), so they cannot leak into a later launch.
    pv.declareWriteTarget(1);
    pv.clearDeclaredTargets();
    EXPECT_FALSE(pv.checkLaunch(fp).ok());
}

TEST(PlanVerify, UnknownIdsAreIgnored)
{
    analysis::PlanVerifier pv;
    pv.noteFree(99);
    pv.notePin(99, true);
    pv.noteDirty(99, true);
    EXPECT_EQ(pv.liveRegions(), 0u);
    EXPECT_EQ(pv.freedRanges(), 0u);
}

// ----- orchestrator integration -----

pim::SystemConfig
verifiedSystem(std::size_t dpus)
{
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    cfg.dpu.checker.enabled = true;
    cfg.dpu.checker.failFast = true;
    return cfg;
}

/** Every resident-cache flow must keep the arena plan clean, and
 *  every launch must carry a symbolic race proof at its N. */
TEST(PlanVerifyIntegration, ResidentFlowsKeepThePlanClean)
{
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, verifiedSystem(2), 2, 11);

    const auto a = h.encryptScalar(9);
    const auto b = h.encryptScalar(4);
    const auto ra = pimsys.makeResident(a);
    const auto rb = pimsys.makeResident(b);

    const auto checkLast = [&](const char *where) {
        const auto &set = pimsys.dpuSet();
        EXPECT_TRUE(set.lastPlanCheck().ok())
            << where << ":\n" << set.lastPlanCheck().summary();
        EXPECT_TRUE(set.lastSymbolic().ok())
            << where << ":\n" << set.lastSymbolic().summary();
        EXPECT_TRUE(set.lastVerify().ok()) << where;
    };

    const auto sum = pimsys.addResident(ra, rb);
    checkLast("addResident");
    (void)pimsys.materialize(sum);

    std::vector<Ciphertext<2>> cts;
    for (std::uint64_t v : {1u, 2u, 3u, 4u, 5u})
        cts.push_back(h.encryptScalar(v));
    (void)pimsys.reduceCiphertexts(cts);
    checkLast("reduceCiphertexts");

    (void)pimsys.addCiphertextVectors(cts, cts); // staged elementwise
    checkLast("addCiphertextVectors (staged)");

    EXPECT_GE(pimsys.dpuSet().plan().launchesChecked(), 5u);
}

// ----- death tests: violations abort before the launch runs -----

TEST(PlanVerifyDeath, UseAfterDropRejectedBeforeLaunch)
{
    pim::SystemConfig cfg;
    cfg.verifyBeforeLaunch = true;
    pim::DpuSet set(cfg, 1);
    set.plan().noteAlloc(1, 0, 4096, "dropped ciphertext");
    set.plan().noteFree(1);
    // The kernel body would corrupt nothing in simulation — the point
    // is that the plan check rejects it before any cycle runs.
    EXPECT_DEATH(
        set.launch(1, [](pim::TaskletCtx &) {},
                   planFootprint("stale-consumer",
                                 {{"operand A", 0, 4096,
                                   analysis::Access::Read}})),
        "use-after-drop");
}

TEST(PlanVerifyDeath, StaleResidentAddressRejectedBeforeLaunch)
{
    // Cache-level version: drop a resident handle, then launch a
    // kernel whose parameter block still points at its old arena
    // bytes. The first allocation starts at arena offset 0.
    BfvHarness<2> h(16);
    PimHeSystem<2> pimsys(h.ctx, verifiedSystem(1), 1, 4);
    const auto ra = pimsys.makeResident(h.encryptScalar(7));
    // Force the lazy upload so the handle owns arena bytes (the first
    // allocation lands at offset 0), then drop it.
    (void)pimsys.addResident(ra, ra);
    pimsys.dropResident(ra);
    EXPECT_DEATH(
        pimsys.dpuSet().launch(
            1, [](pim::TaskletCtx &) {},
            planFootprint("stale-handle-consumer",
                          {{"operand A", 0, 8,
                            analysis::Access::Read}})),
        "use-after-drop|pre-launch verification rejected");
}

} // namespace
} // namespace pimhe
