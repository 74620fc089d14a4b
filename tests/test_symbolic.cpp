/**
 * @file
 * Tests for the symbolic race prover: every shipped kernel must prove
 * race-free over the whole (tasklet count x parameter) grid, seeded
 * races must be flagged with their exact symbolic witness, the static
 * proof must subsume what the dynamic checker catches on racy kernels
 * (and flag configurations no test executes), the suppression
 * audit must produce all three verdicts, and the launch gate's kernel
 * check (checkKernelLaunch) must be exactly what DpuSet's gate
 * reports.
 */

#include <gtest/gtest.h>

#include "analysis/symbolic.h"
#include "pim/dpu.h"
#include "pim/system.h"
#include "pimhe/kernel_registry.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;

// ----- clean direction: the shipped grid proves race-free -----

TEST(Symbolic, EveryRegisteredKernelProvesRaceFree)
{
    const DpuConfig cfg;
    const analysis::SymbolicProver prover(cfg.maxTasklets);
    for (const auto &family : kernelRegistry()) {
        const auto plans = family.plans(cfg, 12);
        ASSERT_FALSE(plans.empty()) << family.factory;
        for (const auto &plan : plans) {
            const auto report = prover.prove(plan.footprint);
            EXPECT_TRUE(report.ok())
                << family.factory << " [" << plan.params << "]\n"
                << report.summary();
            EXPECT_TRUE(report.modeled) << family.factory;
            EXPECT_EQ(report.maxTasklets,
                      std::min(cfg.maxTasklets,
                               plan.footprint.maxTasklets))
                << family.factory << " did not cover the full range";
            EXPECT_GT(report.pairsChecked, 0u) << family.factory;
        }
    }
}

TEST(Symbolic, UnmodeledFootprintNeverPasses)
{
    analysis::KernelFootprint fp;
    fp.kernel = "no-model";
    fp.maxTasklets = 24;
    const auto report = analysis::SymbolicProver().prove(fp);
    EXPECT_FALSE(report.modeled);
    EXPECT_FALSE(report.ok());
}

// ----- seeded direction: exact witnesses -----

/** Race 1: unaligned-stride DMA tails — each tasklet writes 16 bytes
 *  at stride 8, so adjacent tasklets overlap by 8. */
TEST(Symbolic, SeededDmaTailOverlapWitness)
{
    analysis::KernelFootprint fp;
    fp.kernel = "seeded-dma-tail";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned) {
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Mram, 0, t * 8ull, t * 8ull + 16, true,
             "dma tail"}};
    };
    const auto report = analysis::SymbolicProver().proveAt(fp, 2);
    ASSERT_FALSE(report.ok());
    ASSERT_EQ(report.totalRaces, 1u);
    const auto &w = report.witnesses.at(0);
    EXPECT_EQ(w.space, analysis::Space::Mram);
    EXPECT_EQ(w.tasklets, 2u);
    EXPECT_EQ(w.t1, 0u);
    EXPECT_EQ(w.t2, 1u);
    EXPECT_EQ(w.begin, 8u);
    EXPECT_EQ(w.end, 16u);
    EXPECT_TRUE(w.writeWrite);
    EXPECT_NE(w.describe().find("t=0 vs t=1, N=2, overlap [8, 16)"),
              std::string::npos)
        << w.describe();
}

/** Race 2: shared WRAM scratch — every tasklet writes word 0. */
TEST(Symbolic, SeededSharedWramScratchWitness)
{
    analysis::KernelFootprint fp;
    fp.kernel = "seeded-wram-scratch";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned, unsigned) {
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Wram, 0, 0, 8, true, "scratch"}};
    };
    const auto report = analysis::SymbolicProver().prove(fp);
    ASSERT_FALSE(report.ok());
    // N tasklets -> C(N, 2) pairs, summed over N = 2..24.
    std::uint64_t expect = 0;
    for (unsigned n = 2; n <= 24; ++n)
        expect += n * (n - 1) / 2;
    EXPECT_EQ(report.totalRaces, expect);
    const auto &w = report.witnesses.at(0);
    EXPECT_EQ(w.space, analysis::Space::Wram);
    EXPECT_EQ(w.begin, 0u);
    EXPECT_EQ(w.end, 8u);
}

/** Race 3: staging without a barrier — tasklet 0's table write shares
 *  epoch 0 with everyone's reads (read/write, not write/write). */
TEST(Symbolic, SeededMissingBarrierWitness)
{
    analysis::KernelFootprint fp;
    fp.kernel = "seeded-missing-barrier";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned) {
        std::vector<analysis::SymAccess> acc;
        if (t == 0)
            acc.push_back({analysis::Space::Wram, 0, 0, 64, true,
                           "table staging"});
        acc.push_back({analysis::Space::Wram, 0, 0, 64, false,
                       "table read"});
        return acc;
    };
    const auto report = analysis::SymbolicProver().proveAt(fp, 4);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.totalRaces, 3u); // t=0's write vs t=1..3's reads
    const auto &w = report.witnesses.at(0);
    EXPECT_FALSE(w.writeWrite);
    EXPECT_EQ(w.t1, 0u);
    EXPECT_EQ(w.epoch, 0u);
    EXPECT_EQ(w.begin, 0u);
    EXPECT_EQ(w.end, 64u);

    // The same accesses separated by a barrier epoch are race-free.
    analysis::KernelFootprint fixed = fp;
    fixed.taskletAccess = [](unsigned t, unsigned) {
        std::vector<analysis::SymAccess> acc;
        if (t == 0)
            acc.push_back({analysis::Space::Wram, 0, 0, 64, true,
                           "table staging"});
        acc.push_back({analysis::Space::Wram, 1, 0, 64, false,
                       "table read"});
        return acc;
    };
    EXPECT_TRUE(analysis::SymbolicProver().prove(fixed).ok());
}

/** Race 4: the hazard alignedTaskletRange exists to prevent — the
 *  plain taskletRange split at 4-byte elements makes adjacent
 *  tasklets' rounded-up DMA tails share an MRAM word. */
TEST(Symbolic, SeededUnalignedSplitModelWitness)
{
    constexpr std::uint32_t kElems = 101, kEb = 4;
    analysis::KernelFootprint fp;
    fp.kernel = "seeded-unaligned-split";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned N) {
        const auto [begin, end] = taskletRange(kElems, t, N);
        if (begin >= end)
            return std::vector<analysis::SymAccess>{};
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Mram, 0, begin * std::uint64_t(kEb),
             (end * std::uint64_t(kEb) + 7) / 8 * 8, true,
             "result (unaligned split)"}};
    };
    const auto report = analysis::SymbolicProver().prove(fp);
    ASSERT_FALSE(report.ok());
    // At N=11: 101 = 9*11 + 2, so the t=2/t=3 boundary falls at the
    // odd element 29 -> byte 116, and t=2's DMA tail rounds up to 120
    // while t=3 starts writing at 116: both own [116, 120).
    bool found = false;
    for (const auto &w : report.witnesses)
        if (w.tasklets == 11 && w.t1 == 2 && w.t2 == 3 &&
            w.begin == 116 && w.end == 120)
            found = true;
    EXPECT_TRUE(found) << report.summary();

    // The aligned split the shipped kernels use discharges it.
    analysis::KernelFootprint fixed = fp;
    fixed.taskletAccess = [](unsigned t, unsigned N) {
        const auto [begin, end] =
            alignedTaskletRange(kElems, kEb, t, N);
        if (begin >= end)
            return std::vector<analysis::SymAccess>{};
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Mram, 0, begin * std::uint64_t(kEb),
             (end * std::uint64_t(kEb) + 7) / 8 * 8, true,
             "result (aligned split)"}};
    };
    EXPECT_TRUE(analysis::SymbolicProver().prove(fixed).ok());
}

/** Race 5: WRAM buffer stride too small — a 3-buffer layout laid out
 *  with a 2-buffer stride makes tasklet t's OUT slot alias tasklet
 *  t+1's A slot. */
TEST(Symbolic, SeededWramStrideTooSmallWitness)
{
    constexpr std::uint64_t kChunk = 256;
    analysis::KernelFootprint fp;
    fp.kernel = "seeded-wram-stride";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned) {
        const std::uint64_t wbase = t * 2 * kChunk; // bug: 3 buffers
        std::vector<analysis::SymAccess> acc;
        for (unsigned i = 0; i < 3; ++i)
            acc.push_back({analysis::Space::Wram, 0,
                           wbase + i * kChunk,
                           wbase + (i + 1) * kChunk, true, "buffer"});
        return acc;
    };
    const auto report = analysis::SymbolicProver().proveAt(fp, 2);
    ASSERT_FALSE(report.ok());
    const auto &w = report.witnesses.at(0);
    EXPECT_EQ(w.t1, 0u);
    EXPECT_EQ(w.t2, 1u);
    EXPECT_EQ(w.begin, 2 * kChunk);
    EXPECT_EQ(w.end, 3 * kChunk);
}

/** Race 6: an in-place reduce round folding MORE pairs than the fold
 *  offset — the result rows run into the operand-B rows. */
TEST(Symbolic, SeededOverfoldedReduceWitness)
{
    const DpuConfig cfg;
    // 8 slices of 64 elements at 8-byte elements; a correct 8->4 fold
    // adds 4 pairs. Folding 6 pairs writes past the B offset.
    VecKernelParams kp;
    kp.limbs = 2;
    kp.elems = 6 * 64;        // pairs = 6 (bug: > hh = 4)
    kp.mramA = 0;
    kp.mramB = 4 * 64 * 8;    // hh * sliceBytes
    kp.mramOut = 0;
    auto fp = reduceRoundFootprint(kp, cfg, 12);
    const auto report =
        analysis::SymbolicProver(cfg.maxTasklets).prove(fp);
    ASSERT_FALSE(report.ok()) << "overfolded round must race";
    bool crosses_fold = false;
    for (const auto &w : report.witnesses)
        if (w.space == analysis::Space::Mram && w.begin >= kp.mramB)
            crosses_fold = true;
    EXPECT_TRUE(crosses_fold) << report.summary();

    // The correct round (pairs <= hh) proves clean — the disjointness
    // claim in reduceRoundFootprint's comment, machine-checked.
    kp.elems = 4 * 64;
    EXPECT_TRUE(analysis::SymbolicProver(cfg.maxTasklets)
                    .prove(reduceRoundFootprint(kp, cfg, 12))
                    .ok());
}

/** Race 7: convolution output rows off by one — each tasklet writes
 *  one row past its range, colliding with the next tasklet's first. */
TEST(Symbolic, SeededConvRowOverrunWitness)
{
    constexpr std::uint32_t kRows = 32, kAcc = 24;
    analysis::KernelFootprint fp;
    fp.kernel = "seeded-conv-overrun";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned N) {
        const auto [tb, te] = taskletRange(kRows, t, N);
        if (tb >= te)
            return std::vector<analysis::SymAccess>{};
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Mram, 1, tb * std::uint64_t(kAcc),
             (te + 1) * std::uint64_t(kAcc), true, "result rows"}};
    };
    const auto report = analysis::SymbolicProver().proveAt(fp, 4);
    ASSERT_FALSE(report.ok());
    const auto &w = report.witnesses.at(0);
    EXPECT_EQ(w.t1 + 1, w.t2);
    EXPECT_EQ(w.end - w.begin, kAcc);
}

// ----- cross-validation against the dynamic checker -----

DpuConfig
checkedCfg()
{
    DpuConfig cfg;
    cfg.checker.enabled = true;
    return cfg;
}

/** True when some symbolic witness covers the dynamic conflict: same
 *  space, overlapping byte range. The proof must come from proveAt()
 *  at the same tasklet count so its witness list is not elided by the
 *  cross-N cap. */
bool
covered(const ConflictRecord &c, const analysis::SymbolicReport &proof)
{
    for (const auto &w : proof.witnesses) {
        const auto wspace = w.space == analysis::Space::Wram
                                ? MemSpace::Wram
                                : MemSpace::Mram;
        if (wspace == c.space && w.begin < c.end && c.begin < w.end)
            return true;
    }
    return false;
}

/**
 * Static-subsumes-dynamic on seeded-racy kernels: run each racy
 * kernel under the dynamic checker, then require every recorded
 * conflict to be covered by a symbolic witness of the matching model.
 * (DMA sizes in the racy kernels stay 8-aligned — chargeDma asserts
 * sizes; only the overlap is wrong.)
 */
TEST(SymbolicCrossValidation, StaticFlagsEveryDynamicRace)
{
    struct RacyKernel
    {
        const char *name;
        Kernel kernel;
        analysis::TaskletAccessFn model;
    };
    const std::vector<RacyKernel> racy = {
        {"mram-dma-overlap",
         [](TaskletCtx &ctx) {
             // Disjoint WRAM staging, overlapping 16-byte MRAM writes
             // at stride 8.
             ctx.mramWrite(ctx.id() * 64, 4096 + ctx.id() * 8, 16);
         },
         [](unsigned t, unsigned) {
             return std::vector<analysis::SymAccess>{
                 {analysis::Space::Wram, 0, t * 64ull, t * 64ull + 16,
                  false, "staging"},
                 {analysis::Space::Mram, 0, 4096 + t * 8ull,
                  4096 + t * 8ull + 16, true, "dma"}};
         }},
        {"wram-shared-store",
         [](TaskletCtx &ctx) { ctx.wramStore32(64, ctx.id()); },
         [](unsigned, unsigned) {
             return std::vector<analysis::SymAccess>{
                 {analysis::Space::Wram, 0, 64, 68, true, "slot"}};
         }},
        {"staging-missing-barrier",
         [](TaskletCtx &ctx) {
             if (ctx.id() == 0)
                 ctx.mramRead(0, 0, 64); // writes WRAM [0, 64)
             ctx.wramLoad32(4 * ctx.id());
         },
         [](unsigned t, unsigned) {
             std::vector<analysis::SymAccess> acc;
             if (t == 0)
                 acc.push_back({analysis::Space::Wram, 0, 0, 64, true,
                                "staging"});
             acc.push_back({analysis::Space::Wram, 0, 4ull * t,
                            4ull * t + 4, false, "read"});
             return acc;
         }},
    };

    for (const auto &rk : racy) {
        for (const unsigned tasklets : {2u, 4u, 11u}) {
            Dpu dpu(checkedCfg());
            const auto stats = dpu.run(tasklets, rk.kernel);
            ASSERT_GT(stats.conflicts.totalConflicts, 0u)
                << rk.name << " did not race dynamically";

            analysis::KernelFootprint fp;
            fp.kernel = rk.name;
            fp.maxTasklets = 24;
            fp.taskletAccess = rk.model;
            // The full-sweep proof must reject the kernel...
            ASSERT_FALSE(analysis::SymbolicProver().prove(fp).ok())
                << rk.name;
            // ...and the per-N proof must witness every conflict the
            // dynamic checker recorded at this tasklet count.
            const auto proof =
                analysis::SymbolicProver().proveAt(fp, tasklets);
            ASSERT_FALSE(proof.ok()) << rk.name;
            for (const auto &c : stats.conflicts.conflicts)
                EXPECT_TRUE(covered(c, proof))
                    << rk.name << " @ " << tasklets
                    << " tasklets: dynamic conflict " << c.describe()
                    << " has no symbolic witness\n"
                    << proof.summary();
        }
    }
}

/** The prover covers configurations no dynamic test executes: a race
 *  that only appears above the tasklet counts any test runs. */
TEST(SymbolicCrossValidation, StaticFlagsUnexecutedConfigs)
{
    // Disjoint for N <= 16 (the largest count the dynamic tests run),
    // racy at N >= 17: 17 tasklets x 4096 bytes wrap the 64 KB WRAM.
    analysis::KernelFootprint fp;
    fp.kernel = "wide-slots";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned) {
        const std::uint64_t base = (t * 4096ull) % 65536;
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Wram, 0, base, base + 4096, true,
             "slot"}};
    };
    const analysis::SymbolicProver prover;
    for (const unsigned n : {1u, 11u, 16u})
        EXPECT_TRUE(prover.proveAt(fp, n).ok()) << n;
    const auto report = prover.prove(fp);
    EXPECT_FALSE(report.ok());
    bool above_tested = false;
    for (const auto &w : report.witnesses)
        if (w.tasklets >= 17)
            above_tested = true;
    EXPECT_TRUE(above_tested) << report.summary();
}

// ----- suppression audit -----

TEST(SuppressionAudit, DischargedWhenProverCleanAndNoHits)
{
    // A justified-looking suppression over a range the kernel never
    // actually conflicts on: zero hits + clean proof = removable.
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        if (ctx.id() == 0) // the allow-list is checker-global
            ctx.checkerAllowRange(MemSpace::Wram, 256, 64,
                                  "claimed: externally synchronised");
        ctx.wramStore32(ctx.id() * 8, 1); // disjoint anyway
    });
    ASSERT_EQ(stats.conflicts.suppressions.size(), 1u);
    EXPECT_EQ(stats.conflicts.suppressions[0].hits, 0u);

    analysis::KernelFootprint fp;
    fp.kernel = "disjoint-stores";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned) {
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Wram, 0, t * 8ull, t * 8ull + 4, true,
             "slot"}};
    };
    const auto proof = analysis::SymbolicProver().prove(fp);
    ASSERT_TRUE(proof.ok());
    const auto findings = auditSuppressions(stats.conflicts, proof);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].verdict,
              analysis::SuppressionVerdict::Discharged);
    EXPECT_NE(findings[0].describe().find("discharged"),
              std::string::npos)
        << findings[0].describe();
}

TEST(SuppressionAudit, MasksProvenRaceWhenWitnessInsideRange)
{
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        if (ctx.id() == 0) // the allow-list is checker-global
            ctx.checkerAllowRange(MemSpace::Wram, 64, 4,
                                  "claimed: benign shared slot");
        ctx.wramStore32(64, ctx.id()); // a real write/write race
    });
    ASSERT_EQ(stats.conflicts.suppressions.size(), 1u);
    EXPECT_EQ(stats.conflicts.suppressions[0].hits, 1u);
    EXPECT_EQ(stats.conflicts.suppressedConflicts, 1u);

    analysis::KernelFootprint fp;
    fp.kernel = "shared-slot";
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned, unsigned) {
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Wram, 0, 64, 68, true, "slot"}};
    };
    const auto proof = analysis::SymbolicProver().prove(fp);
    ASSERT_FALSE(proof.ok());
    const auto findings = auditSuppressions(stats.conflicts, proof);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].verdict,
              analysis::SuppressionVerdict::MasksProvenRace);
}

TEST(SuppressionAudit, UnresolvedWhenHitsButNoWitness)
{
    // Runtime hits on a range the (coarse) model does not exhibit:
    // the audit must keep the suppression rather than discharge it.
    Dpu dpu(checkedCfg());
    const auto stats = dpu.run(2, [](TaskletCtx &ctx) {
        if (ctx.id() == 0) // the allow-list is checker-global
            ctx.checkerAllowRange(MemSpace::Wram, 128, 4,
                                  "spinlock word, ordered by acquire");
        ctx.wramStore32(128, ctx.id());
    });
    ASSERT_EQ(stats.conflicts.suppressions.size(), 1u);
    ASSERT_EQ(stats.conflicts.suppressions[0].hits, 1u);

    analysis::KernelFootprint fp;
    fp.kernel = "spinlock-model"; // model omits the lock word
    fp.maxTasklets = 24;
    fp.taskletAccess = [](unsigned t, unsigned) {
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Wram, 0, t * 8ull, t * 8ull + 4, true,
             "slot"}};
    };
    const auto proof = analysis::SymbolicProver().prove(fp);
    ASSERT_TRUE(proof.ok());
    const auto findings = auditSuppressions(stats.conflicts, proof);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].verdict,
              analysis::SuppressionVerdict::Unresolved);
}

/** No shipped kernel carries a checkerAllowRange() suppression: the
 *  registry sweep proves them race-free without exemptions, so clean
 *  runs must report zero suppressions to audit. */
TEST(SuppressionAudit, ShippedKernelsCarryNoSuppressions)
{
    Dpu dpu(checkedCfg());
    const auto stats =
        dpu.run(11, makeVecAddModQKernel(standardVecParams(1, 513)));
    EXPECT_TRUE(stats.conflicts.clean());
    EXPECT_TRUE(stats.conflicts.suppressions.empty());
    EXPECT_EQ(stats.conflicts.suppressedConflicts, 0u);
}

// ----- the launch gate's kernel check -----

TEST(LaunchGate, BudgetAndRaceViolationsShareOneReport)
{
    const DpuConfig cfg;
    analysis::KernelFootprint fp;
    fp.kernel = "wram-and-dma-tail";
    fp.maxTasklets = cfg.maxTasklets;
    fp.wramBytesPerTasklet = 8192; // 12 x (8K + stack) > 64 KB
    fp.taskletAccess = [](unsigned t, unsigned) {
        return std::vector<analysis::SymAccess>{
            {analysis::Space::Mram, 0, t * 8ull, t * 8ull + 16, true,
             "dma tail"}};
    };
    const auto gate = analysis::checkKernelLaunch(cfg, fp, 12);
    EXPECT_TRUE(gate.report.names(analysis::Resource::Wram))
        << gate.report.summary();
    EXPECT_TRUE(gate.report.names(analysis::Resource::Race))
        << gate.report.summary();
    ASSERT_TRUE(gate.proof.has_value());
    EXPECT_FALSE(gate.proof->ok());
    // One Race violation per witness, carrying the witness text.
    std::vector<std::string> races;
    for (const auto &v : gate.report.violations)
        if (v.resource == analysis::Resource::Race)
            races.push_back(v.what);
    ASSERT_EQ(races.size(), gate.proof->witnesses.size());
    for (std::size_t i = 0; i < races.size(); ++i)
        EXPECT_EQ(races[i], gate.proof->witnesses[i].describe());
}

TEST(LaunchGate, FootprintWithoutAccessModelGetsNoProof)
{
    const DpuConfig cfg;
    analysis::KernelFootprint fp;
    fp.kernel = "no-model";
    fp.maxTasklets = cfg.maxTasklets;
    const auto gate = analysis::checkKernelLaunch(cfg, fp, 4);
    EXPECT_FALSE(gate.proof.has_value());
    EXPECT_FALSE(gate.report.names(analysis::Resource::Race));
    EXPECT_TRUE(gate.report.ok()) << gate.report.summary();
    for (const auto &note : gate.report.notes)
        EXPECT_EQ(note.find("symbolic"), std::string::npos) << note;
}

TEST(LaunchGate, DpuSetReportsTheKernelCheckPlusTheLifetimeNote)
{
    SystemConfig cfg;
    cfg.verifyBeforeLaunch = true;
    DpuSet set(cfg, 1);
    // Plan 1 of the add family is the 54-bit block compiled() builds.
    const KernelFamily &family = kernelRegistry().front();
    const KernelPlan plan = family.plans(cfg.dpu, 12).at(1);
    ASSERT_NE(plan.params.find("54-bit"), std::string::npos);
    set.launch(12, family.compiled(), plan.footprint);

    const auto gate = analysis::checkKernelLaunch(cfg.dpu, plan.footprint, 12);
    analysis::VerifyReport want = gate.report;
    want.notes.push_back(
        "plan: region lifetimes consistent with the resident arena");
    const analysis::VerifyReport &got = set.lastVerify();
    EXPECT_EQ(got.violations.size(), want.violations.size());
    EXPECT_EQ(got.notes, want.notes);
    EXPECT_EQ(got.summary(), want.summary());
    ASSERT_TRUE(gate.proof.has_value());
    EXPECT_EQ(set.lastSymbolic().summary(), gate.proof->summary());
}

} // namespace
} // namespace pimhe
