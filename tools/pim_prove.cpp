/**
 * @file
 * pim_prove: the static sweep of every launch the library ships; exit
 * nonzero on any violation. It runs, without executing a kernel
 * (except in the suppression audit):
 *
 *  - every kernel registry plan (pimhe/kernel_registry.h), at every
 *    tasklet count from 1 to its footprint's ceiling, through the
 *    kernel check of DpuSet's launch gate, analysis::checkKernelLaunch:
 *    the LaunchVerifier budgets (WRAM, MRAM, DMA, tasklets) and the
 *    symbolic race prover at that count (analysis/symbolic.h);
 *  - the interval obligations of the three parameter sets and of the
 *    NTT and Montgomery primes the NTT plans use (analysis/interval.h);
 *  - scripted arena-lifetime scenarios of the orchestrated launch
 *    sequences (analysis/plan_verify.h);
 *  - the checkerAllowRange audit: every registered kernel family is
 *    executed once under the dynamic conflict checker (tiny shapes,
 *    operands legally zero), and every suppression the run declares
 *    is audited against the family's symbolic proof. A suppression
 *    the prover cannot discharge (Unresolved, or worse,
 *    MasksProvenRace) fails the sweep.
 *
 * Output is one line per registry plan with its tasklet range, one
 * FAIL line per failing (plan, tasklet count), and one line per other
 * check.
 *
 * Usage:
 *   pim_prove [--verbose] [--inject KIND] [--out FILE]
 *
 * --inject seeds deliberately broken plans, parameter sets, access
 * models and lifetimes so the nonzero exit path stays live: KIND is
 * one entry of the table in injections() below, or all.
 * --verbose prints every check's full report.
 * --out additionally writes the full report to FILE (CI artifact).
 *
 * Exit status (tools/gate_cli.h): 0 clean, 1 a violation was found,
 * 2 the run cannot vouch for its result (unknown KIND, an unwritable
 * FILE, or a seeded violation that did not fire).
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include "analysis/interval.h"
#include "analysis/plan_verify.h"
#include "analysis/symbolic.h"
#include "bfv/params.h"
#include "common/cli.h"
#include "modular/mod64.h"
#include "pim/config.h"
#include "pim/dpu.h"
#include "pimhe/kernel_registry.h"
#include "gate_cli.h"

namespace {

using namespace pimhe;
using gate::GateCli;

/**
 * Registry sweep: every plan at every tasklet count its footprint
 * admits, each footprint built for the count it is checked at.
 */
void
sweepRegistry(const pim::DpuConfig &cfg, GateCli &run)
{
    for (const auto &family : pimhe_kernels::kernelRegistry()) {
        run.emit("== " + family.factory + " (" + family.title + ")\n");
        // plans[n][i]: plan i with its footprint built for n tasklets.
        std::vector<std::vector<pimhe_kernels::KernelPlan>> plans(
            cfg.maxTasklets + 1);
        for (unsigned n = 1; n <= cfg.maxTasklets; ++n)
            plans[n] = family.plans(cfg, n);
        if (plans[1].empty())
            run.check(false, "registry family '" + family.factory +
                                 "' produced no launch plans\n");
        for (std::size_t i = 0; i < plans[1].size(); ++i) {
            const analysis::KernelFootprint &first = plans[1][i].footprint;
            const std::string name =
                "'" + first.kernel + "' [" + plans[1][i].params + "]";
            const unsigned lo = std::max(1u, first.minTasklets);
            const unsigned hi = std::min(cfg.maxTasklets, first.maxTasklets);
            if (lo > hi) {
                run.check(false, name + " admits no tasklet count\n");
                continue;
            }
            unsigned rejected = 0;
            for (unsigned n = lo; n <= hi; ++n) {
                // The gate skips the race proof for a footprint
                // without an access model; a shipped plan must have one.
                const analysis::KernelGateReport gate =
                    analysis::checkKernelLaunch(
                        cfg, plans[n].at(i).footprint, n);
                const bool ok = gate.report.ok() && gate.proof;
                rejected += ok ? 0 : 1;
                run.check(ok,
                          name + " at N=" + std::to_string(n) + "\n" +
                              gate.report.summary() +
                              (gate.proof ? "" : "  no access model\n"),
                          /*pass=*/"");
            }
            std::ostringstream line;
            if (rejected > 0)
                line << "FAIL " << name << " rejected at " << rejected
                     << " of the tasklet counts in [" << lo << ", " << hi
                     << "]\n";
            else
                line << "ok   " << name << " budgets and race freedom "
                     << "hold for N in [" << lo << ", " << hi << "]\n";
            run.emit(line.str());
        }
    }
}

template <std::size_t N>
analysis::IntervalReport
analyzeStandardParams()
{
    const std::string label =
        levelName(N == 1 ? SecurityLevel::Bits27
                  : N == 2 ? SecurityLevel::Bits54
                           : SecurityLevel::Bits109);
    return analysis::analyzeParamsSet(
        analysis::specOfParams<N>(standardParams<N>(), label));
}

/**
 * Interval obligations: the modulus arithmetic of the three parameter
 * sets, and the NTT and Montgomery bounds of the prime each NTT plan
 * runs on.
 */
void
sweepIntervals(GateCli &run)
{
    run.emit("== interval obligations\n");
    run.check(analyzeStandardParams<1>());
    run.check(analyzeStandardParams<2>());
    run.check(analyzeStandardParams<4>());
    for (const std::uint32_t n : pimhe_kernels::kNttLengths) {
        const auto primes = findNttPrimes(30, 2ULL * n, 1);
        if (primes.empty()) {
            run.check(false, "no 30-bit NTT prime for n=" +
                                 std::to_string(n) + "\n");
            continue;
        }
        const auto p = static_cast<std::uint32_t>(primes.front());
        run.check(analysis::analyzeNttPrime(p, n));
        run.check(analysis::analyzeMontgomeryPrime(p));
    }
}

analysis::KernelFootprint
planFootprint(const std::string &name,
              std::vector<analysis::MramRegion> regions)
{
    analysis::KernelFootprint fp;
    fp.kernel = name;
    fp.maxTasklets = 24;
    fp.mramRegions = std::move(regions);
    return fp;
}

/**
 * Scripted lifetime scenarios mirroring the orchestrator flows in
 * pimhe/orchestrator.h, checked without executing anything.
 */
void
sweepPlans(GateCli &run)
{
    run.emit("== plan-level lifetime scenarios\n");
    constexpr std::uint64_t kRegion = 4096;

    // Binary resident op: two pinned operands, one declared output.
    {
        analysis::PlanVerifier pv;
        pv.noteAlloc(1, 0, kRegion, "operand a");
        pv.noteAlloc(2, kRegion, kRegion, "operand b");
        pv.notePin(1, true);
        pv.notePin(2, true);
        pv.noteAlloc(3, 2 * kRegion, kRegion, "output");
        pv.noteDirty(3, true);
        pv.declareWriteTarget(3);
        run.check(
            pv.checkLaunch(planFootprint(
                "resident-binary",
                {{"operand A", 0, kRegion, analysis::Access::Read},
                 {"operand B", kRegion, kRegion, analysis::Access::Read},
                 {"result", 2 * kRegion, kRegion,
                  analysis::Access::Write}})));
    }

    // Tree reduction: in-place folds over one pinned region, declared
    // anew each round.
    {
        analysis::PlanVerifier pv;
        pv.noteAlloc(1, 0, 8 * kRegion, "packed slices");
        pv.notePin(1, true);
        for (std::uint32_t m = 8; m > 1;) {
            const std::uint32_t hh = (m + 1) / 2;
            const std::uint32_t pairs = m - hh;
            pv.declareWriteTarget(1);
            run.check(pv.checkLaunch(planFootprint(
                         "reduce-fold",
                         {{"accumulator", 0, pairs * kRegion,
                           analysis::Access::ReadWrite},
                          {"operand B", hh * kRegion, pairs * kRegion,
                           analysis::Access::Read}})));
            m = hh;
        }
    }

    // Staged elementwise: scratch allocated, written, freed; then the
    // bytes are legitimately reused by a later allocation.
    {
        analysis::PlanVerifier pv;
        pv.noteAlloc(100, 0, 3 * kRegion, "launch scratch");
        pv.declareWriteTarget(100);
        run.check(
            pv.checkLaunch(planFootprint(
                "staged-elementwise",
                {{"operand A", 0, kRegion, analysis::Access::Read},
                 {"operand B", kRegion, kRegion, analysis::Access::Read},
                 {"result", 2 * kRegion, kRegion,
                  analysis::Access::Write}})));
        pv.noteFree(100);
        pv.noteAlloc(101, 0, 3 * kRegion, "reused region");
        pv.declareWriteTarget(101);
        run.check(pv.checkLaunch(planFootprint(
                     "realloc-reuse", {{"result", 0, 3 * kRegion,
                                        analysis::Access::Write}})));
    }
}

/**
 * Audit one dynamic run's checkerAllowRange suppressions against the
 * kernel's symbolic proof. Discharged suppressions pass (the prover
 * shows the kernel is race-free without them); Unresolved and
 * MasksProvenRace fail the sweep.
 */
void
auditOne(const std::string &name, const pim::ConflictReport &conflicts,
         const analysis::SymbolicReport &proof, GateCli &run)
{
    if (conflicts.suppressions.empty()) {
        run.check(true, "'" + name + "' declares no checker suppressions\n");
        return;
    }
    for (const auto &f : analysis::auditSuppressions(conflicts, proof))
        run.check(f.verdict == analysis::SuppressionVerdict::Discharged,
                 "'" + name + "' " + f.describe() + "\n");
}

/**
 * Run every registered kernel family once under the dynamic conflict
 * checker (unwritten MRAM reads are legally zero, so no staging is
 * needed) and audit whatever suppressions the run declared.
 */
void
sweepSuppressions(const pim::DpuConfig &base, GateCli &run)
{
    run.emit("== checkerAllowRange suppression audit\n");
    pim::DpuConfig cfg = base;
    cfg.checker.enabled = true;
    const analysis::SymbolicProver prover(cfg.maxTasklets);
    for (const auto &family : pimhe_kernels::kernelRegistry()) {
        const auto plans = family.plans(cfg, 12);
        if (plans.empty())
            continue; // sweepRegistry already failed this family
        const unsigned tasklets =
            std::min(12u, std::min(cfg.maxTasklets,
                                   plans.front().footprint.maxTasklets));
        const pim::CompiledKernel ck = family.compiled();
        pim::Dpu dpu(cfg);
        const auto stats = dpu.run(tasklets, ck.interpret);
        auditOne(family.factory, stats.conflicts,
                 prover.prove(plans.front().footprint), run);
    }
}

/**
 * The --inject table: seeded launch plans (checked the way DpuSet's
 * launch gate checks them), parameter sets, lifetimes and
 * suppressions. Every entry must produce a violation with its exact
 * witness.
 */
std::vector<gate::Injection>
injections(const pim::DpuConfig &cfg, GateCli &run)
{
    // An empty footprint with one violation seeded by `edit`.
    const auto launch =
        [&cfg, &run](const std::string &kind, unsigned tasklets,
                     std::function<void(analysis::KernelFootprint &)> edit) {
            return gate::Injection{kind, [=, &cfg, &run] {
                auto fp = planFootprint("injected-" + kind, {});
                edit(fp);
                run.check(
                    analysis::checkKernelLaunch(cfg, fp, tasklets).report);
            }};
        };
    // A lifetime violation: `events` set up the arena, one region is
    // then launched against it.
    const auto lifetime =
        [&run](const std::string &kind, analysis::MramRegion region,
               std::function<void(analysis::PlanVerifier &)> events) {
            return gate::Injection{kind, [=, &run] {
                analysis::PlanVerifier pv;
                events(pv);
                run.check(pv.checkLaunch(
                    planFootprint("injected-" + kind, {region})));
            }};
        };
    return {
        launch("wram", 12, [](auto &fp) {
            fp.wramBytesPerTasklet = 8192; // 12 x (8K + stack)
        }),
        launch("dma", 1, [](auto &fp) {
            fp.dmaPatterns = {{"odd transfer", 4, 4, 4, 8}};
        }),
        launch("mram", 1, [](auto &fp) {
            fp.mramRegions = {
                {"operand", 0, 4096, analysis::Access::Read},
                {"result", 2048, 4096, analysis::Access::Write}};
        }),
        launch("tasklets", 16, [](auto &fp) { fp.maxTasklets = 8; }),
        launch("staging", 1, [&cfg](auto &fp) {
            fp.mramRegions = {
                {"oversized operand", 0,
                 static_cast<std::uint64_t>(cfg.mramBytes) + 8,
                 analysis::Access::Read}};
        }),
        {"params", [&run] {
             // 2^54 - 3*2^31: pseudo-Mersenne c needs 33 bits.
             analysis::ParamsSpec spec;
             spec.name = "injected-params";
             spec.limbs = 2;
             spec.q = analysis::AbsVal::oneShl(54) -
                      analysis::AbsVal(3ULL << 31);
             spec.n = 2048;
             run.check(analysis::analyzeParamsSet(spec));
         }},
        // Adjacent tasklets' DMA tails overlap: t writes 16 bytes at
        // stride 8, so [t*8, t*8+16) collides with t+1's.
        launch("race-dma", 12, [](auto &fp) {
            fp.taskletAccess = [](unsigned t, unsigned) {
                return std::vector<analysis::SymAccess>{
                    {analysis::Space::Mram, 0, t * 8ull,
                     t * 8ull + 16, true, "dma tail"}};
            };
        }),
        // Every tasklet scribbles the same WRAM scratch word.
        launch("race-wram", 12, [](auto &fp) {
            fp.taskletAccess = [](unsigned, unsigned) {
                return std::vector<analysis::SymAccess>{
                    {analysis::Space::Wram, 0, 0, 8, true,
                     "shared scratch"}};
            };
        }),
        // Staging without the barrier: tasklet 0's table write shares
        // epoch 0 with everyone's reads.
        launch("race-epoch", 12, [](auto &fp) {
            fp.taskletAccess = [](unsigned t, unsigned) {
                std::vector<analysis::SymAccess> acc;
                if (t == 0)
                    acc.push_back({analysis::Space::Wram, 0, 0, 64,
                                   true, "table staging"});
                acc.push_back({analysis::Space::Wram, 0, 0, 64,
                               false, "table read"});
                return acc;
            };
        }),
        lifetime("use-after-drop",
                 {"operand A", 0, 4096, analysis::Access::Read},
                 [](auto &pv) {
                     pv.noteAlloc(1, 0, 4096, "dropped operand");
                     pv.noteFree(1);
                 }),
        lifetime("write-pinned",
                 {"result", 0, 4096, analysis::Access::Write},
                 [](auto &pv) {
                     pv.noteAlloc(1, 0, 4096, "pinned operand");
                     pv.notePin(1, true);
                 }),
        {"unresolved-suppression", [&cfg, &run] {
             // A suppression with real runtime hits whose overlap the
             // symbolic model cannot express: the model (wrongly)
             // claims disjoint per-tasklet slots while every tasklet
             // scribbles the same word under an allowRange. Clean
             // proof + suppressed hits = Unresolved, which must fail.
             pim::DpuConfig ccfg = cfg;
             ccfg.checker.enabled = true;
             pim::Dpu dpu(ccfg);
             const auto stats = dpu.run(4, [](pim::TaskletCtx &ctx) {
                 if (ctx.id() == 0) // the allow-list is checker-global
                     ctx.checkerAllowRange(pim::MemSpace::Wram, 0, 64,
                                           "injected: claims external "
                                           "synchronisation");
                 ctx.wramStore32(0, ctx.id());
             });
             auto fp =
                 planFootprint("injected-unresolved-suppression", {});
             fp.taskletAccess = [](unsigned t, unsigned) {
                 return std::vector<analysis::SymAccess>{
                     {analysis::Space::Wram, 0, t * 8ull, t * 8ull + 4,
                      true, "claimed slot"}};
             };
             auditOne(fp.kernel, stats.conflicts,
                      analysis::SymbolicProver(ccfg.maxTasklets).prove(fp),
                      run);
         }},
        lifetime("dirty-alias",
                 {"staging", 2048, 4096, analysis::Access::Write},
                 [](auto &pv) {
                     pv.noteAlloc(1, 0, 4096, "dirty result");
                     pv.noteDirty(1, true);
                 }),
    };
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"verbose", "inject", "out"});
    GateCli run("pim_prove", args);
    const pim::DpuConfig cfg; // the paper's gen1 DPU
    return run.run(
        [&] {
            sweepRegistry(cfg, run);
            sweepIntervals(run);
            sweepPlans(run);
            sweepSuppressions(cfg, run);
        },
        injections(cfg, run));
}
