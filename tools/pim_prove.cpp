/**
 * @file
 * pim_prove: the static sweep of every launch the library ships; exit
 * nonzero on any violation. It runs, without executing a kernel
 * (except in the suppression audit):
 *
 *  - every kernel registry plan (pimhe/kernel_registry.h), at every
 *    tasklet count from 1 to its footprint's ceiling, through the two
 *    kernel checks of DpuSet's launch gate: the LaunchVerifier
 *    budgets (WRAM, MRAM, DMA, tasklets) and the symbolic race prover
 *    at that count (analysis/symbolic.h);
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
 * --inject seeds deliberately broken plans so CI can assert that every
 * violation class is reported with its exact witness and that the
 * nonzero exit path stays live. KIND is one of wram, dma, mram,
 * tasklets, staging, params, race-dma, race-wram, race-epoch,
 * use-after-drop, write-pinned, dirty-alias, unresolved-suppression,
 * or all.
 * --verbose prints every check's full report.
 * --out additionally writes the full report to FILE (CI artifact).
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/interval.h"
#include "analysis/plan_verify.h"
#include "analysis/symbolic.h"
#include "analysis/verifier.h"
#include "bfv/params.h"
#include "common/cli.h"
#include "modular/mod64.h"
#include "pim/config.h"
#include "pim/dpu.h"
#include "pimhe/kernel_registry.h"

namespace {

using namespace pimhe;

struct Outcome
{
    bool verbose = false;
    int checked = 0;
    int failed = 0;
    std::ostringstream log;

    /** Print to stdout and retain for --out. */
    void
    emit(const std::string &text)
    {
        std::cout << text;
        log << text;
    }

    /**
     * Count one check. A failure, or any check under --verbose,
     * prints its full `report`; a pass otherwise prints the report's
     * first line, or nothing when `quiet`.
     */
    void
    take(bool ok, const std::string &report, bool quiet = false)
    {
        ++checked;
        if (!ok)
            ++failed;
        if (!ok || verbose)
            emit((ok ? "ok   " : "FAIL ") + report);
        else if (!quiet)
            emit("ok   " + report.substr(0, report.find('\n') + 1));
    }

    /** take() for an analysis report (anything with ok/summary). */
    template <typename Report>
    void
    take(const Report &r)
    {
        take(r.ok(), r.summary());
    }
};

/**
 * Registry sweep: every plan at every tasklet count its footprint
 * admits, each footprint built for the count it is checked at.
 */
void
sweepRegistry(const pim::DpuConfig &cfg, Outcome &out)
{
    const analysis::LaunchVerifier verifier(cfg);
    const analysis::SymbolicProver prover(cfg.maxTasklets);
    for (const auto &family : pimhe_kernels::kernelRegistry()) {
        out.emit("== " + family.factory + " (" + family.title + ")\n");
        // plans[n][i]: plan i with its footprint built for n tasklets.
        std::vector<std::vector<pimhe_kernels::KernelPlan>> plans(
            cfg.maxTasklets + 1);
        for (unsigned n = 1; n <= cfg.maxTasklets; ++n)
            plans[n] = family.plans(cfg, n);
        if (plans[1].empty())
            out.take(false, "registry family '" + family.factory +
                                "' produced no launch plans\n");
        for (std::size_t i = 0; i < plans[1].size(); ++i) {
            const analysis::KernelFootprint &first = plans[1][i].footprint;
            const std::string name =
                "'" + first.kernel + "' [" + plans[1][i].params + "]";
            const unsigned lo = std::max(1u, first.minTasklets);
            const unsigned hi = std::min(cfg.maxTasklets, first.maxTasklets);
            if (lo > hi) {
                out.take(false, name + " admits no tasklet count\n");
                continue;
            }
            unsigned rejected = 0;
            for (unsigned n = lo; n <= hi; ++n) {
                const auto &fp = plans[n].at(i).footprint;
                const analysis::VerifyReport budgets =
                    verifier.verify(fp, n);
                const analysis::SymbolicReport races =
                    prover.proveAt(fp, n);
                const bool ok = budgets.ok() && races.ok();
                rejected += ok ? 0 : 1;
                out.take(ok,
                         name + " at N=" + std::to_string(n) + "\n" +
                             budgets.summary() + races.summary(),
                         /*quiet=*/true);
            }
            std::ostringstream line;
            if (rejected > 0)
                line << "FAIL " << name << " rejected at " << rejected
                     << " of the tasklet counts in [" << lo << ", " << hi
                     << "]\n";
            else
                line << "ok   " << name << " budgets and race freedom "
                     << "hold for N in [" << lo << ", " << hi << "]\n";
            out.emit(line.str());
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
sweepIntervals(Outcome &out)
{
    out.emit("== interval obligations\n");
    out.take(analyzeStandardParams<1>());
    out.take(analyzeStandardParams<2>());
    out.take(analyzeStandardParams<4>());
    for (const std::uint32_t n : pimhe_kernels::kNttLengths) {
        const auto primes = findNttPrimes(30, 2ULL * n, 1);
        if (primes.empty()) {
            out.take(false, "no 30-bit NTT prime for n=" +
                                std::to_string(n) + "\n");
            continue;
        }
        const auto p = static_cast<std::uint32_t>(primes.front());
        out.take(analysis::analyzeNttPrime(p, n));
        out.take(analysis::analyzeMontgomeryPrime(p));
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
sweepPlans(Outcome &out)
{
    out.emit("== plan-level lifetime scenarios\n");
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
        out.take(
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
            out.take(pv.checkLaunch(planFootprint(
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
        out.take(
            pv.checkLaunch(planFootprint(
                "staged-elementwise",
                {{"operand A", 0, kRegion, analysis::Access::Read},
                 {"operand B", kRegion, kRegion, analysis::Access::Read},
                 {"result", 2 * kRegion, kRegion,
                  analysis::Access::Write}})));
        pv.noteFree(100);
        pv.noteAlloc(101, 0, 3 * kRegion, "reused region");
        pv.declareWriteTarget(101);
        out.take(pv.checkLaunch(planFootprint(
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
         const analysis::SymbolicReport &proof, Outcome &out)
{
    if (conflicts.suppressions.empty()) {
        out.take(true, "'" + name + "' declares no checker suppressions\n");
        return;
    }
    for (const auto &f : analysis::auditSuppressions(conflicts, proof))
        out.take(f.verdict == analysis::SuppressionVerdict::Discharged,
                 "'" + name + "' " + f.describe() + "\n");
}

/**
 * Run every registered kernel family once under the dynamic conflict
 * checker (unwritten MRAM reads are legally zero, so no staging is
 * needed) and audit whatever suppressions the run declared.
 */
void
sweepSuppressions(const pim::DpuConfig &base, Outcome &out)
{
    out.emit("== checkerAllowRange suppression audit\n");
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
                 prover.prove(plans.front().footprint), out);
    }
}

/** A footprint with no layout of its own, to seed one budget
 *  violation into. */
analysis::KernelFootprint
seeded(const std::string &kind, unsigned max_tasklets)
{
    analysis::KernelFootprint fp;
    fp.kernel = "injected-" + kind;
    fp.maxTasklets = max_tasklets;
    return fp;
}

/** Seed broken launch plans, parameter sets, access models and
 *  lifetimes; every one must produce a violation with its exact
 *  witness, driving the exit code nonzero. Returns false when `kind`
 *  names no seeded class. */
bool
inject(const std::string &kind, const pim::DpuConfig &cfg, Outcome &out)
{
    const int before = out.checked;
    const analysis::LaunchVerifier verifier(cfg);
    const analysis::SymbolicProver prover(cfg.maxTasklets);
    const bool all = kind == "all";
    out.emit("== injected violations (" + kind + ")\n");

    if (all || kind == "wram") {
        auto fp = seeded("wram", cfg.maxTasklets);
        fp.wramBytesPerTasklet = 8192; // 12 x (8K + stack) > 64 KB
        out.take(verifier.verify(fp, 12));
    }
    if (all || kind == "dma") {
        auto fp = seeded("dma", cfg.maxTasklets);
        fp.dmaPatterns = {{"odd transfer", 4, 4, 4, 8}};
        out.take(verifier.verify(fp, 1));
    }
    if (all || kind == "mram") {
        auto fp = seeded("mram", cfg.maxTasklets);
        fp.mramRegions = {
            {"operand", 0, 4096, analysis::Access::Read},
            {"result", 2048, 4096, analysis::Access::Write},
        };
        out.take(verifier.verify(fp, 1));
    }
    if (all || kind == "tasklets")
        out.take(verifier.verify(seeded("tasklets", 8), 16));
    if (all || kind == "staging") {
        auto fp = seeded("staging", cfg.maxTasklets);
        fp.mramRegions = {{"oversized operand", 0,
                           static_cast<std::uint64_t>(cfg.mramBytes) + 8,
                           analysis::Access::Read}};
        out.take(verifier.verify(fp, 1));
    }
    if (all || kind == "params") {
        // 2^54 - 3*2^31: pseudo-Mersenne c needs 33 bits.
        analysis::ParamsSpec spec;
        spec.name = "injected-params";
        spec.limbs = 2;
        spec.q = analysis::AbsVal::oneShl(54) -
                 analysis::AbsVal(3ULL << 31);
        spec.n = 2048;
        out.take(analysis::analyzeParamsSet(spec));
    }
    if (all || kind == "race-dma") {
        // Adjacent tasklets' DMA tails overlap: t writes 16 bytes at
        // stride 8, so [t*8, t*8+16) collides with [t*8+8, t*8+24).
        auto fp = seeded("race-dma", cfg.maxTasklets);
        fp.taskletAccess = [](unsigned t, unsigned) {
            return std::vector<analysis::SymAccess>{
                {analysis::Space::Mram, 0, t * 8ull, t * 8ull + 16,
                 true, "dma tail"}};
        };
        out.take(prover.prove(fp));
    }
    if (all || kind == "race-wram") {
        // Every tasklet scribbles the same WRAM scratch word.
        auto fp = seeded("race-wram", cfg.maxTasklets);
        fp.taskletAccess = [](unsigned, unsigned) {
            return std::vector<analysis::SymAccess>{
                {analysis::Space::Wram, 0, 0, 8, true,
                 "shared scratch"}};
        };
        out.take(prover.prove(fp));
    }
    if (all || kind == "race-epoch") {
        // Staging without the barrier: tasklet 0's table write shares
        // epoch 0 with everyone's reads.
        auto fp = seeded("race-epoch", cfg.maxTasklets);
        fp.taskletAccess = [](unsigned t, unsigned) {
            std::vector<analysis::SymAccess> acc;
            if (t == 0)
                acc.push_back({analysis::Space::Wram, 0, 0, 64, true,
                               "table staging"});
            acc.push_back({analysis::Space::Wram, 0, 0, 64, false,
                           "table read"});
            return acc;
        };
        out.take(prover.prove(fp));
    }
    if (all || kind == "use-after-drop") {
        analysis::PlanVerifier pv;
        pv.noteAlloc(1, 0, 4096, "dropped operand");
        pv.noteFree(1);
        out.take(pv.checkLaunch(planFootprint(
                     "injected-use-after-drop",
                     {{"operand A", 0, 4096, analysis::Access::Read}})));
    }
    if (all || kind == "write-pinned") {
        analysis::PlanVerifier pv;
        pv.noteAlloc(1, 0, 4096, "pinned operand");
        pv.notePin(1, true);
        out.take(pv.checkLaunch(planFootprint(
                     "injected-write-pinned",
                     {{"result", 0, 4096, analysis::Access::Write}})));
    }
    if (all || kind == "unresolved-suppression") {
        // A suppression with real runtime hits whose overlap the
        // symbolic model cannot express: the model (wrongly) claims
        // disjoint per-tasklet slots while every tasklet actually
        // scribbles the same word under an allowRange. Clean proof +
        // suppressed hits = Unresolved, which must fail the audit.
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
        auto fp = seeded("unresolved-suppression", ccfg.maxTasklets);
        fp.taskletAccess = [](unsigned t, unsigned) {
            return std::vector<analysis::SymAccess>{
                {analysis::Space::Wram, 0, t * 8ull, t * 8ull + 4,
                 true, "claimed slot"}};
        };
        auditOne(fp.kernel, stats.conflicts, prover.prove(fp), out);
    }
    if (all || kind == "dirty-alias") {
        analysis::PlanVerifier pv;
        pv.noteAlloc(1, 0, 4096, "dirty result");
        pv.noteDirty(1, true);
        out.take(pv.checkLaunch(planFootprint(
                     "injected-dirty-alias",
                     {{"staging", 2048, 4096,
                       analysis::Access::Write}})));
    }
    return out.checked > before;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"verbose", "inject", "out"});
    const std::string injected = args.getString("inject", "");
    const std::string out_path = args.getString("out", "");

    const pim::DpuConfig cfg; // the paper's gen1 DPU
    Outcome out;
    out.verbose = args.getBool("verbose", false);

    sweepRegistry(cfg, out);
    sweepIntervals(out);
    sweepPlans(out);
    sweepSuppressions(cfg, out);
    if (!injected.empty() && !inject(injected, cfg, out)) {
        std::cerr << "unknown --inject kind '" << injected << "'\n";
        return 2;
    }

    std::ostringstream tail;
    tail << out.checked << " checks, " << out.failed
         << " violation(s)\n";
    out.emit(tail.str());

    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << out.log.str();
        if (!f) {
            std::cerr << "cannot write report to " << out_path << "\n";
            return 2;
        }
    }
    return out.failed == 0 ? 0 : 1;
}
