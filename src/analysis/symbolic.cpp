/**
 * @file
 * SymbolicProver implementation: the finite-domain pairwise sweep
 * over parametric access models, witness rendering, and the
 * stale-suppression audit.
 */

#include "analysis/symbolic.h"

#include <algorithm>
#include <sstream>

namespace pimhe {
namespace analysis {

std::string
RaceWitness::describe() const
{
    std::ostringstream os;
    os << (writeWrite ? "write/write" : "read/write")
       << " race: t=" << t1 << " vs t=" << t2 << ", N=" << tasklets
       << ", overlap [" << begin << ", " << end << ") on "
       << toString(space) << " epoch " << epoch << " ('" << label1
       << "' vs '" << label2 << "')";
    return os.str();
}

std::string
SymbolicReport::summary() const
{
    std::ostringstream os;
    os << "symbolic proof '" << kernel << "' N in [" << minTasklets
       << ", " << maxTasklets << "]: ";
    if (!modeled) {
        os << "NO ACCESS MODEL\n";
        return os.str();
    }
    if (totalRaces == 0) {
        os << "race-free (" << pairsChecked << " access pair(s))\n";
        return os.str();
    }
    os << totalRaces << " race(s)\n";
    for (const auto &w : witnesses)
        os << "  " << w.describe() << "\n";
    if (totalRaces > witnesses.size())
        os << "  ... " << totalRaces - witnesses.size()
           << " more race(s) elided\n";
    return os.str();
}

void
SymbolicProver::checkCount(const KernelFootprint &fp, unsigned tasklets,
                           SymbolicReport &report) const
{
    // Evaluate the closed-form model once per tasklet, then intersect
    // every cross-tasklet access pair that shares a space and a
    // barrier epoch. Access lists are a handful of intervals each, so
    // the full enumeration over N <= 24 is exact and instant.
    std::vector<std::vector<SymAccess>> acc(tasklets);
    for (unsigned t = 0; t < tasklets; ++t)
        acc[t] = fp.taskletAccess(t, tasklets);

    for (unsigned t1 = 0; t1 < tasklets; ++t1)
        for (unsigned t2 = t1 + 1; t2 < tasklets; ++t2)
            for (const SymAccess &a : acc[t1])
                for (const SymAccess &b : acc[t2]) {
                    if (a.space != b.space || a.epoch != b.epoch)
                        continue;
                    if (!a.write && !b.write)
                        continue; // read/read sharing is safe
                    ++report.pairsChecked;
                    const std::uint64_t lo =
                        std::max(a.begin, b.begin);
                    const std::uint64_t hi = std::min(a.end, b.end);
                    if (lo >= hi)
                        continue;
                    ++report.totalRaces;
                    if (report.witnesses.size() <
                        SymbolicReport::kMaxWitnesses)
                        report.witnesses.push_back(RaceWitness{
                            a.space, tasklets, t1, t2, a.epoch, lo, hi,
                            a.write && b.write, a.label, b.label});
                }
}

SymbolicReport
SymbolicProver::prove(const KernelFootprint &fp) const
{
    SymbolicReport report;
    report.kernel = fp.kernel;
    if (!fp.taskletAccess)
        return report;
    report.modeled = true;
    report.minTasklets = std::max(1u, fp.minTasklets);
    report.maxTasklets = std::min(cap_, fp.maxTasklets);
    for (unsigned n = report.minTasklets; n <= report.maxTasklets; ++n)
        checkCount(fp, n, report);
    return report;
}

SymbolicReport
SymbolicProver::proveAt(const KernelFootprint &fp,
                        unsigned tasklets) const
{
    SymbolicReport report;
    report.kernel = fp.kernel;
    if (!fp.taskletAccess)
        return report;
    report.modeled = true;
    report.minTasklets = tasklets;
    report.maxTasklets = tasklets;
    checkCount(fp, tasklets, report);
    return report;
}

const char *
toString(SuppressionVerdict v)
{
    switch (v) {
      case SuppressionVerdict::Discharged:
        return "discharged";
      case SuppressionVerdict::MasksProvenRace:
        return "masks-proven-race";
      case SuppressionVerdict::Unresolved:
        return "unresolved";
    }
    return "?";
}

std::string
SuppressionFinding::describe() const
{
    std::ostringstream os;
    os << "suppression on "
       << (space == pim::MemSpace::Wram ? "WRAM" : "MRAM") << " ["
       << begin << ", " << end << ") (\"" << reason << "\", " << hits
       << " hit(s)): " << toString(verdict) << " — " << why;
    return os.str();
}

std::vector<SuppressionFinding>
auditSuppressions(const pim::ConflictReport &dynamic_report,
                  const SymbolicReport &proof)
{
    std::vector<SuppressionFinding> findings;
    for (const auto &s : dynamic_report.suppressions) {
        SuppressionFinding f;
        f.space = s.space;
        f.begin = s.begin;
        f.end = s.end;
        f.reason = s.reason;
        f.hits = s.hits;

        const Space sym_space = s.space == pim::MemSpace::Wram
                                    ? Space::Wram
                                    : Space::Mram;
        bool masks = false;
        for (const auto &w : proof.witnesses)
            if (w.space == sym_space && w.begin < s.end &&
                s.begin < w.end) {
                masks = true;
                break;
            }

        if (masks) {
            f.verdict = SuppressionVerdict::MasksProvenRace;
            f.why = "the symbolic prover exhibits a race inside the "
                    "suppressed range; suppressing it hides real "
                    "hardware corruption";
        } else if (s.hits == 0) {
            f.verdict = SuppressionVerdict::Discharged;
            f.why = "no symbolic witness touches the range and the "
                    "run suppressed nothing; the kernel is race-free "
                    "without it — remove the allowRange()";
        } else {
            f.verdict = SuppressionVerdict::Unresolved;
            f.why = "runtime overlaps were suppressed but no symbolic "
                    "witness covers them; the model cannot express "
                    "the ordering that makes them safe — keep the "
                    "suppression with its justification";
        }
        findings.push_back(std::move(f));
    }
    return findings;
}

KernelGateReport
checkKernelLaunch(const pim::DpuConfig &cfg, const KernelFootprint &fp,
                  unsigned tasklets)
{
    KernelGateReport gate{LaunchVerifier(cfg).verify(fp, tasklets), {}};
    if (!fp.taskletAccess)
        return gate;
    gate.proof = SymbolicProver(cfg.maxTasklets).proveAt(fp, tasklets);
    for (const auto &w : gate.proof->witnesses)
        gate.report.violations.push_back(
            Violation{Resource::Race, 0, w.end - w.begin, w.describe()});
    if (gate.proof->ok())
        gate.report.notes.push_back(
            "symbolic: tasklet write sets disjoint at N=" +
            std::to_string(tasklets));
    return gate;
}

} // namespace analysis
} // namespace pimhe
