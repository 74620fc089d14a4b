/**
 * @file
 * Symbolic access-set prover: parametric tasklet race-freedom.
 *
 * Layer three of the static-analysis stack. The dynamic conflict
 * checker (pim/checker.h) certifies only the tasklet counts and
 * parameter sets a given run happens to execute; the launch verifier
 * (analysis/verifier.h) proves budgets but says nothing about
 * inter-tasklet disjointness. This prover closes the gap: each kernel
 * footprint carries a *parametric access model* — a closed-form
 * function from (tasklet id t, tasklet count N) to the byte ranges
 * that tasklet touches, built from the same layout arithmetic the
 * kernel itself uses (alignedTaskletRange, wramChunkBytes,
 * rowShardRange) — and SymbolicProver decides, for every N in the
 * supported range, whether all write sets are pairwise disjoint or
 * separated by a declared barrier() epoch.
 *
 * The decision procedure is exact, not sampled: tasklet ids and
 * counts range over a finite domain (N <= 24 on gen1 hardware), and
 * each tasklet's whole execution collapses to a handful of affine
 * byte intervals, so enumerating every (N, t1, t2, access pair) is a
 * complete proof — no simulated cycle runs, and a violation comes
 * with its exact symbolic witness ("t=3 vs t=7, N=11, overlap
 * [a, b)").
 *
 * The same module audits dynamic-checker suppressions: a
 * checkerAllowRange() exemption whose range the prover shows
 * race-free (and that masked nothing at runtime) is provably
 * unnecessary and reported as dischargeable.
 */

#ifndef PIMHE_ANALYSIS_SYMBOLIC_H
#define PIMHE_ANALYSIS_SYMBOLIC_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/footprint.h"
#include "analysis/verifier.h"
#include "pim/checker.h"

namespace pimhe {
namespace analysis {

/**
 * One race between two tasklets, with the exact symbolic coordinates
 * that exhibit it. `describe()` renders the canonical witness string
 * the tests and pim_prove assert on.
 */
struct RaceWitness
{
    Space space = Space::Wram;
    unsigned tasklets = 0; //!< the N at which the overlap appears
    unsigned t1 = 0;
    unsigned t2 = 0;
    unsigned epoch = 0;      //!< barrier epoch both accesses share
    std::uint64_t begin = 0; //!< first overlapping byte
    std::uint64_t end = 0;   //!< one past the last overlapping byte
    bool writeWrite = false; //!< both sides wrote (else read/write)
    std::string label1;      //!< access label of tasklet t1
    std::string label2;      //!< access label of tasklet t2

    /** e.g. "write/write race: t=3 vs t=7, N=11, overlap [96, 104)
     *  on MRAM epoch 0 ('result rows' vs 'result rows')" */
    std::string describe() const;
};

/** Outcome of proving one footprint's access model. */
struct SymbolicReport
{
    std::string kernel;
    bool modeled = false;    //!< footprint carried an access model
    unsigned minTasklets = 0; //!< first N proven
    unsigned maxTasklets = 0; //!< last N proven
    std::uint64_t pairsChecked = 0; //!< access pairs intersected
    std::uint64_t totalRaces = 0;   //!< exact, never capped
    std::vector<RaceWitness> witnesses; //!< capped at kMaxWitnesses

    static constexpr std::size_t kMaxWitnesses = 32;

    bool ok() const { return modeled && totalRaces == 0; }

    /** One-line verdict plus one line per retained witness. */
    std::string summary() const;
};

/**
 * Decides pairwise tasklet disjointness of parametric access models
 * over every supported tasklet count. Stateless; cheap to construct
 * per launch.
 */
class SymbolicProver
{
  public:
    /** @param tasklet_cap Hardware tasklet ceiling (gen1: 24). */
    explicit
    SymbolicProver(unsigned tasklet_cap = 24)
        : cap_(tasklet_cap)
    {}

    /**
     * Prove the footprint's access model for every N in
     * [fp.minTasklets, min(fp.maxTasklets, cap)]. A footprint without
     * a model yields modeled == false (never ok), so unmodeled
     * kernels cannot silently pass a sweep.
     */
    SymbolicReport prove(const KernelFootprint &fp) const;

    /** Prove a single tasklet count (the pre-launch fast path). */
    SymbolicReport proveAt(const KernelFootprint &fp,
                           unsigned tasklets) const;

  private:
    void checkCount(const KernelFootprint &fp, unsigned tasklets,
                    SymbolicReport &report) const;

    unsigned cap_;
};

/** What the suppression audit concluded about one allowRange(). */
enum class SuppressionVerdict : std::uint8_t
{
    Discharged,      //!< provably unnecessary — remove it
    MasksProvenRace, //!< hides a race the prover exhibits — dangerous
    Unresolved,      //!< masked real overlap the model cannot discharge
};

const char *toString(SuppressionVerdict v);

/** One audited checkerAllowRange() exemption. */
struct SuppressionFinding
{
    pim::MemSpace space = pim::MemSpace::Wram;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::string reason; //!< justification given at allowRange()
    std::uint64_t hits = 0; //!< conflicts it suppressed at runtime
    SuppressionVerdict verdict = SuppressionVerdict::Discharged;
    std::string why; //!< one-line rationale for the verdict

    std::string describe() const;
};

/**
 * Audit every suppression a dynamic run declared against a symbolic
 * proof of the same kernel:
 *
 *  - a prover witness inside the suppressed range means the
 *    suppression masks a statically-proven race (MasksProvenRace);
 *  - no witness and zero runtime hits means the prover discharges the
 *    suppression — the kernel is race-free without it (Discharged);
 *  - runtime hits without a symbolic witness mean the model cannot
 *    express whatever ordering makes the overlap safe (Unresolved;
 *    keep the suppression, with its justification).
 */
std::vector<SuppressionFinding>
auditSuppressions(const pim::ConflictReport &dynamic_report,
                  const SymbolicReport &proof);

/** Outcome of checkKernelLaunch for one launch. */
struct KernelGateReport
{
    VerifyReport report; //!< budgets, plus one Race violation per witness
    std::optional<SymbolicReport> proof; //!< iff fp has an access model
};

/**
 * The kernel check of DpuSet's verifyBeforeLaunch gate: the
 * LaunchVerifier budgets, then SymbolicProver::proveAt when the
 * footprint carries an access model, each witness folded in as a Race
 * violation and a clean proof noted. pim_prove sweeps the registry
 * through it, so the sweep checks the gate as shipped.
 */
KernelGateReport checkKernelLaunch(const pim::DpuConfig &cfg,
                                   const KernelFootprint &fp,
                                   unsigned tasklets);

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_SYMBOLIC_H
