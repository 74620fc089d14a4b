/**
 * @file
 * Static per-backend cost prediction for HE op DAGs.
 *
 * Composes the already-validated closed-form cycle model (the
 * linear/quadratic fits PimCostModel probes out of the simulator —
 * never hand-derived; see pimhe/cost_model.h and pimhe/plan.h for the
 * bridge that fills a CostSpec from real probes) with
 * TransferTotals-shape transfer/residency accounting into whole-plan
 * cost predictions for three backends:
 *
 *  - "pim-staged":   every PIM op uploads its operands and downloads
 *                    its result (the paper's measurement setup);
 *  - "pim-resident": operands are uploaded once, at first device use,
 *                    and chained ops reuse them in MRAM (the resident
 *                    cache path); the bytes a plan avoids
 *                    re-uploading are reported as
 *                    residentBytesReused, mirroring
 *                    pim::TransferTotals;
 *  - "host":         the analytic CPU baseline (perf/models.h
 *                    constants), no bus traffic.
 *
 * The same walk checks the resident arena capacity obligations: a
 * tree reduction pins fan-in * sliceBytes per DPU at once, and a
 * binary resident op pins three regions; a plan that cannot fit is
 * rejected with an exact Resource::Staging violation (the "reduce
 * fan-in too wide" class) using only arithmetic — no simulated cycle
 * and no probe runs for a rejected plan.
 *
 * Modelling notes (kept deliberately explicit so the predictions are
 * auditable):
 *  - Mul/Square expand into 4 (resp. 3) tensor convolutions plus
 *    2*relinDigits key-switch convolutions, each broadcast-staged the
 *    way PimConvolver runs them; MulPlain is 2 convolutions.
 *  - In the PIM backends a Mul result lives on the host (the tensor
 *    product runs through the convolver), so a resident consumer pays
 *    one re-upload — exactly what the plan runner does.
 *  - The resident backend moves what the resident cache moves: an
 *    Input stays on the host until its first device use, a fan-in-1
 *    Reduce is its own host-side sum, and every resident transfer is
 *    the cache's padded region (numDpus slices of sliceLayout's
 *    stride). The staged backend moves what stagedOp moves: each
 *    operand vector of k ciphertexts, and the result, as one padded
 *    slice per DPU (numDpus * sliceLayout(k * 2n) stride).
 */

#ifndef PIMHE_ANALYSIS_PLAN_COST_H
#define PIMHE_ANALYSIS_PLAN_COST_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/he_dag.h"
#include "analysis/verifier.h"

namespace pimhe {
namespace analysis {

/** cycles(elems) = base + slope * elems (one DPU, fixed tasklets). */
struct LinearCycleFit
{
    double base = 0;
    double slope = 0;

    /** Cycles of one launch over `elems` elements per DPU. */
    double
    at(std::uint64_t elems) const
    {
        return base + slope * static_cast<double>(elems);
    }
};

/**
 * cycles(n) = base + linear * n + quadratic * n^2 per convolution
 * pair. The base term is the per-launch startup cost (kernel entry,
 * WRAM staging) that does NOT shrink when a convolution is row-
 * sharded across DPUs — without it, sharded predictions underpredict
 * by the unamortised startup share at small degrees, a drift the
 * calibration observatory (obs/calib.h) flags immediately.
 */
struct QuadCycleFit
{
    double base = 0;
    double linear = 0;
    double quadratic = 0;

    /** Cycles of one DPU computing `rows` output rows of a degree-n
     *  convolution: the full base plus linear + quadratic*n per row
     *  (one output row is n MACs). rows == n is one whole pair. */
    double
    shard(std::uint64_t n, std::uint64_t rows) const
    {
        return base + (linear + quadratic * static_cast<double>(n)) *
                          static_cast<double>(rows);
    }
};

/**
 * Everything the cost composition needs, as plain numbers: geometry,
 * machine rates, probed kernel fits and host-model constants. Fill it
 * from real probes with pimhe::costSpecFor (pimhe/plan.h); hand-rolled
 * specs are for tests and injection only.
 */
struct CostSpec
{
    std::string name;      //!< parameter-set label for reports
    std::size_t limbs = 1; //!< 32-bit limbs per coefficient
    std::size_t n = 0;     //!< ring degree
    std::size_t relinDigits = 0; //!< l = ceil(bits(q)/w)

    // Machine shape (defaults: the paper's gen1 system).
    std::size_t numDpus = 1;
    double clockMhz = 425.0;
    double hostToDpuGbps = 6.0;
    double dpuToHostGbps = 4.4;
    double launchOverheadUs = 20.0;
    std::uint64_t residentArenaBytes = 64ULL << 20;

    // Probed kernel fits (PimCostModel's memoised probes, see
    // pimhe/plan.h).
    LinearCycleFit addCycles;
    LinearCycleFit mulCycles;
    QuadCycleFit convCycles;

    // Host baseline constants (perf/calibration.h shapes).
    double hostAddNs = 1.8;
    double hostMulNs = 80.0;
    double hostConvMacNs = 1.0;
    double hostThreads = 4.0;
    double hostStreamGbps = 21.0;
};

/** Whole-plan cost of one backend, TransferTotals-shaped. */
struct BackendCost
{
    std::string backend;
    double kernelMs = 0;   //!< modelled kernel/compute time
    double transferMs = 0; //!< modelled bus time
    double overheadMs = 0; //!< launch overheads
    std::uint64_t uploadedBytes = 0;
    std::uint64_t downloadedBytes = 0;
    std::uint64_t residentBytesReused = 0; //!< re-uploads avoided
    std::size_t launches = 0;

    double totalMs() const { return kernelMs + transferMs + overheadMs; }
    std::string describe() const;
};

/**
 * Per-node per-backend prediction delta: what one node added to a
 * backend's whole-plan cost. These are the prediction half of the
 * calibration attribution records (obs/calib.h) — each field has an
 * exact measured counterpart in the simulator's accounting
 * (totalModeledMs, LaunchStats::kernelMs, TransferTotals::busBytes,
 * launch count).
 */
struct OpBackendDelta
{
    double ms = 0;       //!< modelled total (kernel+transfer+overhead)
    double kernelMs = 0; //!< modelled kernel/compute time
    std::uint64_t busBytes = 0; //!< uploaded + downloaded bytes
    std::size_t launches = 0;
};

/** Per-node cost row (audit detail for reports and the CLI). */
struct OpCostRow
{
    NodeId node = 0;
    HeOp op = HeOp::Input;
    OpBackendDelta pimStaged;
    OpBackendDelta pimResident;
    OpBackendDelta host; //!< busBytes/launches always 0 on host
};

/**
 * Overlap-aware forecast of the pim-staged backend run through the
 * async pipeline's window of two (pim/pipeline.h): the same launch
 * sequence, but with launch N+1's upload overlapping launch N's
 * kernel on separate bus/DPU tracks. Computed by replaying the staged
 * walk's per-launch (upload, kernel+overhead, download) charges
 * through pim::TwoTrackClock — the identical arithmetic DpuSet uses
 * for its measured pipelineStats(), so predicted and measured
 * makespans are directly comparable in the calibration observatory.
 */
struct PipelineForecast
{
    double busMs = 0;      //!< bus-track busy time (transfers)
    double dpuMs = 0;      //!< DPU-track busy time (kernels+overhead)
    double makespanMs = 0; //!< pipelined end-to-end (max of tracks)
    double serialMs = 0;   //!< same charges laid end to end
    std::size_t launches = 0;

    /** Modelled throughput gain of pipelining the staged plan. */
    double
    speedup() const
    {
        return makespanMs > 0 ? serialMs / makespanMs : 1.0;
    }

    std::string describe() const;
};

/** Outcome of costing one DAG against one CostSpec. */
struct CostReport
{
    std::string subject;
    std::vector<Violation> violations; //!< resident-capacity checks
    BackendCost pimStaged;
    BackendCost pimResident;
    BackendCost host;
    PipelineForecast pipelined; //!< pim-staged through the pipeline
    std::vector<OpCostRow> rows;
    std::string recommended; //!< cheapest backend (when ok())

    bool ok() const { return violations.empty(); }
    std::string summary() const;
};

/**
 * Walk the DAG once per backend and compose per-node cost and
 * transfer charges into whole-plan predictions. Pure arithmetic:
 * never launches, never probes (the fits in the spec were probed by
 * the caller, once per width).
 */
CostReport estimateCost(const HeDag &dag, const CostSpec &spec);

/** Bus bytes of one ciphertext in the resident cache's layout: one
 *  padded slice (2 components * n coefficients over numDpus) per DPU,
 *  the charge of every pim-resident transfer. */
std::uint64_t residentCiphertextBytes(const CostSpec &spec);

/**
 * Modelled bus time for one download of `bytes`: pim::busMs over the
 * spec's DPUs, the charge estimateCost makes. Exposed so callers that
 * execute with different materialisation timing than the plan walks
 * assume (e.g. runPlan downloads a reduction eagerly where the
 * resident backend defers it to the consumer) can adjust a
 * prediction with the model's own numbers instead of a duplicate
 * formula.
 */
double modeledDownloadMs(const CostSpec &spec, std::uint64_t bytes);

} // namespace analysis
} // namespace pimhe

#endif // PIMHE_ANALYSIS_PLAN_COST_H
