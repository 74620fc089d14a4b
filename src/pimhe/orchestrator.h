/**
 * @file
 * Host-side orchestration of homomorphic operations on the PIM system.
 *
 * PimHeSystem is the library's main entry point for the paper's
 * deployment model: ciphertext vectors are partitioned across DPUs,
 * staged into MRAM, processed by the kernels in kernels.h, and read
 * back. All results are bit-exact with the host Evaluator (the
 * simulator is functional), and every launch leaves a modelled-time
 * record behind.
 *
 * Two orchestration modes coexist:
 *
 *  - the staged mode (addCiphertextVectors, mulCoefficientwise and
 *    their addAsync/mulAsync pipelined twins) uploads operands before
 *    every launch and downloads every result — the paper's
 *    measurement setup;
 *  - the resident mode (makeResident, addResident, reduceResident)
 *    keeps ciphertexts pinned in MRAM between launches through the
 *    cache in resident.h, so chained pipelines pay the bus once per
 *    operand instead of once per operation. reduceResident is the one
 *    reduction: one upload, log2(n) in-place launches, and one
 *    download when the caller materialises (reduceCiphertexts).
 *
 * Both modes lay out MRAM regions with the same Geometry and move
 * bytes through the same stage/collect pair (resident.h).
 */

#ifndef PIMHE_PIMHE_ORCHESTRATOR_H
#define PIMHE_PIMHE_ORCHESTRATOR_H

#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "analysis/he_dag.h"
#include "analysis/noise.h"
#include "analysis/plan_cost.h"
#include "obs/calib.h"
#include "bfv/ciphertext.h"
#include "bfv/context.h"
#include "bfv/evaluator.h"
#include "pim/system.h"
#include "pimhe/fast_kernels.h"
#include "pimhe/kernels.h"
#include "pimhe/plan.h"
#include "pimhe/resident.h"

namespace pimhe {

/**
 * PIM-backed homomorphic vector operations over a BFV context.
 *
 * @tparam N Coefficient limb count.
 */
template <std::size_t N>
class PimHeSystem
{
  public:
    /**
     * @param ctx      BFV context (moduli must be pseudo-Mersenne).
     * @param cfg      PIM system parameters.
     * @param num_dpus DPUs to allocate from the system.
     * @param tasklets Tasklets per DPU (paper: saturates at 11).
     */
    PimHeSystem(const BfvContext<N> &ctx, const pim::SystemConfig &cfg,
                std::size_t num_dpus, unsigned tasklets = 12)
        : ctx_(ctx), dpus_(cfg, num_dpus), tasklets_(tasklets),
          modulus_(pimhe_kernels::makeVecParams(ctx.ring().modulus(), 0)),
          cache_(ctx, dpus_), costModel_(cfg, tasklets)
    {}

    // The resident cache refers to dpus_ and every AsyncOp to this
    // system, so a system stays where it was built: no copy, no move.
    PimHeSystem(const PimHeSystem &) = delete;
    PimHeSystem &operator=(const PimHeSystem &) = delete;

    const pim::DpuSet &dpuSet() const { return dpus_; }
    pim::DpuSet &dpuSet() { return dpus_; }
    unsigned tasklets() const { return tasklets_; }

    /**
     * Homomorphic addition of two equal-length ciphertext vectors,
     * executed elementwise on the PIM system.
     */
    std::vector<Ciphertext<N>>
    addCiphertextVectors(const std::vector<Ciphertext<N>> &a,
                         const std::vector<Ciphertext<N>> &b)
    {
        return stagedOp(a, b, /*multiply=*/false, /*async=*/false).get();
    }

    /**
     * Coefficient-wise modular product of two ciphertext vectors —
     * the paper's vector-multiplication microbenchmark (the building
     * block of polynomial products on PIM).
     */
    std::vector<Ciphertext<N>>
    mulCoefficientwise(const std::vector<Ciphertext<N>> &a,
                       const std::vector<Ciphertext<N>> &b)
    {
        return stagedOp(a, b, /*multiply=*/true, /*async=*/false).get();
    }

    // ------------------------------------------------------------------
    // Pipelined asynchronous operations.
    //
    // The async ops run the SAME staged body as their synchronous
    // twins (stagedOp), but through DpuSet::launchAsync and a
    // first-in-first-out window of two ops, each staged into its own
    // A/B/Out slot: while launch N simulates on the pipeline worker,
    // the caller flattens and uploads launch N+1's operands into N+1's
    // slot. Submitting a third op first harvests the oldest, and a
    // harvested op frees its slot at once. Every modelled number — each
    // launch's LaunchStats, the transfer totals, verifier reports —
    // is bit-identical to the synchronous path at any host thread
    // count (the engine merges all accounting in submission order on
    // the caller thread); the pipeline overlap shows up only in
    // dpuSet().pipelineStats(), whose makespan is the max of the bus
    // and DPU tracks instead of their sum.
    // ------------------------------------------------------------------

  private:
    struct AsyncOpState;

  public:
    /**
     * Future-like handle to a pipelined elementwise operation.
     * get() blocks until the result is harvested and returns it;
     * single-shot. Dropping a handle without get() is allowed — the
     * operation still completes (and its transfer time is still
     * charged, when the engine harvests it on a later submit or in
     * finishAsync), the results are simply discarded.
     */
    class AsyncOp
    {
      public:
        AsyncOp() = default;

        bool valid() const { return state_ != nullptr; }

        /** Wait, download (once) and take the results. */
        std::vector<Ciphertext<N>>
        get()
        {
            PIMHE_ASSERT(state_, "get() on an empty AsyncOp");
            PIMHE_ASSERT(!state_->consumed,
                         "get() on an already-consumed AsyncOp");
            if (!state_->harvested)
                sys_->harvest(*state_);
            state_->consumed = true;
            return std::move(state_->results);
        }

      private:
        friend PimHeSystem;
        AsyncOp(PimHeSystem *sys, std::shared_ptr<AsyncOpState> state)
            : sys_(sys), state_(std::move(state))
        {}

        PimHeSystem *sys_ = nullptr;
        std::shared_ptr<AsyncOpState> state_;
    };

    /** Pipelined homomorphic addition (see addCiphertextVectors). */
    AsyncOp
    addAsync(const std::vector<Ciphertext<N>> &a,
             const std::vector<Ciphertext<N>> &b)
    {
        return stagedOp(a, b, /*multiply=*/false, /*async=*/true);
    }

    /** Pipelined coefficient-wise product (see mulCoefficientwise). */
    AsyncOp
    mulAsync(const std::vector<Ciphertext<N>> &a,
             const std::vector<Ciphertext<N>> &b)
    {
        return stagedOp(a, b, /*multiply=*/true, /*async=*/true);
    }

    /**
     * Harvest the ops still in the window, oldest first (which frees
     * their staging slots), then drain the launch pipeline. Call it
     * before mixing async ops with code that inspects dpuSet() stats.
     */
    void
    finishAsync()
    {
        for (const auto &op : window_)
            if (!op->harvested)
                harvest(*op);
        window_.clear();
        dpus_.drainAsync();
    }

    // ------------------------------------------------------------------
    // Resident-ciphertext operations (device-side operand reuse).
    // ------------------------------------------------------------------

    /** Register a ciphertext with the resident cache. The upload to
     *  MRAM happens lazily at first device use. */
    ResidentCiphertext
    makeResident(const Ciphertext<N> &ct)
    {
        return {cache_.insert({ct})};
    }

    /** Host copy of a resident ciphertext (downloads only when the
     *  device holds the freshest version). */
    Ciphertext<N>
    materialize(const ResidentCiphertext &h)
    {
        return cache_.materialize(h.id).front();
    }

    /** Release a handle; further use of it panics. */
    void dropResident(const ResidentCiphertext &h) { cache_.drop(h.id); }

    /** Resident homomorphic addition: out = a + b, all three in MRAM. */
    ResidentCiphertext
    addResident(const ResidentCiphertext &a, const ResidentCiphertext &b)
    {
        obs::ScopedSpan span(obs::Tracer::global(), 0,
                             "pimhe.resident_add");
        bumpOpCounter("pimhe.ops.resident_add");
        const Geometry la = cache_.layout(a.id);
        PIMHE_ASSERT(la == cache_.layout(b.id),
                     "resident operands must share shape and count");

        pimhe_kernels::VecKernelParams kp = vecParams(
            cache_.ensureResident(a.id), 0, 0,
            la.slices * (la.stride / (N * 4)));
        cache_.pin(a.id);
        kp.mramB = cache_.ensureResident(b.id);
        cache_.pin(b.id);
        const std::uint64_t out = cache_.allocDeviceOnly(la);
        kp.mramOut = cache_.addrOf(out);

        dpus_.plan().declareWriteTarget(out);
        dpus_.launch(tasklets_, pimhe_kernels::compiledVecAddModQ(kp),
                     pimhe_kernels::vecKernelFootprint(
                         kp, dpus_.config().dpu, tasklets_,
                         /*multiply=*/false));

        cache_.unpin(a.id);
        cache_.unpin(b.id);
        return {out};
    }

    /**
     * Sum a vector of ciphertexts into one resident result: one
     * upload of the packed slices, log2(n) in-place fold launches
     * that never leave MRAM, no download until the caller
     * materializes. The folds are exact modular additions, so the
     * result is bit-identical to any other summation order.
     */
    ResidentCiphertext
    reduceResident(const std::vector<Ciphertext<N>> &cts)
    {
        PIMHE_ASSERT(!cts.empty(), "empty reduction");
        obs::ScopedSpan span(obs::Tracer::global(), 0,
                             "pimhe.resident_reduce");
        span.arg("cts", static_cast<double>(cts.size()));
        bumpOpCounter("pimhe.ops.resident_reduce");
        const std::uint64_t id = cache_.insert(cts);
        if (cts.size() == 1)
            return {id}; // host copy already is the sum
        const std::uint64_t addr = cache_.ensureResident(id);
        cache_.pin(id);

        const std::uint64_t stride = cache_.layout(id).stride;
        const std::uint32_t slice_elems =
            static_cast<std::uint32_t>(stride / (N * 4));
        std::uint32_t m = static_cast<std::uint32_t>(cts.size());
        while (m > 1) {
            // Fold the upper half onto the lower: slice[i] += slice[i
            // + hh] for i < m - hh; odd leftover slices stay in place.
            const std::uint32_t hh = (m + 1) / 2;
            const std::uint32_t pairs = m - hh;
            pimhe_kernels::VecKernelParams kp = vecParams(
                addr, addr + std::uint64_t(hh) * stride, addr,
                pairs * slice_elems);
            // The fold legitimately writes the pinned region it also
            // reads; declare it anew each round (declarations are
            // consumed per launch).
            dpus_.plan().declareWriteTarget(id);
            dpus_.launch(tasklets_,
                         pimhe_kernels::compiledVecAddModQ(kp),
                         pimhe_kernels::reduceRoundFootprint(
                             kp, dpus_.config().dpu, tasklets_));
            m = hh;
        }
        cache_.unpin(id);
        cache_.noteReduced(id);
        return {id};
    }

    /**
     * Sum a vector of ciphertexts into one (homomorphic reduction).
     * Runs the resident tree reduction — upload once, fold in MRAM,
     * download once. Used by the statistical workloads (arithmetic
     * mean, variance).
     */
    Ciphertext<N>
    reduceCiphertexts(const std::vector<Ciphertext<N>> &cts)
    {
        const ResidentCiphertext h = reduceResident(cts);
        Ciphertext<N> out = materialize(h);
        dropResident(h);
        return out;
    }

    // ------------------------------------------------------------------
    // Plan certification and execution (the static HE-plan certifier).
    //
    // analysis::HeDag is the plan builder: construct one with its
    // input/add/mul/... methods, certify it against this system's
    // parameter set, then bind it to concrete ciphertexts with
    // runPlan. Certifying the whole op stream as one plan replaces
    // op-by-op hoping: an over-deep chain is rejected with the exact
    // op and depth that exhausts the noise budget, before any launch.
    // ------------------------------------------------------------------

    /** Noise-analysis view of this system's parameter set. */
    analysis::NoiseSpec
    noiseSpec(const std::string &name) const
    {
        return analysis::specOfBfv<N>(ctx_.params(), name);
    }

    /**
     * Statically certify a plan against this system: worst-case noise
     * bounds (decryptability at every Output), resident-capacity
     * obligations, and per-backend cost predictions. Strictly ordered
     * so a rejected plan never causes a simulated cycle: the noise
     * and capacity checks are pure arithmetic, and only an accepted
     * plan pays for probing the kernel cycle fits. Reports are
     * retained in lastNoiseCheck() / lastCostEstimate() either way.
     */
    bool
    certifyPlan(const analysis::HeDag &dag,
                const std::string &tag = "plan")
    {
        noiseCheck_ = analysis::analyzeNoise(dag, noiseSpec(tag));
        hasNoiseCheck_ = true;
        const std::size_t digits = relinDigitsOf<N>(ctx_.params());
        // Capacity first with unprobed (zero) fits: the violation
        // walk needs only geometry, and the ms fields of a rejected
        // plan are meaningless anyway.
        costEstimate_ = analysis::estimateCost(
            dag, costSpecShape(dpus_.config(), N,
                               ctx_.ring().degree(), digits,
                               dpus_.size(), tag));
        hasCostEstimate_ = true;
        if (!noiseCheck_.ok() || !costEstimate_.ok())
            return false;
        costSpec_ = costSpecFor(costModel_, N, ctx_.ring().degree(),
                                digits, dpus_.size(), tag);
        if (staleFitScale_ != 1.0) {
            costSpec_.addCycles.base *= staleFitScale_;
            costSpec_.addCycles.slope *= staleFitScale_;
            costSpec_.mulCycles.base *= staleFitScale_;
            costSpec_.mulCycles.slope *= staleFitScale_;
            costSpec_.convCycles.base *= staleFitScale_;
            costSpec_.convCycles.linear *= staleFitScale_;
            costSpec_.convCycles.quadratic *= staleFitScale_;
        }
        hasCostSpec_ = true;
        costEstimate_ = analysis::estimateCost(dag, costSpec_);
        return true;
    }

    /**
     * Negative-test hook for the calibration gate: scale every probed
     * cycle fit by `scale` in all subsequent certifications, so the
     * predictions flowing into runPlan's attribution records are
     * genuinely stale while the measurements stay honest. A scale of
     * 2.0 models a cost model probed on kernels that have since
     * doubled in speed; Calibration::aggregate must flag it.
     */
    void injectStaleFits(double scale) { staleFitScale_ = scale; }

    /** Noise report of the most recent certifyPlan (or the one
     *  runPlan performed under verifyBeforeLaunch). */
    const analysis::NoiseReport &
    lastNoiseCheck() const
    {
        PIMHE_ASSERT(hasNoiseCheck_, "no plan certified yet");
        return noiseCheck_;
    }

    /** Cost report of the most recent certifyPlan. */
    const analysis::CostReport &
    lastCostEstimate() const
    {
        PIMHE_ASSERT(hasCostEstimate_, "no plan certified yet");
        return costEstimate_;
    }

    /**
     * Execute a certified plan with real HE semantics: Input binds
     * the next caller ciphertext, Add runs on the PIM system, Reduce
     * runs the resident tree reduction, and MulPlain, Mul and Square
     * run through the context's convolver (PIM-backed when a
     * PimConvolver is installed), Mul and Square with
     * relinearisation. Returns the Output values in creation order.
     *
     * Under cfg.verifyBeforeLaunch the plan is certified first and a
     * rejection panics with the exact witness — before any launch,
     * probe or simulated cycle.
     */
    std::vector<Ciphertext<N>>
    runPlan(const analysis::HeDag &dag,
            const std::vector<Ciphertext<N>> &inputs,
            const std::vector<Plaintext> &plains = {},
            const RelinKey<N> *rlk = nullptr)
    {
        PIMHE_ASSERT(inputs.size() == dag.inputs().size(),
                     "plan expects ", dag.inputs().size(),
                     " input ciphertext(s), got ", inputs.size());
        if (dpus_.config().verifyBeforeLaunch) {
            const bool certified = certifyPlan(dag, "runPlan");
            PIMHE_ASSERT(certified,
                         "pre-launch plan certification failed\n",
                         !noiseCheck_.ok() ? noiseCheck_.summary()
                                           : costEstimate_.summary());
        }
        const Evaluator<N> ev(ctx_);

        // Calibration attribution: when the aggregator is live and
        // this plan carries a probed cost estimate whose rows line up
        // with the DAG, every PIM-backed node gets one record pairing
        // its predicted delta with the simulator's measured delta.
        obs::Calibration &calib = obs::Calibration::global();
        const bool attribute =
            calib.enabled() && hasCostSpec_ && hasCostEstimate_ &&
            costEstimate_.ok() &&
            costEstimate_.rows.size() == dag.size();

        std::vector<Ciphertext<N>> val(dag.size());
        std::vector<Ciphertext<N>> outs;
        std::size_t next_input = 0;
        for (analysis::NodeId id = 0; id < dag.size(); ++id) {
            const analysis::HeNode &node = dag[id];
            const MeasuredCursor before =
                attribute ? measuredCursor() : MeasuredCursor{};
            const auto arg = [&](std::size_t i) -> const Ciphertext<N> & {
                return val[node.args[i]];
            };
            const auto plain = [&](std::uint32_t idx)
                -> const Plaintext & {
                PIMHE_ASSERT(idx < plains.size(),
                             "plan references plaintext slot ", idx,
                             " but only ", plains.size(),
                             " provided");
                return plains[idx];
            };
            const auto needRlk = [&]() -> const RelinKey<N> & {
                PIMHE_ASSERT(rlk != nullptr && !rlk->empty(),
                             "plan multiplies; a relinearisation key "
                             "is required");
                return *rlk;
            };
            switch (node.op) {
              case analysis::HeOp::Input:
                val[id] = inputs[next_input++];
                break;
              case analysis::HeOp::Add:
                val[id] = addCiphertextVectors({arg(0)}, {arg(1)})
                              .front();
                break;
              case analysis::HeOp::MulPlain:
                val[id] = ev.mulPlain(arg(0), plain(node.plainIdx));
                break;
              case analysis::HeOp::Mul:
                val[id] = ev.multiplyRelin(arg(0), arg(1), needRlk());
                break;
              case analysis::HeOp::Square:
                val[id] = ev.relinearize(ev.square(arg(0)), needRlk());
                break;
              case analysis::HeOp::Reduce: {
                std::vector<Ciphertext<N>> terms;
                terms.reserve(node.args.size());
                for (const analysis::NodeId a : node.args)
                    terms.push_back(val[a]);
                val[id] = reduceCiphertexts(terms);
                break;
              }
              case analysis::HeOp::Output:
                val[id] = arg(0);
                outs.push_back(val[id]);
                break;
            }
            if (attribute)
                recordAttribution(node, costEstimate_.rows[id],
                                  before, measuredCursor(), calib);
        }
        return outs;
    }

    /** Cache counters of the resident layer (hits, misses,
     *  evictions, bytes avoided). */
    const ResidentCacheStats &residentStats() const
    {
        return cache_.stats();
    }

    /** Lifetime host<->DPU transfer accounting of this system. */
    const pim::TransferTotals &transferTotals() const
    {
        return dpus_.transferTotals();
    }

    /** Total modelled PIM time accumulated so far (ms). */
    double totalModeledMs() const { return dpus_.totalModeledMs(); }

    /**
     * Stats of the most recent kernel launch, including the per-DPU
     * ConflictReport when cfg.dpu.checker is enabled. With
     * checker.failFast set the launch itself panics on a dirty
     * report, so tests can gate on either.
     */
    const pim::LaunchStats &lastLaunch() const
    {
        return dpus_.lastLaunch();
    }

  private:
    /** Snapshot of the simulator's cumulative modelled accounting —
     *  this system's DpuSet plus the context convolver's. */
    struct MeasuredCursor
    {
        double modeledMs = 0;
        double kernelCycles = 0;
        std::uint64_t busBytes = 0;
        std::uint64_t launches = 0;
    };

    MeasuredCursor
    measuredCursor() const
    {
        MeasuredCursor m;
        m.modeledMs = dpus_.totalModeledMs();
        m.busBytes = dpus_.transferTotals().busBytes();
        m.launches = dpus_.launches().size();
        m.kernelCycles = dpus_.totalKernelCycles();
        // The context convolver (PIM-backed when a PimConvolver is
        // installed) owns a separate DpuSet; fold its usage in
        // through the layering-neutral ExactConvolver hook.
        const ConvolverUsage u = ctx_.convolver().usage();
        m.modeledMs += u.modeledMs;
        m.kernelCycles += u.kernelCycles;
        m.busBytes += u.busBytes;
        m.launches += u.launches;
        return m;
    }

    /**
     * Emit one calibration record for a PIM-backed plan node: the
     * cost model's per-node delta (the backend runPlan actually uses
     * for that op) against the simulator deltas measured around its
     * execution. Input and Output nodes and ops the installed
     * convolver ran host-side (zero measured launches) are skipped —
     * their "measurement" would be wall-clock noise, not modelled
     * time.
     */
    void
    recordAttribution(const analysis::HeNode &node,
                      const analysis::OpCostRow &row,
                      const MeasuredCursor &before,
                      const MeasuredCursor &after,
                      obs::Calibration &calib) const
    {
        analysis::OpBackendDelta pred;
        const char *backend = nullptr;
        switch (node.op) {
          case analysis::HeOp::Add:
          case analysis::HeOp::Mul:
          case analysis::HeOp::Square:
          case analysis::HeOp::MulPlain:
            // runPlan stages these: upload/convolve/download per op.
            pred = row.pimStaged;
            backend = "pim-staged";
            break;
          case analysis::HeOp::Reduce: {
            // runPlan folds in MRAM, then materialises eagerly where
            // the resident walk defers the download to the consumer;
            // charge that one download to the prediction with the
            // model's own rate arithmetic.
            pred = row.pimResident;
            const std::uint64_t ct =
                analysis::residentCiphertextBytes(costSpec_);
            pred.ms += analysis::modeledDownloadMs(costSpec_, ct);
            pred.busBytes += ct;
            backend = "pim-resident";
            break;
          }
          case analysis::HeOp::Input:
          case analysis::HeOp::Output:
            return; // binds or hands back a value: nothing to calibrate
        }
        if (after.launches == before.launches)
            return; // executed host-side (a one-term reduce, or the
                    // schoolbook convolver)

        obs::AttributionRecord rec;
        rec.kernel = analysis::toString(node.op);
        rec.backend = backend;
        rec.subject = costEstimate_.subject;
        rec.predictedMs = pred.ms;
        rec.measuredMs = after.modeledMs - before.modeledMs;
        // The model converts cycles to ms with the spec clock; invert
        // it so kernel cycles compare in the simulator's unit.
        rec.predictedKernelCycles =
            pred.kernelMs * costSpec_.clockMhz * 1e3;
        rec.measuredKernelCycles =
            after.kernelCycles - before.kernelCycles;
        rec.predictedBusBytes =
            static_cast<double>(pred.busBytes);
        rec.measuredBusBytes =
            static_cast<double>(after.busBytes - before.busBytes);
        rec.predictedLaunches = static_cast<double>(pred.launches);
        rec.measuredLaunches =
            static_cast<double>(after.launches - before.launches);
        calib.record(std::move(rec));
    }

    /** modulus_ over `elems` elements at the given regions. */
    pimhe_kernels::VecKernelParams
    vecParams(std::uint64_t a, std::uint64_t b, std::uint64_t out,
              std::uint64_t elems) const
    {
        pimhe_kernels::VecKernelParams kp = modulus_;
        kp.mramA = a;
        kp.mramB = b;
        kp.mramOut = out;
        kp.elems = static_cast<std::uint32_t>(elems);
        return kp;
    }

    /**
     * Layout of a binary staged op: each operand vector, and the
     * result, is one slice of the slot (see Geometry).
     */
    Geometry
    binaryGeometry(std::span<const Ciphertext<N>> a,
                   std::span<const Ciphertext<N>> b) const
    {
        PIMHE_ASSERT(a.size() == b.size() && !a.empty(),
                     "operand vectors must be equal-length, non-empty");
        const Geometry g =
            geometryOf<N>(a, 1, ctx_.ring().degree(), dpus_.size());
        PIMHE_ASSERT(geometryOf<N>(b, 1, ctx_.ring().degree(),
                                   dpus_.size()) == g,
                     "ragged ciphertext vector");
        return g;
    }

    /** Shared state behind an AsyncOp handle. */
    struct AsyncOpState
    {
        std::size_t launch = 0; //!< global index of the op's launch
        std::uint64_t slot = 0; //!< A/B/Out scratch slot
        Geometry geometry;      //!< layout of each third
        bool harvested = false;
        bool consumed = false;
        std::vector<Ciphertext<N>> results; //!< filled at harvest
    };

    /**
     * The one staged-op body. Both operands stage into the A/B thirds
     * of a slot taken from the resident arena (so staged launches
     * coexist with — and can evict — resident entries), and the slot
     * is freed when the result third is harvested. A sync op launches
     * behind the barrier and is harvested at once. An async op
     * launches through launchAsync into the window of two; a third
     * submit first harvests the oldest, the depth-2 schedule
     * analysis::PipelineReplay forecasts. A sync op issued while async
     * ops are in flight leaves the window alone.
     */
    AsyncOp
    stagedOp(std::span<const Ciphertext<N>> a,
             std::span<const Ciphertext<N>> b, bool multiply, bool async)
    {
        // Span and op-counter names per [async][multiply].
        static constexpr const char *kSpan[2][2] = {
            {"pimhe.vec_add", "pimhe.vec_mul"},
            {"pimhe.vec_add_async", "pimhe.vec_mul_async"}};
        static constexpr const char *kCounter[2][2] = {
            {"pimhe.ops.vec_add", "pimhe.ops.vec_mul"},
            {"pimhe.ops.vec_add_async", "pimhe.ops.vec_mul_async"}};
        obs::ScopedSpan span(obs::Tracer::global(), 0,
                             kSpan[async][multiply]);
        span.arg("cts", static_cast<double>(a.size()));
        bumpOpCounter(kCounter[async][multiply]);
        const Geometry g = binaryGeometry(a, b);
        if (async && window_.size() == 2) {
            if (!window_.front()->harvested)
                harvest(*window_.front());
            window_.pop_front();
        }

        auto st = std::make_shared<AsyncOpState>();
        // The result's host storage is taken before the launch, so the
        // launch's history records land above it on the host heap: a
        // result the caller frees goes back to the allocator's free
        // lists for the next op, not to a heap top that the allocator
        // trims and the next op re-faults.
        st->results = zeroCiphertexts<N>(g);
        st->slot = cache_.allocScratch(3 * g.stride);
        st->geometry = g;
        const pimhe_kernels::VecKernelParams kp =
            vecParams(st->slot, st->slot + g.stride,
                      st->slot + 2 * g.stride, g.perDpu);
        stage<N>(dpus_, a, kp.mramA, g);
        stage<N>(dpus_, b, kp.mramB, g);
        dpus_.plan().declareWriteTarget(
            ResidentCache<N>::scratchPlanId(st->slot));
        const pim::CompiledKernel kernel =
            multiply ? pimhe_kernels::compiledVecMulModQ(kp)
                     : pimhe_kernels::compiledVecAddModQ(kp);
        const analysis::KernelFootprint fp =
            pimhe_kernels::vecKernelFootprint(kp, dpus_.config().dpu,
                                              tasklets_, multiply);
        if (async) {
            st->launch = dpus_.launchAsync(tasklets_, kernel, fp);
            window_.push_back(st);
        } else {
            dpus_.launch(tasklets_, kernel, fp);
            st->launch = dpus_.launches().size() - 1;
            harvest(*st);
        }
        return AsyncOp(this, std::move(st));
    }

    /**
     * Wait for an op's launch, download its result third and free its
     * slot. Runs on the caller thread; downloads charge the producing
     * launch via copyFromMramForLaunch, so the accounting matches the
     * point the synchronous path would have charged them.
     */
    void
    harvest(AsyncOpState &st)
    {
        dpus_.waitLaunch(st.launch);
        collect<N>(dpus_, st.slot + 2 * st.geometry.stride, st.geometry,
                   st.launch, st.results);
        cache_.freeScratch(st.slot);
        st.harvested = true;
    }

    const BfvContext<N> &ctx_;
    pim::DpuSet dpus_;
    unsigned tasklets_;
    pimhe_kernels::VecKernelParams modulus_; //!< k, c, q of the ring
    ResidentCache<N> cache_;
    /** Async ops not yet retired from the window, oldest first. */
    std::deque<std::shared_ptr<AsyncOpState>> window_;
    PimCostModel costModel_; //!< fit probes for certifyPlan (cached)
    analysis::NoiseReport noiseCheck_;
    analysis::CostReport costEstimate_;
    analysis::CostSpec costSpec_; //!< probed spec of the last certify
    bool hasNoiseCheck_ = false;
    bool hasCostEstimate_ = false;
    bool hasCostSpec_ = false;
    double staleFitScale_ = 1.0; //!< injectStaleFits (tests/CI only)
};

/**
 * ExactConvolver backed by the PIM negacyclic convolution kernel:
 * plugging this into a BfvContext runs every BFV tensor product on
 * the simulated PIM system, bit-exact with the host engines.
 *
 * With num_dpus > 1 the output rows are block-partitioned across the
 * DPUs: both operand polynomials are broadcast (each DPU needs all of
 * A and B for its rows), every DPU receives its own {rowBegin,
 * rowEnd} metadata block, computes its rows completely, and the host
 * concatenates the disjoint shards — no cross-DPU folding needed.
 */
template <std::size_t N>
class PimConvolver : public ExactConvolver<N>
{
  public:
    /**
     * @param ring     Ring the products live in.
     * @param cfg      PIM system configuration.
     * @param tasklets Tasklets for the convolution kernel.
     * @param num_dpus DPUs to shard the output rows across.
     */
    PimConvolver(const RingContext<N> &ring,
                 const pim::SystemConfig &cfg, unsigned tasklets = 12,
                 std::size_t num_dpus = 1)
        : ring_(ring), dpus_(cfg, num_dpus), tasklets_(tasklets)
    {}

    std::vector<U256>
    convolveCentered(const Polynomial<N> &a,
                     const Polynomial<N> &b) const override
    {
        const std::size_t n = ring_.degree();
        const std::size_t num_dpus = dpus_.size();
        requireRingDegree(a, n, "a");
        requireRingDegree(b, n, "b");
        obs::ScopedSpan op_span(obs::Tracer::global(), 0,
                                "pimhe.convolve");
        op_span.arg("n", static_cast<double>(n));
        op_span.arg("dpus", static_cast<double>(num_dpus));
        bumpOpCounter("pimhe.ops.convolve");
        pimhe_kernels::ConvKernelParams kp =
            pimhe_kernels::makeConvParams(ring_.modulus(), n);
        const std::size_t acc_bytes = kp.accLimbs() * 4;
        // Rows [rb, re) of DPU d; one DPU owns every row.
        const auto shard = [&](std::size_t d) {
            return analysis::rowShardRange(
                kp.n, static_cast<std::uint32_t>(num_dpus),
                static_cast<std::uint32_t>(d));
        };

        if (num_dpus > 1) {
            // Shard 0 is a widest shard (analysis::rowShardRange), so
            // its row count bounds every DPU's accumulator region and
            // one footprint covers the whole launch.
            const auto [b0, e0] = shard(0);
            kp.rowBegin = b0;
            kp.rowEnd = e0;
            kp.mramMeta =
                kp.mramOut + std::uint64_t(e0 - b0) * acc_bytes;
        }

        dpus_.broadcastToMram(kp.mramA, flatten(a));
        dpus_.broadcastToMram(kp.mramB, flatten(b));
        for (std::size_t d = 0; num_dpus > 1 && d < num_dpus; ++d) {
            const auto [rb, re] = shard(d);
            const std::uint32_t meta[2] = {rb, re};
            dpus_.copyToMram(
                d, kp.mramMeta,
                std::span(reinterpret_cast<const std::uint8_t *>(meta),
                          sizeof meta));
        }

        dpus_.launch(tasklets_,
                     pimhe_kernels::compiledNegacyclicConv(kp),
                     pimhe_kernels::convKernelFootprint(
                         kp, dpus_.config().dpu));

        // Collect the disjoint row shards in DPU order.
        std::vector<U256> out(n);
        std::vector<std::uint8_t> buf;
        for (std::size_t d = 0; d < num_dpus; ++d) {
            const auto [rb, re] = shard(d);
            if (rb == re)
                continue;
            buf.resize(std::size_t(re - rb) * acc_bytes);
            dpus_.copyFromMram(d, kp.mramOut, buf);
            decodeRows(buf, kp, rb, re, out);
        }
        return out;
    }

    std::string name() const override { return "pim-schoolbook"; }

    /** Simulator accounting of this convolver's own DpuSet, exposed
     *  through the layering-neutral hook so PimHeSystem can attribute
     *  convolution charges to the plan ops that triggered them. */
    ConvolverUsage
    usage() const override
    {
        ConvolverUsage u;
        u.modeledMs = dpus_.totalModeledMs();
        u.busBytes = dpus_.transferTotals().busBytes();
        u.launches = dpus_.launches().size();
        u.kernelCycles = dpus_.totalKernelCycles();
        return u;
    }

    /** The convolver's DPU set (launch stats, transfer totals). */
    const pim::DpuSet &dpuSet() const { return dpus_; }

  private:
    /** Sign-extend accumulator rows [rb, re) out of buf into out.
     *  Truncating to (or sign-extending up to) 256 bits preserves the
     *  two's-complement value: |coeff| < n * q^2 < 2^255. */
    static void
    decodeRows(const std::vector<std::uint8_t> &buf,
               const pimhe_kernels::ConvKernelParams &kp,
               std::uint32_t rb, std::uint32_t re,
               std::vector<U256> &out)
    {
        const std::size_t acc_limbs = kp.accLimbs();
        const std::size_t read_limbs =
            std::min<std::size_t>(acc_limbs, 8);
        for (std::uint32_t r = rb; r < re; ++r) {
            const std::size_t i = r - rb;
            U256 v;
            std::uint32_t top = 0;
            for (std::size_t l = 0; l < read_limbs; ++l) {
                std::memcpy(&top,
                            buf.data() + (i * acc_limbs + l) * 4, 4);
                v.setLimb(l, top);
            }
            if ((top & 0x80000000u) != 0)
                for (std::size_t l = read_limbs; l < 8; ++l)
                    v.setLimb(l, 0xFFFFFFFFu);
            out[r] = v;
        }
    }

    static std::vector<std::uint8_t>
    flatten(const Polynomial<N> &p)
    {
        static_assert(kStagedAsStored<N>);
        std::vector<std::uint8_t> buf(p.size() * N * 4);
        std::memcpy(buf.data(), p.coeffs().data(), buf.size());
        return buf;
    }

    const RingContext<N> &ring_;
    mutable pim::DpuSet dpus_;
    unsigned tasklets_;
};

} // namespace pimhe

#endif // PIMHE_PIMHE_ORCHESTRATOR_H
