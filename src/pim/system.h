/**
 * @file
 * System-level PIM model: a set of DPUs plus host transfer timing.
 */

#ifndef PIMHE_PIM_SYSTEM_H
#define PIMHE_PIM_SYSTEM_H

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/plan_verify.h"
#include "analysis/symbolic.h"
#include "analysis/verifier.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pim/dpu.h"
#include "pim/pipeline.h"

namespace pimhe {
namespace pim {

class DpuSet;

/**
 * Future-like handle to an asynchronous launch (DpuSet::launchAsync).
 *
 * Semantics:
 *  - wait() blocks until the launch (and every earlier submission)
 *    has been merged, then returns its LaunchStats. Idempotent: a
 *    second wait() returns the same, already-merged stats.
 *  - A deferred failure — pre-launch verifier rejection, fail-fast
 *    checker conflict, shadow divergence — panics inside wait() with
 *    the same diagnostic the synchronous path would have raised.
 *  - Dropping a ticket without wait() is allowed: the launch still
 *    completes and is merged (failures included) at the next drain
 *    point — any synchronous DpuSet operation, a later ticket's
 *    wait(), or an explicit drainAsync(). Only destroying the DpuSet
 *    with tickets never waited on abandons their results.
 */
class LaunchTicket
{
  public:
    LaunchTicket() = default;

    /** Block until merged; returns the launch's stats. */
    const LaunchStats &wait();

    bool valid() const { return set_ != nullptr; }

    /** Global launch index (position in DpuSet::launches()). */
    std::size_t launchIndex() const { return index_; }

  private:
    friend class DpuSet;
    LaunchTicket(DpuSet *set, std::size_t index)
        : set_(set), index_(index)
    {}

    DpuSet *set_ = nullptr;
    std::size_t index_ = 0;
};

/**
 * A host-managed allocation of DPUs.
 *
 * Mirrors the UPMEM SDK flow: copy inputs into MRAM, launch a kernel
 * on every DPU, copy results back. Host<->MRAM copy time is modelled
 * from the configured bandwidths: uploads performed since the previous
 * launch are charged to the next launch's hostToDpuMs, downloads after
 * a launch to its dpuToHostMs, and downloads before the first launch
 * to the explicit preLaunchDownloadMs() bucket (all three feed
 * totalModeledMs()).
 *
 * Execution engine: every launch runs the per-DPU simulations
 * concurrently on cfg.hostThreads host threads (see
 * SystemConfig::hostThreads for the auto/PIMHE_HOST_THREADS
 * resolution). DPUs share no mutable state, results land in per-DPU
 * slots, and all aggregation — maxCycles, fail-fast checker panics,
 * launch bookkeeping — happens after the join in DPU index order, so
 * every modelled field of LaunchStats is bit-identical at any thread
 * count; only the wall-clock observability fields (hostWallMs,
 * hostThreads) differ.
 *
 * One submission path serves both engines. launch() drains, submits
 * with the synchronous-barrier flag, runs the compute phase inline on
 * the caller thread and merges at once; launchAsync() hands the
 * compute phase to a single-worker FIFO pipeline (pim/pipeline.h) and
 * returns a LaunchTicket immediately, so the caller can stage launch
 * N+1's operands (copyToMramAsync into a disjoint double-buffered region)
 * while launch N simulates. Determinism is preserved by construction:
 * every modelled charge — upload consumption, verification, post-join
 * conflict/shadow scan in DPU index order, observability, the
 * two-track pipeline clock — runs on the caller thread in submission
 * order when the launch is merged (ticket wait / any drain point).
 * The worker only fills the launch's private per-DPU stats slots.
 * Modelled pipeline time lives in pipelineStats(): transfers
 * serialise on a bus track, kernels on a DPU track, and the pipelined
 * makespan is the max of the two track ends; the synchronous
 * accounting (totalModeledMs and every LaunchStats field) stays
 * bit-identical to a sync-only run of the same op sequence.
 *
 * The asynchronous API is single-owner like the synchronous one: one
 * thread drives the DpuSet. Synchronous operations (copy*, launch,
 * stats accessors) drain or require a drained pipeline, so legacy
 * callers never observe a half-merged state.
 */
class DpuSet
{
  public:
    /**
     * @param cfg      System parameters (bandwidths, DPU config).
     * @param num_dpus DPUs to allocate; must not exceed cfg.numDpus.
     */
    DpuSet(const SystemConfig &cfg, std::size_t num_dpus)
        : cfg_(cfg), execMode_(resolveExecMode(cfg.execMode)),
          pool_(std::make_unique<ThreadPool>(
              resolveHostThreads(cfg.hostThreads)))
    {
        PIMHE_ASSERT(num_dpus >= 1 && num_dpus <= cfg.numDpus,
                     "cannot allocate ", num_dpus, " of ", cfg.numDpus,
                     " DPUs");
        dpus_.reserve(num_dpus);
        for (std::size_t i = 0; i < num_dpus; ++i)
            dpus_.push_back(std::make_unique<Dpu>(cfg.dpu));
    }

    std::size_t size() const { return dpus_.size(); }
    const SystemConfig &config() const { return cfg_; }

    /** Resolved execution mode of this set (never Auto). */
    ExecMode execMode() const { return execMode_; }

    /** The host thread pool launches run on; callers staging per-DPU
     *  data may reuse it for their own index-sliced parallel work. */
    ThreadPool &hostPool() { return *pool_; }

    /** Host upload into one DPU's MRAM. Drains the async pipeline
     *  first: a plain copy makes no disjointness promise against
     *  in-flight kernels. */
    void
    copyToMram(std::size_t dpu, std::uint64_t addr,
               std::span<const std::uint8_t> bytes)
    {
        drainAsync();
        copyToMramAsync(dpu, addr, bytes);
    }

    /**
     * Pipelined upload: identical accounting to copyToMram, but does
     * NOT drain the async pipeline — the caller promises the target
     * range is disjoint from every in-flight launch's footprint
     * (the double-buffered staging contract, which the plan verifier
     * checks per launch). This is what lets launch N+1's staging
     * overlap launch N's compute.
     */
    void
    copyToMramAsync(std::size_t dpu, std::uint64_t addr,
                    std::span<const std::uint8_t> bytes)
    {
        dpuAt(dpu).mram().write(addr, bytes.data(), bytes.size());
        pendingUploadBytes_ += bytes.size();
        uploadDpusTouched_ += 1;
        xfer_.uploads += 1;
        xfer_.uploadedBytes += bytes.size();
        recordUpload(bytes.size());
    }

    /**
     * Host download from one DPU's MRAM. The modelled transfer time is
     * charged to the most recent launch's dpuToHostMs; downloads
     * issued before any launch (e.g. readback of staged inputs) are
     * accounted explicitly in preLaunchDownloadMs() instead of being
     * silently dropped. Drains the async pipeline first.
     */
    void
    copyFromMram(std::size_t dpu, std::uint64_t addr,
                 std::span<std::uint8_t> bytes)
    {
        drainAsync();
        dpuAt(dpu).mram().read(addr, bytes.data(), bytes.size());
        chargeDownload(dpu, bytes.size(),
                       launches_.empty()
                           ? -1
                           : static_cast<std::ptrdiff_t>(
                                 launches_.size() - 1));
    }

    /**
     * Pipelined download of a specific launch's results: reads the
     * range and charges the modelled time to THAT launch (not
     * launches().back(), which may already be a younger pipelined
     * launch). The launch must have been merged — wait() on its
     * ticket first. Does not drain the pipeline, so harvesting launch
     * N's output can overlap launch N+1's compute; the caller
     * promises the range is disjoint from in-flight footprints, as
     * with copyToMramAsync.
     */
    void
    copyFromMramForLaunch(std::size_t dpu, std::uint64_t addr,
                          std::span<std::uint8_t> bytes,
                          std::size_t launch_index)
    {
        PIMHE_ASSERT(launch_index < launches_.size(),
                     "copyFromMramForLaunch: launch ", launch_index,
                     " not merged yet — wait() on its ticket first");
        dpuAt(dpu).mram().read(addr, bytes.data(), bytes.size());
        chargeDownload(dpu, bytes.size(),
                       static_cast<std::ptrdiff_t>(launch_index));
    }

    /** Broadcast the same bytes into every DPU's MRAM. Drains the
     *  async pipeline first (see copyToMram). */
    void
    broadcastToMram(std::uint64_t addr,
                    std::span<const std::uint8_t> bytes)
    {
        drainAsync();
        for (auto &d : dpus_)
            d->mram().write(addr, bytes.data(), bytes.size());
        // Broadcast is a single parallel transfer on the bus.
        pendingUploadBytes_ += bytes.size();
        uploadDpusTouched_ += dpus_.size();
        xfer_.uploads += 1;
        xfer_.uploadedBytes += bytes.size();
        recordUpload(bytes.size());
    }

    /**
     * Record that `bytes` of operand data were found already resident
     * in MRAM and did not need re-uploading. Called by the resident
     * ciphertext cache on a hit; pure accounting, no data movement.
     */
    void
    noteResidentReuse(std::uint64_t bytes)
    {
        xfer_.residentBytesReused += bytes;
        obs::Registry &reg = obs::Registry::global();
        if (reg.enabled()) {
            static obs::Counter reused =
                reg.counter("pim.xfer.resident.bytes_reused");
            reused.add(bytes);
        }
    }

    /** Lifetime transfer accounting for this set (see TransferTotals). */
    const TransferTotals &transferTotals() const { return xfer_; }

    /**
     * Run the kernel with `num_tasklets` tasklets on every DPU and
     * record a LaunchStats entry. Independent DPUs execute
     * concurrently across the host pool; all aggregation happens
     * after the join in DPU index order (see the class comment for
     * the determinism contract).
     */
    const LaunchStats &
    launch(unsigned num_tasklets, const Kernel &kernel)
    {
        return launch(num_tasklets, interpreterOnly(kernel));
    }

    /**
     * Compiled-kernel launch: same engine, but the per-DPU execution
     * honours this set's resolved ExecMode (interpret / fast /
     * shadow). A shadow divergence found on any DPU is raised here,
     * after the join, for the lowest diverging DPU index — like the
     * checker's deferred fail-fast, this keeps failure output
     * deterministic at any host thread count.
     */
    const LaunchStats &
    launch(unsigned num_tasklets, const CompiledKernel &kernel)
    {
        drainAsync();
        return launchSync(num_tasklets, kernel, std::string());
    }

    /**
     * Non-blocking pipelined launch: consume the staged uploads into
     * this launch's modelled hostToDpuMs (exactly as launch() would,
     * at the same program point), enqueue the compute phase on the
     * pipeline worker, and return a ticket. The caller may then stage
     * the NEXT launch's operands with copyToMramAsync into a disjoint
     * double-buffered region while this one simulates — the host
     * overlap the two-track model charges.
     *
     * All failure modes are deferred into the merge (ticket wait or
     * the next drain point) and panic there with the synchronous
     * path's diagnostics, in submission order.
     */
    LaunchTicket
    launchAsync(unsigned num_tasklets, const CompiledKernel &kernel)
    {
        return submitAsync(num_tasklets, kernel, std::string(),
                           /*async=*/true);
    }

    /**
     * Verified pipelined launch: the pre-launch static stack
     * (budgets, symbolic prover, plan lifetimes) runs NOW, on the
     * caller thread at submission — the reports in lastVerify() etc.
     * are exactly the synchronous ones — but a rejection is captured
     * in the ticket instead of panicking here, and surfaces when the
     * launch is merged. A rejected launch never simulates a cycle and
     * charges no kernel time, same as the synchronous path.
     */
    LaunchTicket
    launchAsync(unsigned num_tasklets, const CompiledKernel &kernel,
                const analysis::KernelFootprint &footprint)
    {
        return submitAsync(num_tasklets, kernel,
                           preLaunchVerifyCaptured(num_tasklets,
                                                   footprint),
                           /*async=*/true);
    }

    /**
     * Merge every submitted-but-unmerged async launch, in submission
     * order, blocking on the pipeline worker as needed. Deferred
     * failures panic here. No-op when nothing is pending.
     */
    void
    drainAsync()
    {
        while (!pendingAsync_.empty())
            mergeNextAsync();
    }

    /** True while async launches are submitted but not yet merged. */
    bool asyncInFlight() const { return !pendingAsync_.empty(); }

    /**
     * Block until launch `launch_index` is merged and return its
     * stats. Merging always proceeds in submission order, so waiting
     * on launch k first merges every older pending launch — which is
     * how out-of-order ticket waits stay deterministic. Idempotent
     * for already-merged launches.
     */
    const LaunchStats &
    waitLaunch(std::size_t launch_index)
    {
        while (launches_.size() <= launch_index) {
            PIMHE_ASSERT(!pendingAsync_.empty(),
                         "waitLaunch(", launch_index,
                         "): no such launch submitted");
            mergeNextAsync();
        }
        return launches_[launch_index];
    }

    /**
     * Two-track pipeline accounting: per-launch modelled schedule
     * spans, bus/DPU occupancy, pipelined makespan vs. the
     * synchronous-equivalent serial time. Requires a drained
     * pipeline so the numbers are complete.
     */
    const PipelineStats &
    pipelineStats() const
    {
        PIMHE_ASSERT(pendingAsync_.empty(),
                     "pipelineStats() with async launches in flight — "
                     "wait on the tickets or drainAsync() first");
        return pipeStats_;
    }

    /**
     * Verified launch: when cfg.verifyBeforeLaunch is set, run the
     * whole pre-launch static stack against this set's DpuConfig and
     * panic — before any simulated cycle or modelled transfer — if
     * the plan is unsafe:
     *
     *  1. analysis::checkKernelLaunch: the LaunchVerifier budgets
     *     (WRAM/MRAM/DMA/tasklets), then the symbolic race prover at
     *     the planned tasklet count when the footprint carries an
     *     access model (witnesses surface as Resource::Race);
     *  2. the plan-level lifetime verifier against the resident-arena
     *     state fed through plan() (violations surface as
     *     Resource::Lifetime).
     *
     * The combined report is retained in lastVerify() either way;
     * lastSymbolic()/lastPlanCheck() keep the structured sub-reports.
     * With verifyBeforeLaunch off the footprint is ignored (armed
     * write-target declarations are still consumed so they cannot
     * leak into a later verified launch) and this is exactly
     * launch() above.
     */
    const LaunchStats &
    launch(unsigned num_tasklets, const Kernel &kernel,
           const analysis::KernelFootprint &footprint)
    {
        return launch(num_tasklets, interpreterOnly(kernel), footprint);
    }

    /**
     * Verified compiled-kernel launch: the same pre-launch static
     * stack (budgets, symbolic prover, plan lifetimes) gates the
     * launch, then execution honours this set's ExecMode. All three
     * analyses run against the interpreter-side model regardless of
     * mode, so fast-path launches keep their static guarantees and
     * shadow launches additionally keep the dynamic checker. A
     * rejection panics at the immediate merge, before any simulated
     * cycle.
     */
    const LaunchStats &
    launch(unsigned num_tasklets, const CompiledKernel &kernel,
           const analysis::KernelFootprint &footprint)
    {
        drainAsync();
        return launchSync(num_tasklets, kernel,
                          preLaunchVerifyCaptured(num_tasklets,
                                                  footprint));
    }

  private:
    /** A plain Kernel as a CompiledKernel with no fast body. */
    static CompiledKernel
    interpreterOnly(const Kernel &kernel)
    {
        CompiledKernel ck;
        ck.name = "<interpreter-only>";
        ck.interpret = kernel;
        ck.waiver = "plain Kernel launch carries no fast body";
        return ck;
    }

    /** Submit with the synchronous barrier on a drained pipeline and
     *  merge at once; a captured verifier rejection panics in the
     *  merge with its diagnostic. */
    const LaunchStats &
    launchSync(unsigned num_tasklets, const CompiledKernel &kernel,
               std::string verify_failure)
    {
        obs::ScopedSpan host_span(obs::Tracer::global(), 0,
                                  "DpuSet::launch");
        const LaunchStats &merged = waitLaunch(
            submitAsync(num_tasklets, kernel, std::move(verify_failure),
                        /*async=*/false)
                .launchIndex());
        host_span.arg("tasklets", static_cast<double>(num_tasklets));
        host_span.arg("dpus", static_cast<double>(dpus_.size()));
        host_span.arg("kernel_ms", merged.kernelMs);
        return merged;
    }

    /**
     * The verifyBeforeLaunch static stack shared by the verified
     * launch overloads (see the Kernel overload's contract). Returns
     * the rejection diagnostic instead of panicking, so the async
     * path can defer it into the LaunchTicket; empty string means the
     * launch is admitted.
     */
    std::string
    preLaunchVerifyCaptured(unsigned num_tasklets,
                            const analysis::KernelFootprint &footprint)
    {
        if (cfg_.verifyBeforeLaunch) {
            analysis::KernelGateReport gate = analysis::checkKernelLaunch(
                cfg_.dpu, footprint, num_tasklets);
            lastVerify_ = std::move(gate.report);
            hasVerify_ = true;
            if (gate.proof)
                lastSymbolic_ = std::move(gate.proof);

            lastPlan_ = plan_.checkLaunch(footprint);
            hasPlan_ = true;
            for (const auto &v : lastPlan_.violations)
                lastVerify_.violations.push_back(
                    analysis::Violation{analysis::Resource::Lifetime,
                                        0, v.end - v.begin,
                                        v.describe()});
            if (lastPlan_.ok())
                lastVerify_.notes.push_back(
                    "plan: region lifetimes consistent with the "
                    "resident arena");

            obs::Registry &reg = obs::Registry::global();
            if (reg.enabled()) {
                static obs::Counter verified =
                    reg.counter("pim.verify.launches");
                static obs::Counter violations =
                    reg.counter("pim.verify.violations");
                verified.add(1);
                violations.add(lastVerify_.violations.size());
            }
            obs::Tracer &tracer = obs::Tracer::global();
            if (tracer.enabled()) {
                obs::TraceInstant mark;
                mark.pid = obs::Tracer::kHostPid;
                mark.tid = 0;
                mark.name = "verify";
                mark.tsUs = tracer.nowUs();
                mark.strArgs = {
                    {"kernel", footprint.kernel},
                    {"ok", lastVerify_.ok() ? "true" : "false"}};
                tracer.recordInstant(std::move(mark));

                // WRAM high-water of the upcoming launch: sampled at
                // the current model cursor so the counter steps right
                // before the launch span it budgets.
                obs::TraceCounter wram;
                wram.pid = obs::Tracer::kModelPid;
                wram.tid = 0;
                wram.name = "pim.wram";
                wram.tsUs = modelCursorUs_;
                wram.values = {
                    {"high_water_bytes",
                     static_cast<double>(
                         footprint.wramTotal(num_tasklets))}};
                tracer.recordCounter(std::move(wram));
            }

            if (!lastVerify_.ok())
                return "pre-launch verification rejected kernel '" +
                       footprint.kernel + "':\n" +
                       lastVerify_.summary();
        } else {
            plan_.clearDeclaredTargets();
        }
        return {};
    }

  public:

    /** Report of the most recent verified launch attempt. */
    const analysis::VerifyReport &
    lastVerify() const
    {
        PIMHE_ASSERT(hasVerify_,
                     "no verified launch recorded (verifyBeforeLaunch "
                     "off or footprint-less launch() used)");
        return lastVerify_;
    }

    /**
     * Arena-lifetime tracker for this set. The resident cache feeds
     * region events into it and orchestrators declare per-launch
     * write targets; the verified launch path checks every footprint
     * against it (see analysis/plan_verify.h).
     */
    analysis::PlanVerifier &plan() { return plan_; }
    const analysis::PlanVerifier &plan() const { return plan_; }

    /** Symbolic race proof of the most recent verified launch that
     *  carried an access model. */
    const analysis::SymbolicReport &
    lastSymbolic() const
    {
        PIMHE_ASSERT(lastSymbolic_.has_value(),
                     "no symbolic proof recorded (verifyBeforeLaunch "
                     "off or footprint without an access model)");
        return *lastSymbolic_;
    }

    /** Plan-level lifetime report of the most recent verified launch. */
    const analysis::PlanReport &
    lastPlanCheck() const
    {
        PIMHE_ASSERT(hasPlan_,
                     "no plan check recorded (verifyBeforeLaunch off "
                     "or footprint-less launch() used)");
        return lastPlan_;
    }

    /** Stats of the most recent launch (downloads keep updating it). */
    const LaunchStats &
    lastLaunch() const
    {
        requireDrained("lastLaunch()");
        PIMHE_ASSERT(!launches_.empty(), "no launches recorded");
        return launches_.back();
    }

    /** All launches so far, in order. */
    const std::vector<LaunchStats> &
    launches() const
    {
        requireDrained("launches()");
        return launches_;
    }

    /** Modelled time of downloads issued before the first launch. */
    double preLaunchDownloadMs() const { return xfer_.preLaunchDownloadMs; }

    /** Sum of totalMs() over all launches plus pre-launch downloads. */
    double
    totalModeledMs() const
    {
        requireDrained("totalModeledMs()");
        double sum = xfer_.preLaunchDownloadMs;
        for (const auto &l : launches_)
            sum += l.totalMs();
        return sum;
    }

    /** Sum of maxCycles over all launches, kept as a running total so
     *  per-op attribution never rescans the history. */
    double
    totalKernelCycles() const
    {
        requireDrained("totalKernelCycles()");
        return kernelCycles_;
    }

    Dpu &
    dpuAt(std::size_t i)
    {
        PIMHE_ASSERT(i < dpus_.size(), "DPU index out of range: ", i);
        return *dpus_[i];
    }

  private:
    /** Integer upload metrics shared by copyToMram / broadcast. */
    void
    recordUpload(std::uint64_t bytes)
    {
        obs::Registry &reg = obs::Registry::global();
        if (!reg.enabled())
            return;
        static obs::Counter h2d_bytes =
            reg.counter("pim.xfer.h2d.bytes");
        static obs::Counter h2d_copies =
            reg.counter("pim.xfer.h2d.copies");
        h2d_bytes.add(bytes);
        h2d_copies.add(1);
    }

    /**
     * Post-join observability for one launch. Runs single-threaded
     * after aggregation, so the modelled double metrics it records
     * (kernel/transfer ms histograms, modelled-track trace spans) are
     * identical at any host thread count; the host-wall histogram is
     * namespaced under "host." and excluded from determinism
     * comparisons. The modelled-time cursor advances by exactly the
     * phases totalModeledMs() accounts for, so the modelled track of
     * the trace lays launches end to end on the simulated timeline.
     */
    void
    recordLaunchObservability(const LaunchStats &stats,
                              unsigned num_tasklets)
    {
        obs::Registry &reg = obs::Registry::global();
        if (reg.enabled()) {
            static obs::Counter launches = reg.counter("pim.launch.count");
            static obs::Histogram kernel_ms =
                reg.histogram("pim.launch.kernel_ms");
            static obs::Histogram h2d_ms =
                reg.histogram("pim.launch.h2d_ms");
            static obs::Histogram max_cycles =
                reg.histogram("pim.launch.max_cycles");
            static obs::Histogram wall_ms =
                reg.histogram("host.launch.wall_ms");
            launches.add(1);
            // Per-tasklet-count occupancy, e.g. pim.launch.tasklets.11.
            reg.counter("pim.launch.tasklets." +
                        std::to_string(num_tasklets))
                .add(1);
            kernel_ms.observe(stats.kernelMs);
            h2d_ms.observe(stats.hostToDpuMs);
            max_cycles.observe(stats.maxCycles);
            wall_ms.observe(stats.hostWallMs);
        }

        obs::Tracer &tracer = obs::Tracer::global();
        const double h2d_us = stats.hostToDpuMs * 1e3;
        const double kernel_us = stats.kernelMs * 1e3;
        const double overhead_us = stats.launchOverheadMs * 1e3;
        // One shared end value for the span AND the cursor advance:
        // summing in two differently-associated expressions can land
        // one ulp apart, which reorders the next span's begin against
        // this span's end and breaks the trace's B/E nesting.
        const double begin = modelCursorUs_;
        const double end = begin + h2d_us + kernel_us + overhead_us;
        if (tracer.enabled()) {
            auto model_span = [&](const char *name, double b, double e) {
                obs::TraceSpan s;
                s.pid = obs::Tracer::kModelPid;
                s.tid = 0;
                s.name = name;
                s.beginUs = b;
                s.endUs = e;
                return s;
            };
            obs::TraceSpan launch_span = model_span("launch", begin, end);
            launch_span.numArgs = {
                {"tasklets", static_cast<double>(num_tasklets)},
                {"dpus", static_cast<double>(dpus_.size())},
                {"max_cycles", stats.maxCycles}};
            tracer.recordSpan(std::move(launch_span));
            if (h2d_us > 0)
                tracer.recordSpan(
                    model_span("h2d", begin, begin + h2d_us));
            if (kernel_us > 0)
                tracer.recordSpan(model_span("kernel", begin + h2d_us,
                                             begin + h2d_us +
                                                 kernel_us));
        }
        modelCursorUs_ = end;
        recordBusCounter(tracer);
    }

    /**
     * Sample the cumulative bus-byte totals as a Chrome counter on
     * the modelled track. Called after every cursor advance (launch,
     * download), so Perfetto plots transfer volume against the
     * kernel/transfer spans — the transfer-vs-compute overlap view.
     */
    void
    recordBusCounter(obs::Tracer &tracer)
    {
        if (!tracer.enabled())
            return;
        obs::TraceCounter c;
        c.pid = obs::Tracer::kModelPid;
        c.tid = 0;
        c.name = "pim.bus";
        c.tsUs = modelCursorUs_;
        c.values = {
            {"up_bytes", static_cast<double>(xfer_.uploadedBytes)},
            {"down_bytes",
             static_cast<double>(xfer_.downloadedBytes)}};
        tracer.recordCounter(std::move(c));
    }

    /** One submitted-but-unmerged launch. `stats.dpus` and
     *  `stats.hostWallMs` are the only fields the pipeline worker
     *  writes; everything else is caller-thread state frozen at
     *  submission. */
    struct PendingAsync
    {
        LaunchStats stats;
        unsigned tasklets = 0;
        std::size_t launchIndex = 0;
        std::size_t engineSeq = 0;
        bool async = true; //!< compute on the worker, no barrier
        std::string verifyFailure;    //!< deferred rejection diagnostic
    };

    /** Shared launch-stats setup: consume the staged uploads into
     *  this launch's hostToDpuMs and freeze the modelled metadata.
     *  Runs on the caller thread at the launch/submit program point —
     *  the same point for both engines, which is what makes the
     *  modelled fields bit-identical between them. The upload is also
     *  charged onto the pipeline's bus track HERE, at submission: in
     *  an async stream launch N+1's upload lands on the bus while
     *  launch N's kernel is still in flight — the modelled overlap. */
    LaunchStats
    beginLaunchStats(const CompiledKernel &kernel, bool async)
    {
        LaunchStats stats;
        stats.launchOverheadMs = cfg_.launchOverheadUs / 1e3;
        stats.hostToDpuMs = busMs(
            pendingUploadBytes_,
            uploadDpusTouched_ == 0 ? 1 : uploadDpusTouched_,
            cfg_.hostToDpuGbps);
        pendingUploadBytes_ = 0;
        uploadDpusTouched_ = 0;
        stats.dpus.resize(dpus_.size());
        stats.hostThreads = pool_->threadCount();
        stats.execMode =
            kernel.fast ? execMode_ : ExecMode::Interpret;

        const PipelineSpan span = pipeStats_.clock.chargeUpload(
            stats.hostToDpuMs, /*synchronous=*/!async,
            launches_.size() + pendingAsync_.size());
        obs::Tracer &tracer = obs::Tracer::global();
        if (tracer.enabled() && span.uploadEndMs > span.uploadBeginMs)
            tracer.recordSpan(pipelineTraceSpan(
                "pipe.h2d", obs::Tracer::kPipelineBusTid,
                span.uploadBeginMs, span.uploadEndMs,
                span.launchIndex, async));
        pendingPipeSpans_.push_back(span);
        return stats;
    }

    /** Post-join aggregation shared by both engines: conflict/shadow
     *  scan in DPU index order, cycle maximum, observability and the
     *  pipeline clock — all on the caller thread. */
    const LaunchStats &
    finalizeLaunch(LaunchStats stats, unsigned num_tasklets,
                   bool async)
    {
        for (std::size_t i = 0; i < stats.dpus.size(); ++i) {
            if (!stats.dpus[i].shadowDivergence.empty())
                panic("shadow-mode divergence: dpu ", i, ", ",
                      stats.dpus[i].shadowDivergence);
            if (cfg_.dpu.checker.failFast &&
                !stats.dpus[i].conflicts.clean())
                panic(describeLaunchFailure(i, stats.dpus[i].conflicts));
            stats.maxCycles =
                std::max(stats.maxCycles, stats.dpus[i].cycles);
        }
        stats.kernelMs = stats.maxCycles / (cfg_.dpu.clockMhz * 1e3);
        kernelCycles_ += stats.maxCycles;

        recordLaunchObservability(stats, num_tasklets);
        recordPipelineLaunch(stats, async);
        launches_.push_back(std::move(stats));
        return launches_.back();
    }

    /**
     * Submit one launch, the body both engines share: charge the
     * staged uploads (beginLaunchStats), then run the compute phase —
     * on the pipeline worker when `async`, inline on the caller thread
     * otherwise (the caller drained first and merges at once, which is
     * the synchronous barrier). A rejected launch runs nothing; its
     * diagnostic panics at the merge.
     */
    LaunchTicket
    submitAsync(unsigned num_tasklets, const CompiledKernel &kernel,
                std::string verify_failure, bool async)
    {
        PendingAsync pending;
        pending.tasklets = num_tasklets;
        pending.launchIndex = launches_.size() + pendingAsync_.size();
        pending.async = async;
        pending.verifyFailure = std::move(verify_failure);
        pending.stats = beginLaunchStats(kernel, async);
        pendingAsync_.push_back(std::move(pending));
        // std::deque never invalidates references on push/pop at the
        // other end, so the worker's pointer into this record stays
        // valid until mergeNextAsync() pops it — after waitFor().
        PendingAsync &rec = pendingAsync_.back();

        if (!rec.verifyFailure.empty())
            return LaunchTicket(this, rec.launchIndex);
        if (!async) {
            runDpus(num_tasklets, kernel, rec.stats);
            return LaunchTicket(this, rec.launchIndex);
        }
        rec.engineSeq = pipeline().submit(
            [this, kernel, num_tasklets, stats = &rec.stats] {
                obs::ScopedSpan span(obs::Tracer::global(),
                                     kAsyncWorkerTid, "async.compute");
                runDpus(num_tasklets, kernel, *stats);
            });
        return LaunchTicket(this, rec.launchIndex);
    }

    /** The per-DPU execution body: simulate every DPU across the host
     *  pool into the launch's private per-DPU slots. */
    void
    runDpus(unsigned num_tasklets, const CompiledKernel &kernel,
            LaunchStats &stats)
    {
        obs::Tracer &tracer = obs::Tracer::global();
        Timer wall;
        pool_->parallelFor(dpus_.size(), [&](std::size_t i) {
            obs::ScopedSpan dpu_span(tracer, i + 1, "dpu.run");
            stats.dpus[i] = dpus_[i]->run(num_tasklets, kernel, execMode_,
                                          /*defer_fail_fast=*/true);
            dpu_span.arg("dpu", static_cast<double>(i));
            dpu_span.arg("cycles", stats.dpus[i].cycles);
        });
        stats.hostWallMs = wall.elapsedMs();
    }

    /** Merge the oldest pending launch (submission order). */
    void
    mergeNextAsync()
    {
        PIMHE_ASSERT(!pendingAsync_.empty(),
                     "mergeNextAsync with an empty pipeline");
        PendingAsync &front = pendingAsync_.front();
        if (!front.verifyFailure.empty())
            // Deferred pre-launch rejection: surfaces at the first
            // merge point after submission, with the synchronous
            // diagnostic. (The process panics; no pop needed.)
            panic(front.verifyFailure);
        if (front.async)
            pipeline().waitFor(front.engineSeq);
        LaunchStats stats = std::move(front.stats);
        const unsigned tasklets = front.tasklets;
        const bool async = front.async;
        pendingAsync_.pop_front();
        finalizeLaunch(std::move(stats), tasklets, async);
    }

    /** Lazily-started pipeline worker. */
    PipelineEngine &
    pipeline()
    {
        if (!pipe_)
            pipe_ = std::make_unique<PipelineEngine>();
        return *pipe_;
    }

    /** Host-wall trace lane of the pipeline worker thread. */
    static constexpr std::uint32_t kAsyncWorkerTid = 9000;

    /** Stats accessors refuse to run mid-pipeline: a half-merged
     *  history would under-report deterministically-charged time. */
    void
    requireDrained(const char *what) const
    {
        PIMHE_ASSERT(pendingAsync_.empty(), what,
                     " with async launches in flight — wait on the "
                     "tickets or drainAsync() first");
    }

    /**
     * Charge one download's modelled time: to the owning launch's
     * dpuToHostMs (or the pre-launch bucket when launch_index < 0),
     * to the serial model track, and to the pipeline bus track where
     * it cannot begin before the producing kernel's modelled end.
     */
    void
    chargeDownload(std::size_t dpu, std::uint64_t bytes,
                   std::ptrdiff_t launch_index)
    {
        const double ms = busMs(bytes, 1, cfg_.dpuToHostGbps);
        xfer_.downloads += 1;
        xfer_.downloadedBytes += bytes;
        if (launch_index < 0) {
            xfer_.preLaunchDownloadMs += ms;
        } else {
            launches_[static_cast<std::size_t>(launch_index)]
                .dpuToHostMs += ms;
        }

        obs::Registry &reg = obs::Registry::global();
        if (reg.enabled()) {
            static obs::Counter d2h_bytes =
                reg.counter("pim.xfer.d2h.bytes");
            static obs::Counter d2h_copies =
                reg.counter("pim.xfer.d2h.copies");
            d2h_bytes.add(bytes);
            d2h_copies.add(1);
        }
        obs::Tracer &tracer = obs::Tracer::global();
        if (tracer.enabled() && ms > 0) {
            obs::TraceSpan s;
            s.pid = obs::Tracer::kModelPid;
            s.tid = 0;
            s.name =
                launch_index < 0 ? "pre-launch d2h" : "d2h";
            s.beginUs = modelCursorUs_;
            s.endUs = modelCursorUs_ + ms * 1e3;
            s.numArgs = {
                {"bytes", static_cast<double>(bytes)},
                {"dpu", static_cast<double>(dpu)}};
            tracer.recordSpan(std::move(s));
        }
        modelCursorUs_ += ms * 1e3;
        recordBusCounter(tracer);

        // Two-track pipeline charge.
        const double ready =
            launch_index < 0
                ? 0.0
                : pipeStats_
                      .spans[static_cast<std::size_t>(launch_index)]
                      .kernelEndMs;
        const double begin =
            pipeStats_.clock.chargeDownload(ms, ready);
        if (launch_index >= 0) {
            PipelineSpan &span =
                pipeStats_
                    .spans[static_cast<std::size_t>(launch_index)];
            if (span.downloadEndMs <= span.downloadBeginMs)
                span.downloadBeginMs = begin;
            span.downloadEndMs = begin + ms;
        }
        if (tracer.enabled() && ms > 0) {
            obs::TraceSpan s;
            s.pid = obs::Tracer::kModelPid;
            s.tid = obs::Tracer::kPipelineBusTid;
            s.name = "pipe.d2h";
            s.beginUs = begin * 1e3;
            s.endUs = (begin + ms) * 1e3;
            s.numArgs = {
                {"launch",
                 static_cast<double>(launch_index < 0
                                         ? -1
                                         : launch_index)},
                {"bytes", static_cast<double>(bytes)}};
            tracer.recordSpan(std::move(s));
        }
    }

    /** One span on the pipelined modelled lanes (times in ms). */
    static obs::TraceSpan
    pipelineTraceSpan(const char *name, std::uint64_t tid,
                      double begin_ms, double end_ms,
                      std::size_t launch_index, bool async)
    {
        obs::TraceSpan s;
        s.pid = obs::Tracer::kModelPid;
        s.tid = tid;
        s.name = name;
        s.beginUs = begin_ms * 1e3;
        s.endUs = end_ms * 1e3;
        s.numArgs = {{"launch", static_cast<double>(launch_index)},
                     {"async", async ? 1.0 : 0.0}};
        return s;
    }

    /**
     * Complete the pipeline schedule of one merging launch: its upload
     * was charged at submission (beginLaunchStats); the kernel half is
     * charged now, in submission order, and the finished span is
     * emitted on the pipelined trace lanes. A synchronous launch
     * aligned the tracks at its upload, so sync-only histories have
     * makespan == serial exactly.
     */
    void
    recordPipelineLaunch(const LaunchStats &stats, bool async)
    {
        PIMHE_ASSERT(!pendingPipeSpans_.empty(),
                     "pipeline span FIFO out of sync with merges");
        PipelineSpan span = pendingPipeSpans_.front();
        pendingPipeSpans_.pop_front();
        pipeStats_.clock.chargeKernel(
            span, stats.kernelMs + stats.launchOverheadMs);
        if (async)
            pipeStats_.asyncLaunches += 1;

        obs::Tracer &tracer = obs::Tracer::global();
        if (tracer.enabled() && span.kernelEndMs > span.kernelBeginMs)
            tracer.recordSpan(pipelineTraceSpan(
                "pipe.kernel", obs::Tracer::kPipelineDpuTid,
                span.kernelBeginMs, span.kernelEndMs,
                span.launchIndex, async));
        pipeStats_.spans.push_back(span);
    }

    SystemConfig cfg_;
    ExecMode execMode_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<std::unique_ptr<Dpu>> dpus_;
    std::vector<LaunchStats> launches_;
    std::deque<PendingAsync> pendingAsync_;
    PipelineStats pipeStats_;
    /** Upload-charged spans awaiting their kernel half (FIFO, one per
     *  submitted-but-unmerged launch; caller thread only). */
    std::deque<PipelineSpan> pendingPipeSpans_;
    // Declared after pendingAsync_ so destruction joins the worker
    // thread BEFORE the pending records (its jobs' stats slots) die.
    std::unique_ptr<PipelineEngine> pipe_;
    std::uint64_t pendingUploadBytes_ = 0;
    std::size_t uploadDpusTouched_ = 0;
    double kernelCycles_ = 0; //!< running Σ maxCycles (finalizeLaunch)
    TransferTotals xfer_;
    /** Modelled-time trace cursor (µs); tracks totalModeledMs(). */
    double modelCursorUs_ = 0;
    analysis::VerifyReport lastVerify_;
    bool hasVerify_ = false;
    std::optional<analysis::SymbolicReport> lastSymbolic_;
    analysis::PlanVerifier plan_;
    analysis::PlanReport lastPlan_;
    bool hasPlan_ = false;
};

inline const LaunchStats &
LaunchTicket::wait()
{
    PIMHE_ASSERT(set_ != nullptr, "wait() on an empty LaunchTicket");
    return set_->waitLaunch(index_);
}

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_SYSTEM_H
