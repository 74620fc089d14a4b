/**
 * @file
 * Asynchronous launch pipeline: the execution side of launchAsync.
 *
 * The engine is deliberately minimal — ONE worker thread draining a
 * FIFO of compute jobs — because that is exactly what the determinism
 * contract allows. A job only fills per-DPU result slots that belong
 * to its own launch (the DPU simulations inside may fan out across
 * the host pool, as the synchronous path does); every piece of
 * aggregation and modelled accounting stays on the caller thread and
 * happens in submission order when a launch is merged. Completion
 * order therefore cannot influence any modelled number: the host
 * overlap is real (the caller stages launch N+1's operands while the
 * worker simulates launch N), but the numbers are computed as if by
 * the synchronous engine.
 *
 * Modelled time of a pipelined schedule is tracked by TwoTrackClock:
 * transfers serialise on the bus track, kernels on the DPU track, a
 * kernel cannot start before its upload finished, a download cannot
 * start before its kernel finished — and the pipelined makespan is
 * the MAX of the two track ends, not the sum of the phases. The sum
 * (what the synchronous engine charges) is kept alongside as
 * serialMs, so speedup() is exactly "hidden transfer time".
 */

#ifndef PIMHE_PIM_PIPELINE_H
#define PIMHE_PIM_PIPELINE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pimhe {
namespace pim {

/**
 * Modelled two-track schedule of one launch. All times are modelled
 * milliseconds on the pipelined timeline (which differs from the
 * serial timeline the launch trace's tid-0 track shows).
 */
struct PipelineSpan
{
    std::size_t launchIndex = 0;
    double uploadBeginMs = 0;   //!< bus track
    double uploadEndMs = 0;
    double kernelBeginMs = 0;   //!< DPU track (includes launch overhead)
    double kernelEndMs = 0;
    double downloadBeginMs = 0; //!< bus track; 0-width when none yet
    double downloadEndMs = 0;

    /** True when this launch's upload or download overlaps another
     *  launch's kernel window [kb, ke). */
    bool
    busOverlaps(double kb, double ke) const
    {
        const bool up = uploadBeginMs < ke && kb < uploadEndMs;
        const bool down = downloadBeginMs < downloadEndMs &&
                          downloadBeginMs < ke && kb < downloadEndMs;
        return up || down;
    }
};

/**
 * Deterministic two-resource (bus, DPU) schedule accumulator. Charges
 * are applied on the caller thread in submission order, so the entire
 * struct is bit-identical at any host thread count. The same
 * arithmetic backs the planner's pipelined cost estimate
 * (analysis/plan_cost.h), which is what keeps the calibration
 * observatory's predicted-vs-measured comparison meaningful.
 */
struct TwoTrackClock
{
    double busCursorMs = 0; //!< end of the last bus transfer
    double dpuCursorMs = 0; //!< end of the last kernel
    double busBusyMs = 0;   //!< total bus occupancy
    double dpuBusyMs = 0;   //!< total DPU occupancy (incl. overheads)
    double serialMs = 0;    //!< synchronous-equivalent sum of phases

    /** Pipelined completion time: max of the tracks, not their sum. */
    double makespanMs() const
    {
        return busCursorMs > dpuCursorMs ? busCursorMs : dpuCursorMs;
    }

    double overlapSavedMs() const { return serialMs - makespanMs(); }

    double speedup() const
    {
        return makespanMs() > 0 ? serialMs / makespanMs() : 1.0;
    }

    /**
     * Charge one launch's upload onto the bus track. This is the
     * SUBMIT-time half of a launch: in a pipelined stream launch N+1's
     * upload is charged while launch N's kernel is still pending,
     * which is exactly how the bus/DPU overlap enters the schedule. A
     * synchronous launch first aligns both tracks — a full barrier.
     */
    PipelineSpan
    chargeUpload(double uploadMs, bool synchronous,
                 std::size_t launch_index)
    {
        if (synchronous) {
            const double join = makespanMs();
            busCursorMs = join;
            dpuCursorMs = join;
        }
        PipelineSpan span;
        span.launchIndex = launch_index;
        span.uploadBeginMs = busCursorMs;
        span.uploadEndMs = busCursorMs + uploadMs;
        busCursorMs = span.uploadEndMs;
        busBusyMs += uploadMs;
        serialMs += uploadMs;
        return span;
    }

    /** Charge the kernel+overhead half (merge time): the kernel
     *  begins when its own upload finished AND the DPU is free. */
    void
    chargeKernel(PipelineSpan &span, double kernelPlusOverheadMs)
    {
        span.kernelBeginMs =
            span.uploadEndMs > dpuCursorMs ? span.uploadEndMs
                                           : dpuCursorMs;
        span.kernelEndMs = span.kernelBeginMs + kernelPlusOverheadMs;
        dpuCursorMs = span.kernelEndMs;
        dpuBusyMs += kernelPlusOverheadMs;
        serialMs += kernelPlusOverheadMs;
    }

    /** Charge a download that depends on a kernel ending at
     *  `readyMs` (0 for pre-launch downloads). Returns begin time. */
    double
    chargeDownload(double ms, double readyMs)
    {
        const double begin =
            busCursorMs > readyMs ? busCursorMs : readyMs;
        busCursorMs = begin + ms;
        busBusyMs += ms;
        serialMs += ms;
        return begin;
    }
};

/** Aggregate pipeline accounting a DpuSet exposes. */
struct PipelineStats
{
    TwoTrackClock clock;
    std::size_t asyncLaunches = 0; //!< launches run through the engine
    /** One schedule entry per launch, indexed by launch index. */
    std::vector<PipelineSpan> spans;

    double makespanMs() const { return clock.makespanMs(); }
    double serialMs() const { return clock.serialMs; }
    double overlapSavedMs() const { return clock.overlapSavedMs(); }
    double speedup() const { return clock.speedup(); }

    /** Count of (transfer, kernel) pairs from DIFFERENT launches that
     *  overlap in modelled time — the quantity the overlap bench and
     *  the pim_profile --pipeline smoke assert to be nonzero. */
    std::size_t
    overlappingPairs() const
    {
        std::size_t pairs = 0;
        for (const PipelineSpan &a : spans)
            for (const PipelineSpan &b : spans)
                if (a.launchIndex != b.launchIndex &&
                    a.busOverlaps(b.kernelBeginMs, b.kernelEndMs))
                    ++pairs;
        return pairs;
    }
};

/**
 * One worker thread executing submitted jobs strictly in FIFO order.
 * submit() never blocks; waitFor() blocks the caller until the given
 * submission (and, by FIFO, every earlier one) has finished. The
 * worker starts lazily on first submit and joins in the destructor
 * after draining the queue.
 */
class PipelineEngine
{
  public:
    using Job = std::function<void()>;

    PipelineEngine() = default;
    ~PipelineEngine();

    PipelineEngine(const PipelineEngine &) = delete;
    PipelineEngine &operator=(const PipelineEngine &) = delete;

    /** Enqueue a job; returns its sequence number (0-based). */
    std::size_t submit(Job job);

    /** Block until job `seq` has completed. */
    void waitFor(std::size_t seq);

  private:
    void workerLoop();

    mutable std::mutex m_;
    std::condition_variable workCv_; //!< worker wakes on submit/stop
    std::condition_variable doneCv_; //!< waiters wake on completion
    std::deque<Job> queue_;
    std::size_t submitted_ = 0;
    std::size_t completed_ = 0;
    bool stop_ = false;
    bool started_ = false;
    std::thread worker_;
};

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_PIPELINE_H
