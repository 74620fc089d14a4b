/**
 * @file
 * Launch trace recorder with Chrome trace-event and JSONL export.
 *
 * Spans are recorded as complete [begin, end] intervals on one of two
 * tracks (Chrome "processes"):
 *
 *  - kHostPid ("host-wall"): real wall-clock microseconds since the
 *    recorder's epoch — what the simulator host actually spent, e.g.
 *    DpuSet::launch and the per-DPU run spans of the parallel engine.
 *  - kModelPid ("modelled-time"): the simulated PIM timeline, one
 *    trace microsecond per modelled microsecond — kernel, transfer
 *    and overhead phases laid end to end exactly as totalModeledMs()
 *    accounts them.
 *
 * writeChromeTrace() emits matched B/E event pairs sorted by
 * timestamp (loadable in Perfetto / chrome://tracing); writeJsonl()
 * emits one self-describing JSON object per line for ad-hoc tooling.
 * Recording is mutex-protected and rare (per launch / phase, never
 * per instruction); when disabled, record calls return after one
 * relaxed atomic load. Tracing never feeds back into modelled
 * results — LaunchStats stay bit-identical with tracing on or off.
 */

#ifndef PIMHE_OBS_TRACE_H
#define PIMHE_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pimhe {
namespace obs {

/** One recorded span (complete interval). */
struct TraceSpan
{
    int pid = 0;
    std::uint64_t tid = 0;
    std::string name;
    double beginUs = 0;
    double endUs = 0;
    std::vector<std::pair<std::string, double>> numArgs;
    std::vector<std::pair<std::string, std::string>> strArgs;
    std::uint64_t seq = 0;
};

/** One instant event (log capture, markers). */
struct TraceInstant
{
    int pid = 0;
    std::uint64_t tid = 0;
    std::string name;
    double tsUs = 0;
    std::vector<std::pair<std::string, std::string>> strArgs;
    std::uint64_t seq = 0;
};

/**
 * One counter sample (Chrome "C" event). Perfetto renders every
 * counter name as its own stacked track, so a sample series like
 * pim.bus {up_bytes, down_bytes} plots transfer volume against the
 * span tracks — the transfer-vs-compute overlap view the async
 * pipelining work needs. Samples on the modelled track use the same
 * modelled-time cursor as the launch spans.
 */
struct TraceCounter
{
    int pid = 0;
    std::uint64_t tid = 0;
    std::string name;
    double tsUs = 0;
    std::vector<std::pair<std::string, double>> values;
    std::uint64_t seq = 0;
};

class Tracer
{
  public:
    static constexpr int kHostPid = 1;  //!< wall-clock track
    static constexpr int kModelPid = 2; //!< modelled-time track

    /**
     * Lanes of the modelled-time track carrying the PIPELINED
     * timeline (pim/pipeline.h): bus transfers on one, kernels on the
     * other, so transfer/compute overlap across consecutive launches
     * is visible as side-by-side spans in Perfetto. Lane 0 stays the
     * serial modelled timeline (launches laid end to end).
     */
    static constexpr std::uint64_t kPipelineBusTid = 1;
    static constexpr std::uint64_t kPipelineDpuTid = 2;

    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Process-wide tracer. First use reads PIMHE_OBS ("1", "all" or
     * "trace" enable it); setEnabled() overrides afterwards.
     */
    static Tracer &global();

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Wall-clock microseconds since this tracer's construction. */
    double nowUs() const;

    /** Record a complete span; no-op when disabled. */
    void recordSpan(TraceSpan span);

    /** Record an instant event; no-op when disabled. */
    void recordInstant(TraceInstant instant);

    /** Record a counter sample; no-op when disabled. */
    void recordCounter(TraceCounter counter);

    /**
     * Route warn()/inform() through this tracer as instant events on
     * the host track (in addition to the default console output).
     * Call once; lives until process exit.
     */
    void captureLogging();

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    void writeChromeTrace(std::ostream &os) const;

    /** One JSON object per line; first line is a schema header. */
    void writeJsonl(std::ostream &os) const;

    /** Drop all recorded events (epoch is kept). */
    void clear();

    std::size_t spanCount() const;
    std::size_t counterCount() const;

  private:
    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> seq_{0};

    mutable std::mutex m_;
    std::vector<TraceSpan> spans_;
    std::vector<TraceInstant> instants_;
    std::vector<TraceCounter> counters_;
};

/**
 * RAII host-wall span: captures begin at construction, records at
 * destruction. Does nothing (and allocates nothing) when the tracer
 * is disabled at construction time.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::uint64_t tid, const char *name)
        : tracer_(tracer), active_(tracer.enabled())
    {
        if (active_) {
            span_.pid = Tracer::kHostPid;
            span_.tid = tid;
            span_.name = name;
            span_.beginUs = tracer.nowUs();
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    arg(const char *key, double value)
    {
        if (active_)
            span_.numArgs.emplace_back(key, value);
    }

    void
    arg(const char *key, std::string value)
    {
        if (active_)
            span_.strArgs.emplace_back(key, std::move(value));
    }

    ~ScopedSpan()
    {
        if (active_) {
            span_.endUs = tracer_.nowUs();
            tracer_.recordSpan(std::move(span_));
        }
    }

  private:
    Tracer &tracer_;
    bool active_;
    TraceSpan span_;
};

} // namespace obs
} // namespace pimhe

#endif // PIMHE_OBS_TRACE_H
