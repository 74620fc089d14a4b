/**
 * @file
 * In-memory span recorder of the end-to-end benchmark.
 *
 * Spans are recorded only from the benchmark's own code, around each
 * call into a library layer; the library itself is never traced. They
 * stay in memory while the benchmark runs and are written once at
 * exit, as a Chrome trace and as per-query self times. A layer's self
 * time is its span's duration minus the durations of its direct
 * children, so the self times of one query partition its root span.
 *
 * Single-threaded: every span opens and closes on the caller thread
 * (the pipeline worker of the async workload is never traced).
 */

#ifndef PIMHE_BENCH_E2E_SPANS_H
#define PIMHE_BENCH_E2E_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace e2e {

struct Span
{
    const char *name = ""; //!< static string: a layer name
    double startUs = 0;
    double endUs = 0;
    std::int32_t parent = -1; //!< index of the enclosing span, or -1
    std::uint32_t query = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder() : t0_(Clock::now()) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Recording is off until the measured phase starts. */
    void setOn(bool on) { on_ = on; }
    bool on() const { return on_; }
    void setQuery(std::uint32_t q) { query_ = q; }

    /** RAII span; a no-op while the recorder is off. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name)
            : rec_(rec.on_ ? &rec : nullptr)
        {
            if (rec_)
                idx_ = rec_->open(name);
        }
        ~Scope()
        {
            if (rec_)
                rec_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        std::int32_t idx_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span (µs), indexed like spans(). */
    std::vector<double>
    selfUs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].endUs - spans_[i].startUs;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    s.endUs - s.startUs;
        return self;
    }

    /** Every span lies inside its parent and belongs to its query. */
    bool
    wellNested() const
    {
        for (const Span &s : spans_) {
            if (s.endUs < s.startUs)
                return false;
            if (s.parent < 0)
                continue;
            const Span &p = spans_[static_cast<std::size_t>(s.parent)];
            if (s.startUs < p.startUs || s.endUs > p.endUs ||
                s.query != p.query)
                return false;
        }
        return stack_.empty();
    }

    /** Chrome trace-event document (loads in Perfetto). */
    pimhe::obs::JsonValue
    chromeTrace() const
    {
        using pimhe::obs::JsonValue;
        JsonValue events = JsonValue::makeArray();
        for (const Span &s : spans_) {
            JsonValue e = JsonValue::makeObject();
            e.set("name", JsonValue(s.name));
            e.set("ph", JsonValue("X"));
            e.set("ts", JsonValue(s.startUs));
            e.set("dur", JsonValue(s.endUs - s.startUs));
            e.set("pid", JsonValue(1));
            e.set("tid", JsonValue(1));
            JsonValue args = JsonValue::makeObject();
            args.set("query", JsonValue(std::uint64_t{s.query}));
            args.set("parent", JsonValue(static_cast<int>(s.parent)));
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        JsonValue doc = JsonValue::makeObject();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", JsonValue("ms"));
        return doc;
    }

  private:
    using Clock = std::chrono::steady_clock;

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    std::int32_t
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.query = query_;
        const auto idx = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(s);
        stack_.push_back(idx);
        spans_.back().startUs = nowUs();
        return idx;
    }

    void
    close(std::int32_t idx)
    {
        spans_[static_cast<std::size_t>(idx)].endUs = nowUs();
        stack_.pop_back();
    }

    bool on_ = false;
    std::uint32_t query_ = 0;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

} // namespace e2e

#endif // PIMHE_BENCH_E2E_SPANS_H
