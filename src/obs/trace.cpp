#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/logging.h"
#include "obs/json.h"

namespace pimhe {
namespace obs {

namespace {

bool
envEnablesTrace()
{
    const char *v = std::getenv("PIMHE_OBS");
    if (v == nullptr)
        return false;
    return std::strcmp(v, "1") == 0 || std::strcmp(v, "all") == 0 ||
           std::strcmp(v, "trace") == 0;
}

JsonValue
argsJson(const std::vector<std::pair<std::string, double>> &numArgs,
         const std::vector<std::pair<std::string, std::string>>
             &strArgs)
{
    JsonValue args = JsonValue::makeObject();
    for (const auto &kv : numArgs)
        args.set(kv.first, JsonValue(kv.second));
    for (const auto &kv : strArgs)
        args.set(kv.first, JsonValue(kv.second));
    return args;
}

/** One ready-to-emit Chrome event, pre-serialised. */
struct ChromeEvent
{
    double ts = 0;
    std::size_t order = 0; //!< per-(pid,tid) emission index
    std::string json;
};

JsonValue
baseEvent(const char *ph, int pid, std::uint64_t tid, double ts,
          const std::string &name)
{
    JsonValue e = JsonValue::makeObject();
    e.set("name", JsonValue(name));
    e.set("ph", JsonValue(ph));
    e.set("ts", JsonValue(ts));
    e.set("pid", JsonValue(pid));
    e.set("tid", JsonValue(static_cast<double>(tid)));
    e.set("cat",
          JsonValue(pid == Tracer::kModelPid ? "modelled" : "host"));
    return e;
}

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer &
Tracer::global()
{
    // Leaked for the same reason as Registry::global(): worker
    // threads may record during static destruction.
    static Tracer *g = [] {
        auto *t = new Tracer();
        t->setEnabled(envEnablesTrace());
        return t;
    }();
    return *g;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Tracer::recordSpan(TraceSpan span)
{
    if (!enabled())
        return;
    span.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(std::move(span));
}

void
Tracer::recordInstant(TraceInstant instant)
{
    if (!enabled())
        return;
    instant.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(m_);
    instants_.push_back(std::move(instant));
}

void
Tracer::recordCounter(TraceCounter counter)
{
    if (!enabled())
        return;
    counter.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(m_);
    counters_.push_back(std::move(counter));
}

void
Tracer::captureLogging()
{
    setLogSink([this](LogLevel level, const std::string &msg) {
        defaultLogSink(level, msg);
        TraceInstant i;
        i.pid = kHostPid;
        i.tid = 0;
        i.name = level == LogLevel::Warn ? "warn" : "inform";
        i.tsUs = nowUs();
        i.strArgs.emplace_back("message", msg);
        recordInstant(std::move(i));
    });
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(m_);
    spans_.clear();
    instants_.clear();
    counters_.clear();
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
}

std::size_t
Tracer::counterCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return counters_.size();
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    std::vector<TraceSpan> spans;
    std::vector<TraceInstant> instants;
    std::vector<TraceCounter> counters;
    {
        std::lock_guard<std::mutex> lock(m_);
        spans = spans_;
        instants = instants_;
        counters = counters_;
    }

    // Group spans per (pid, tid) so each lane can be emitted with
    // correct B/E nesting before the global merge.
    std::vector<std::pair<std::uint64_t, std::vector<TraceSpan>>>
        lanes;
    auto laneOf = [&](int pid,
                      std::uint64_t tid) -> std::vector<TraceSpan> & {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(pid) << 32) | tid;
        for (auto &l : lanes)
            if (l.first == key)
                return l.second;
        lanes.emplace_back(key, std::vector<TraceSpan>());
        return lanes.back().second;
    };
    for (auto &s : spans)
        laneOf(s.pid, s.tid).push_back(std::move(s));

    std::vector<ChromeEvent> events;

    for (auto &lane : lanes) {
        auto &ls = lane.second;
        // Outer spans first at equal begin so nesting opens outside-in.
        std::sort(ls.begin(), ls.end(),
                  [](const TraceSpan &a, const TraceSpan &b) {
                      if (a.beginUs != b.beginUs)
                          return a.beginUs < b.beginUs;
                      if (a.endUs != b.endUs)
                          return a.endUs > b.endUs;
                      return a.seq < b.seq;
                  });
        std::size_t order = 0;
        std::vector<const TraceSpan *> stack;
        auto emitEnd = [&](const TraceSpan &s) {
            JsonValue e = baseEvent("E", s.pid, s.tid, s.endUs, s.name);
            events.push_back({s.endUs, order++, e.dump()});
        };
        for (const TraceSpan &s : ls) {
            while (!stack.empty() &&
                   stack.back()->endUs <= s.beginUs) {
                emitEnd(*stack.back());
                stack.pop_back();
            }
            JsonValue e =
                baseEvent("B", s.pid, s.tid, s.beginUs, s.name);
            if (!s.numArgs.empty() || !s.strArgs.empty())
                e.set("args", argsJson(s.numArgs, s.strArgs));
            events.push_back({s.beginUs, order++, e.dump()});
            stack.push_back(&s);
        }
        while (!stack.empty()) {
            emitEnd(*stack.back());
            stack.pop_back();
        }
    }

    for (const TraceInstant &i : instants) {
        JsonValue e = baseEvent("i", i.pid, i.tid, i.tsUs, i.name);
        e.set("s", JsonValue("t"));
        if (!i.strArgs.empty())
            e.set("args", argsJson({}, i.strArgs));
        events.push_back({i.tsUs, static_cast<std::size_t>(-1),
                          e.dump()});
    }

    for (const TraceCounter &c : counters) {
        JsonValue e = baseEvent("C", c.pid, c.tid, c.tsUs, c.name);
        e.set("args", argsJson(c.values, {}));
        events.push_back({c.tsUs, static_cast<std::size_t>(-1),
                          e.dump()});
    }

    // Global timestamp sort; stable so each lane's nesting-correct
    // relative order survives timestamp ties.
    std::stable_sort(events.begin(), events.end(),
                     [](const ChromeEvent &a, const ChromeEvent &b) {
                         return a.ts < b.ts;
                     });

    os << "{\"schema\":\"pimhe-chrome-trace/v1\",";
    os << "\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto emitMeta = [&](int pid, const char *name) {
        JsonValue e = JsonValue::makeObject();
        e.set("name", JsonValue("process_name"));
        e.set("ph", JsonValue("M"));
        e.set("pid", JsonValue(pid));
        e.set("tid", JsonValue(0));
        JsonValue args = JsonValue::makeObject();
        args.set("name", JsonValue(name));
        e.set("args", std::move(args));
        os << (first ? "" : ",\n") << e.dump();
        first = false;
    };
    emitMeta(kHostPid, "host-wall");
    emitMeta(kModelPid, "modelled-time");
    auto emitThreadMeta = [&](int pid, std::uint64_t tid,
                              const char *name) {
        JsonValue e = JsonValue::makeObject();
        e.set("name", JsonValue("thread_name"));
        e.set("ph", JsonValue("M"));
        e.set("pid", JsonValue(pid));
        e.set("tid", JsonValue(static_cast<int>(tid)));
        JsonValue args = JsonValue::makeObject();
        args.set("name", JsonValue(name));
        e.set("args", std::move(args));
        os << (first ? "" : ",\n") << e.dump();
        first = false;
    };
    emitThreadMeta(kModelPid, 0, "serial-timeline");
    emitThreadMeta(kModelPid, kPipelineBusTid, "pipeline.bus");
    emitThreadMeta(kModelPid, kPipelineDpuTid, "pipeline.dpu");
    for (const ChromeEvent &e : events) {
        os << (first ? "" : ",\n") << e.json;
        first = false;
    }
    os << "\n]}\n";
}

void
Tracer::writeJsonl(std::ostream &os) const
{
    std::vector<TraceSpan> spans;
    std::vector<TraceInstant> instants;
    std::vector<TraceCounter> counters;
    {
        std::lock_guard<std::mutex> lock(m_);
        spans = spans_;
        instants = instants_;
        counters = counters_;
    }
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceSpan &a, const TraceSpan &b) {
                         if (a.beginUs != b.beginUs)
                             return a.beginUs < b.beginUs;
                         return a.seq < b.seq;
                     });

    JsonValue header = JsonValue::makeObject();
    header.set("kind", JsonValue("header"));
    header.set("schema", JsonValue("pimhe-trace-jsonl/v1"));
    os << header.dump() << "\n";

    for (const TraceSpan &s : spans) {
        JsonValue line = JsonValue::makeObject();
        line.set("kind", JsonValue("span"));
        line.set("track", JsonValue(s.pid == kModelPid ? "modelled"
                                                       : "host"));
        line.set("tid", JsonValue(static_cast<double>(s.tid)));
        line.set("name", JsonValue(s.name));
        line.set("begin_us", JsonValue(s.beginUs));
        line.set("dur_us", JsonValue(s.endUs - s.beginUs));
        if (!s.numArgs.empty() || !s.strArgs.empty())
            line.set("args", argsJson(s.numArgs, s.strArgs));
        os << line.dump() << "\n";
    }
    for (const TraceInstant &i : instants) {
        JsonValue line = JsonValue::makeObject();
        line.set("kind", JsonValue("instant"));
        line.set("track", JsonValue(i.pid == kModelPid ? "modelled"
                                                       : "host"));
        line.set("tid", JsonValue(static_cast<double>(i.tid)));
        line.set("name", JsonValue(i.name));
        line.set("ts_us", JsonValue(i.tsUs));
        if (!i.strArgs.empty())
            line.set("args", argsJson({}, i.strArgs));
        os << line.dump() << "\n";
    }
    for (const TraceCounter &c : counters) {
        JsonValue line = JsonValue::makeObject();
        line.set("kind", JsonValue("counter"));
        line.set("track", JsonValue(c.pid == kModelPid ? "modelled"
                                                       : "host"));
        line.set("tid", JsonValue(static_cast<double>(c.tid)));
        line.set("name", JsonValue(c.name));
        line.set("ts_us", JsonValue(c.tsUs));
        line.set("values", argsJson(c.values, {}));
        os << line.dump() << "\n";
    }
}

} // namespace obs
} // namespace pimhe
