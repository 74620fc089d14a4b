/**
 * @file
 * Observability-layer tests: JSON model round-trips, logging level
 * control and sink capture, metrics registry shard-and-merge
 * semantics, trace export schemas, and — most importantly — the
 * determinism contract: modelled simulator output must be
 * bit-identical whether instrumentation is on or off and at any host
 * thread count, and the disabled hot path must not allocate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "bigint/wide_int.h"
#include "pim/system.h"
#include "pimhe/kernels.h"

// ---------------------------------------------------------------------
// Counting global allocator: the overhead guard asserts the disabled
// instrumentation hot path performs zero heap allocations. Only the
// default-aligned forms are replaced; the aligned overloads keep their
// library pairing. The nothrow forms are replaced too, since the
// library frees what they return (std::stable_sort's buffer) through
// the replaced operator delete.
//
// GCC's -Wmismatched-new-delete cannot see that these replacements
// pair malloc with free by construction: at -O2 it inlines the
// replaced operator delete into standard-library call sites and
// flags free() against the *default* operator new. Replacing the
// global allocator this way is well-defined, so silence the false
// positive for this TU.
// ---------------------------------------------------------------------
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

static std::atomic<std::size_t> g_heapAllocs{0};

void *
operator new(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace pimhe {
namespace {

// ---------------------------------------------------------------------
// Shared workload: a small but real vector-multiply launch through
// DpuSet, the same shape the benches drive.
// ---------------------------------------------------------------------

pim::DpuSet
runVecMulWorkload(std::size_t host_threads, std::size_t dpus = 3,
                  unsigned tasklets = 8, std::size_t elems = 64)
{
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.hostThreads = host_threads;
    pim::DpuSet set(cfg, dpus);

    const auto kp = pimhe_kernels::standardVecParams(2, elems);
    const std::size_t arr_bytes = kp.mramB;

    std::vector<std::uint8_t> data(arr_bytes, 1);
    for (std::size_t d = 0; d < dpus; ++d) {
        set.copyToMram(d, kp.mramA, data);
        set.copyToMram(d, kp.mramB, data);
    }
    set.launch(tasklets, pimhe_kernels::makeVecMulModQKernel(kp));

    std::vector<std::uint8_t> out(arr_bytes);
    for (std::size_t d = 0; d < dpus; ++d)
        set.copyFromMram(d, kp.mramOut, out);
    return set;
}

/** RAII: force global obs state to a known setting, restore after. */
struct ObsState
{
    ObsState(bool metrics, bool trace)
    {
        obs::Registry::global().setEnabled(metrics);
        obs::Tracer::global().setEnabled(trace);
        obs::Registry::global().reset();
        obs::Tracer::global().clear();
    }

    ~ObsState()
    {
        obs::Registry::global().setEnabled(false);
        obs::Tracer::global().setEnabled(false);
        obs::Registry::global().reset();
        obs::Tracer::global().clear();
    }
};

// ---------------------------------------------------------------------
// JSON model
// ---------------------------------------------------------------------

TEST(Json, RoundTripPreservesStructure)
{
    obs::JsonValue doc = obs::JsonValue::makeObject();
    doc.set("name", obs::JsonValue("pim \"quoted\" \\ path\n"));
    doc.set("count", obs::JsonValue(std::uint64_t(1) << 53));
    doc.set("ratio", obs::JsonValue(0.25));
    doc.set("flag", obs::JsonValue(true));
    doc.set("nothing", obs::JsonValue());
    obs::JsonValue arr = obs::JsonValue::makeArray();
    arr.push(obs::JsonValue(1));
    arr.push(obs::JsonValue("two"));
    doc.set("items", std::move(arr));

    for (const int indent : {0, 2}) {
        const auto parsed = obs::parseJson(doc.dump(indent));
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const obs::JsonValue &v = parsed.value;
        EXPECT_EQ(v.find("name")->asString(),
                  "pim \"quoted\" \\ path\n");
        EXPECT_EQ(v.find("count")->asNumber(),
                  static_cast<double>(std::uint64_t(1) << 53));
        EXPECT_DOUBLE_EQ(v.find("ratio")->asNumber(), 0.25);
        EXPECT_TRUE(v.find("flag")->asBool());
        EXPECT_TRUE(v.find("nothing")->isNull());
        ASSERT_EQ(v.find("items")->items().size(), 2u);
        EXPECT_EQ(v.find("items")->items()[1].asString(), "two");
    }
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{\"a\":1} trailing", "[1 2]"}) {
        const auto r = obs::parseJson(bad);
        EXPECT_FALSE(r.ok) << "accepted: " << bad;
        EXPECT_FALSE(r.error.empty());
    }
}

// ---------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------

TEST(Logging, LevelFiltersBeforeSink)
{
    std::vector<std::pair<LogLevel, std::string>> seen;
    setLogSink([&](LogLevel lvl, const std::string &msg) {
        seen.emplace_back(lvl, msg);
    });

    setLogLevel(LogLevel::Quiet);
    warn("dropped warn");
    inform("dropped info");
    EXPECT_TRUE(seen.empty());

    setLogLevel(LogLevel::Warn);
    warn("kept warn");
    inform("still dropped");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].second, "kept warn");
    EXPECT_EQ(seen[0].first, LogLevel::Warn);

    setLogLevel(LogLevel::Inform);
    inform("kept info ", 42);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].second, "kept info 42");

    setLogSink({});
    setLogLevel(LogLevel::Inform);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, CountersMergeAcrossThreads)
{
    obs::Registry reg;
    reg.setEnabled(true);
    obs::Counter c = reg.counter("test.adds");

    constexpr int kThreads = 8, kAdds = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add(1);
        });
    for (auto &w : workers)
        w.join();

    std::uint64_t total = 0;
    ASSERT_TRUE(reg.scrape().counterValue("test.adds", &total));
    EXPECT_EQ(total, std::uint64_t(kThreads) * kAdds);
}

TEST(Metrics, DisabledRegistryRecordsNothing)
{
    obs::Registry reg;
    obs::Counter c = reg.counter("test.noop");
    obs::Histogram h = reg.histogram("test.noop_ms");
    c.add(5);
    h.observe(1.0);
    reg.setEnabled(true);
    const obs::Snapshot snap = reg.scrape();
    std::uint64_t v = 99;
    ASSERT_TRUE(snap.counterValue("test.noop", &v));
    EXPECT_EQ(v, 0u);
    obs::HistogramStat hs;
    ASSERT_TRUE(snap.histogramStat("test.noop_ms", &hs));
    EXPECT_EQ(hs.count, 0u);
}

TEST(Metrics, HistogramStatsFromUnsortedObservations)
{
    obs::Registry reg;
    reg.setEnabled(true);
    obs::Histogram h = reg.histogram("test.lat_ms");
    for (const double v : {5.0, 1.0, 4.0, 2.0, 3.0})
        h.observe(v);
    obs::HistogramStat hs;
    ASSERT_TRUE(reg.scrape().histogramStat("test.lat_ms", &hs));
    EXPECT_EQ(hs.count, 5u);
    EXPECT_DOUBLE_EQ(hs.sum, 15.0);
    EXPECT_DOUBLE_EQ(hs.min, 1.0);
    EXPECT_DOUBLE_EQ(hs.max, 5.0);
    EXPECT_DOUBLE_EQ(hs.p50, 3.0);
    EXPECT_DOUBLE_EQ(hs.p95, 5.0);
}

TEST(Metrics, ResetZeroesButKeepsSlots)
{
    obs::Registry reg;
    reg.setEnabled(true);
    obs::Counter c = reg.counter("test.reset");
    reg.gauge("test.gauge").set(7.0);
    c.add(3);
    reg.reset();
    const obs::Snapshot snap = reg.scrape();
    std::uint64_t v = 99;
    ASSERT_TRUE(snap.counterValue("test.reset", &v));
    EXPECT_EQ(v, 0u);
    // The handle stays valid after reset.
    c.add(2);
    ASSERT_TRUE(reg.scrape().counterValue("test.reset", &v));
    EXPECT_EQ(v, 2u);
}

TEST(Metrics, ModelledEqualsIgnoresHostMetrics)
{
    obs::Registry a, b;
    a.setEnabled(true);
    b.setEnabled(true);
    a.counter("pim.launch.count").add(1);
    b.counter("pim.launch.count").add(1);
    a.histogram("host.launch.wall_ms").observe(1.0);
    b.histogram("host.launch.wall_ms").observe(250.0);

    std::string why;
    EXPECT_TRUE(a.scrape().modelledEquals(b.scrape(), &why)) << why;

    b.counter("pim.launch.count").add(1);
    EXPECT_FALSE(a.scrape().modelledEquals(b.scrape(), &why));
    EXPECT_NE(why.find("pim.launch.count"), std::string::npos);
}

// ---------------------------------------------------------------------
// Trace export + validators
// ---------------------------------------------------------------------

TEST(Trace, RealRunExportsValidChromeTraceAndJsonl)
{
    ObsState state(/*metrics=*/true, /*trace=*/true);
    runVecMulWorkload(1);

    obs::Tracer &tracer = obs::Tracer::global();
    EXPECT_GT(tracer.spanCount(), 0u);

    std::ostringstream chrome;
    tracer.writeChromeTrace(chrome);
    std::string err;
    EXPECT_TRUE(obs::validateChromeTraceJson(chrome.str(), &err))
        << err;

    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    EXPECT_TRUE(obs::validateTraceJsonl(jsonl.str(), &err)) << err;

    // The modelled track must contain the launch phases.
    EXPECT_NE(chrome.str().find("\"launch\""), std::string::npos);
    EXPECT_NE(chrome.str().find("\"kernel\""), std::string::npos);
    EXPECT_NE(chrome.str().find("\"dpu.run\""), std::string::npos);
}

TEST(Trace, MetricsSnapshotJsonValidates)
{
    ObsState state(/*metrics=*/true, /*trace=*/false);
    runVecMulWorkload(1);
    const std::string json =
        obs::snapshotToJson(obs::Registry::global().scrape());
    std::string err;
    EXPECT_TRUE(obs::validateMetricsJson(json, &err)) << err;
}

TEST(Trace, ValidatorRejectsBrokenTraces)
{
    std::string err;
    // Unbalanced B without E.
    const std::string unbalanced = R"({"schema":"pimhe-chrome-trace/v1",
        "traceEvents":[
          {"name":"a","ph":"B","pid":1,"tid":0,"ts":1}]})";
    EXPECT_FALSE(obs::validateChromeTraceJson(unbalanced, &err));

    // E name mismatching its B.
    const std::string mismatched = R"({"schema":"pimhe-chrome-trace/v1",
        "traceEvents":[
          {"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
          {"name":"b","ph":"E","pid":1,"tid":0,"ts":2}]})";
    EXPECT_FALSE(obs::validateChromeTraceJson(mismatched, &err));

    // Time going backwards.
    const std::string backwards = R"({"schema":"pimhe-chrome-trace/v1",
        "traceEvents":[
          {"name":"a","ph":"B","pid":1,"tid":0,"ts":5},
          {"name":"a","ph":"E","pid":1,"tid":0,"ts":4}]})";
    EXPECT_FALSE(obs::validateChromeTraceJson(backwards, &err));

    // Missing schema tag.
    const std::string untagged =
        R"({"traceEvents":[
          {"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
          {"name":"a","ph":"E","pid":1,"tid":0,"ts":2}]})";
    EXPECT_FALSE(obs::validateChromeTraceJson(untagged, &err));
}

TEST(Trace, BenchValidatorAcceptsAndRejects)
{
    std::string err;
    const std::string good = R"({
      "schema": "pimhe-bench/v1",
      "bench": "fig1a_vector_add", "experiment": "F1a",
      "title": "t", "repetitions": 1, "warmup": 0,
      "tables": [{"header": ["a", "b"], "rows": [["1", "2"]]}],
      "series": {"pim_ms": {"values": [1.0, 2.0], "p50": 1.0,
                 "p95": 2.0, "min": 1.0, "max": 2.0, "mean": 1.5}},
      "breakdowns": {},
      "band_checks": [{"label": "x", "value": 1.0, "lo": 0.5,
                       "hi": 2.0, "pass": true}]})";
    EXPECT_TRUE(obs::validateBenchJson(good, &err)) << err;

    // Row width disagreeing with the header.
    std::string bad_rows = good;
    bad_rows.replace(bad_rows.find("[[\"1\", \"2\"]]"),
                     std::string("[[\"1\", \"2\"]]").size(),
                     "[[\"1\"]]");
    EXPECT_FALSE(obs::validateBenchJson(bad_rows, &err));

    // Series with an empty sample vector.
    std::string bad_series = good;
    bad_series.replace(bad_series.find("[1.0, 2.0]"),
                       std::string("[1.0, 2.0]").size(), "[]");
    EXPECT_FALSE(obs::validateBenchJson(bad_series, &err));

    // Wrong schema tag.
    std::string bad_schema = good;
    bad_schema.replace(bad_schema.find("pimhe-bench/v1"),
                       std::string("pimhe-bench/v1").size(),
                       "pimhe-bench/v0");
    EXPECT_FALSE(obs::validateBenchJson(bad_schema, &err));
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

TEST(Determinism, MetricsIdenticalAtAnyHostThreadCount)
{
    ObsState state(/*metrics=*/true, /*trace=*/true);
    obs::Registry &reg = obs::Registry::global();

    runVecMulWorkload(1);
    const obs::Snapshot base = reg.scrape();

    for (const std::size_t threads : {8ul, 16ul}) {
        reg.reset();
        obs::Tracer::global().clear();
        runVecMulWorkload(threads);
        std::string why;
        EXPECT_TRUE(base.modelledEquals(reg.scrape(), &why))
            << "at " << threads << " host threads: " << why;
    }
}

TEST(Determinism, LaunchStatsIdenticalWithObservabilityOnOrOff)
{
    pim::LaunchStats off;
    {
        ObsState state(/*metrics=*/false, /*trace=*/false);
        off = runVecMulWorkload(4).lastLaunch();
    }
    pim::LaunchStats on;
    {
        ObsState state(/*metrics=*/true, /*trace=*/true);
        on = runVecMulWorkload(4).lastLaunch();
    }
    ASSERT_EQ(on.dpus.size(), off.dpus.size());
    for (std::size_t d = 0; d < on.dpus.size(); ++d) {
        EXPECT_EQ(on.dpus[d].cycles, off.dpus[d].cycles);
        EXPECT_EQ(on.dpus[d].totalInstructions(),
                  off.dpus[d].totalInstructions());
    }
    EXPECT_EQ(on.maxCycles, off.maxCycles);
    // Bit-exact doubles: the instrumentation must not perturb the
    // model, so plain equality is the right comparison.
    EXPECT_EQ(on.kernelMs, off.kernelMs);
    EXPECT_EQ(on.hostToDpuMs, off.hostToDpuMs);
    EXPECT_EQ(on.dpuToHostMs, off.dpuToHostMs);
    EXPECT_EQ(on.launchOverheadMs, off.launchOverheadMs);
}

TEST(Determinism, TotalModeledMsEqualsLaunchSum)
{
    ObsState state(/*metrics=*/true, /*trace=*/true);
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = 2;
    pim::DpuSet set(cfg, 2);

    const auto kp = pimhe_kernels::standardVecParams(1, 32);
    const std::size_t arr_bytes = kp.mramB;

    std::vector<std::uint8_t> buf(arr_bytes, 1);
    // A pre-launch read-back charges preLaunchDownloadMs.
    set.copyFromMram(0, kp.mramOut, buf);
    EXPECT_GT(set.preLaunchDownloadMs(), 0.0);

    for (int round = 0; round < 3; ++round) {
        for (std::size_t d = 0; d < 2; ++d) {
            set.copyToMram(d, kp.mramA, buf);
            set.copyToMram(d, kp.mramB, buf);
        }
        set.launch(4, pimhe_kernels::makeVecAddModQKernel(kp));
        for (std::size_t d = 0; d < 2; ++d)
            set.copyFromMram(d, kp.mramOut, buf);
    }

    ASSERT_EQ(set.launches().size(), 3u);
    double expect = set.preLaunchDownloadMs();
    for (const auto &l : set.launches())
        expect += l.totalMs();
    EXPECT_DOUBLE_EQ(set.totalModeledMs(), expect);
}

// ---------------------------------------------------------------------
// Overhead guard
// ---------------------------------------------------------------------

TEST(Overhead, DisabledInstrumentationDoesNotAllocate)
{
    obs::Registry reg; // stays disabled
    obs::Counter c = reg.counter("test.hot");
    obs::Histogram h = reg.histogram("test.hot_ms");
    obs::Tracer &tracer = obs::Tracer::global();
    ASSERT_FALSE(tracer.enabled());

    const std::size_t before =
        g_heapAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        c.add(1);
        h.observe(1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        obs::ScopedSpan span(tracer, 0, "hot");
        span.arg("k", 1.0);
    }
    const std::size_t after =
        g_heapAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "disabled instrumentation allocated on the hot path";
}

} // namespace
} // namespace pimhe
