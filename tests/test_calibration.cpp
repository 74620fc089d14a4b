/**
 * @file
 * Calibration-observatory tests: attribution-record aggregation and
 * the drift gate (including the stale-fit negative test through a
 * real runPlan), the bench baseline-vs-fresh diff with its noise-band
 * ratio check and injected-slowdown negative test, shared artifact
 * emission (write-then-revalidate, provenance stamping), Chrome
 * counter-track export, JSON string escaping in span args, empty
 * tracer exports, and the percentile edge cases the error summaries
 * lean on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/he_dag.h"
#include "common/stats.h"
#include "obs/artifact.h"
#include "obs/benchdiff.h"
#include "obs/calib.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
namespace an = pimhe::analysis;

// ---------------------------------------------------------------------
// common/stats.h percentile edge cases (the calibration summaries
// reduce through these).
// ---------------------------------------------------------------------

TEST(Stats, SingleSamplePercentilesCollapse)
{
    const std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(p50(one), 42.0);
    EXPECT_DOUBLE_EQ(p95(one), 42.0);
}

TEST(Stats, DuplicateValuesKeepNearestRankStable)
{
    const std::vector<double> dup = {7.0, 7.0, 7.0, 7.0};
    EXPECT_DOUBLE_EQ(p50(dup), 7.0);
    EXPECT_DOUBLE_EQ(p95(dup), 7.0);

    // Nearest-rank on a sorted run with one outlier: p50 stays on the
    // plateau, p95 lands on the outlier only at the right rank.
    const std::vector<double> run = {1.0, 1.0, 1.0, 1.0, 1.0,
                                     1.0, 1.0, 1.0, 1.0, 9.0};
    EXPECT_DOUBLE_EQ(p50(run), 1.0);
    EXPECT_DOUBLE_EQ(p95(run), 9.0);
}

// ---------------------------------------------------------------------
// Calibration aggregation.
// ---------------------------------------------------------------------

obs::AttributionRecord
record(const std::string &kernel, double predMs, double measMs,
       double predBytes = 100, double measBytes = 100,
       double predLaunches = 1, double measLaunches = 1)
{
    obs::AttributionRecord r;
    r.kernel = kernel;
    r.backend = "pim-staged";
    r.subject = "test";
    r.predictedMs = predMs;
    r.measuredMs = measMs;
    r.predictedBusBytes = predBytes;
    r.measuredBusBytes = measBytes;
    r.predictedLaunches = predLaunches;
    r.measuredLaunches = measLaunches;
    return r;
}

TEST(Calibration, ZeroRecordsPassVacuously)
{
    obs::Calibration calib;
    calib.setEnabled(true);
    const obs::CalibVerdict v = calib.aggregate(0.25);
    EXPECT_EQ(v.records, 0u);
    EXPECT_TRUE(v.pass);
    EXPECT_TRUE(v.kernels.empty());

    // The empty report still validates against the schema.
    std::string err;
    EXPECT_TRUE(
        obs::validateCalibJson(calib.toJson("empty", 0.25), &err))
        << err;
}

TEST(Calibration, DisabledRecordIsDropped)
{
    obs::Calibration calib;
    calib.setEnabled(false);
    calib.record(record("Add", 1.0, 1.0));
    EXPECT_EQ(calib.recordCount(), 0u);
}

TEST(Calibration, RelativeErrorDistributionAndBand)
{
    obs::Calibration calib;
    calib.setEnabled(true);
    // Three Add samples at 0%, 10% and 50% ms error: p50 = 10%, max =
    // 50%. Nearest-rank p95 of 3 samples is the max.
    calib.record(record("Add", 1.00, 1.0));
    calib.record(record("Add", 1.10, 1.0));
    calib.record(record("Add", 1.50, 1.0));

    const obs::CalibVerdict tight = calib.aggregate(0.25);
    ASSERT_EQ(tight.kernels.size(), 1u);
    const obs::CalibKernelStats &k = tight.kernels.front();
    EXPECT_EQ(k.kernel, "Add");
    EXPECT_EQ(k.samples, 3u);
    EXPECT_NEAR(k.msRelErr.p50, 0.10, 1e-12);
    EXPECT_NEAR(k.msRelErr.p95, 0.50, 1e-12);
    EXPECT_NEAR(k.msRelErr.max, 0.50, 1e-12);
    EXPECT_FALSE(k.pass); // p95 50% > 25% band
    EXPECT_FALSE(tight.pass);

    const obs::CalibVerdict loose = calib.aggregate(0.60);
    EXPECT_TRUE(loose.kernels.front().pass);
    EXPECT_TRUE(loose.pass);
}

TEST(Calibration, LaunchCountMismatchFailsRegardlessOfBand)
{
    obs::Calibration calib;
    calib.setEnabled(true);
    calib.record(record("Mul", 1.0, 1.0, 100, 100,
                        /*predLaunches=*/2, /*measLaunches=*/3));
    const obs::CalibVerdict v = calib.aggregate(/*band=*/10.0);
    ASSERT_EQ(v.kernels.size(), 1u);
    EXPECT_EQ(v.kernels.front().launchCountMismatch, 1.0);
    EXPECT_FALSE(v.kernels.front().pass);
    EXPECT_FALSE(v.pass);
}

TEST(Calibration, ReportValidatesAndCarriesKernels)
{
    obs::Calibration calib;
    calib.setEnabled(true);
    calib.record(record("Add", 1.0, 1.0));
    calib.record(record("Reduce", 2.0, 2.1));
    const std::string json = calib.toJson("unit", 0.25);
    std::string err;
    EXPECT_TRUE(obs::validateCalibJson(json, &err)) << err;
    EXPECT_NE(json.find("pimhe-calib/v1"), std::string::npos);
    EXPECT_NE(json.find("\"Add\""), std::string::npos);
    EXPECT_NE(json.find("\"Reduce\""), std::string::npos);

    // Schema sanity: a truncated document must be rejected.
    EXPECT_FALSE(obs::validateCalibJson("{\"schema\":\"x\"}", &err));
}

// ---------------------------------------------------------------------
// End-to-end attribution through runPlan: honest fits calibrate
// inside a generous band; stale fits must trip the gate.
// ---------------------------------------------------------------------

pim::SystemConfig
calibSystem(std::size_t dpus)
{
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true; // certifyPlan feeds the records
    return cfg;
}

an::HeDag
mixedPlan()
{
    an::HeDag dag;
    const auto a = dag.input("a");
    const auto b = dag.input("b");
    const auto c = dag.input("c");
    const auto s = dag.add(a, b);
    dag.output(dag.add(s, c));
    dag.output(dag.reduce({a, b, c}));
    return dag;
}

TEST(CalibrationGate, HonestRunProducesRecordsInsideBand)
{
    obs::Calibration &calib = obs::Calibration::global();
    calib.setEnabled(true);
    calib.clear();

    BfvHarness<2> h(32);
    PimHeSystem<2> sys(h.ctx, calibSystem(2), 2, 8);
    const an::HeDag dag = mixedPlan();
    const std::vector<Ciphertext<2>> ins = {
        h.encryptScalar(3), h.encryptScalar(4), h.encryptScalar(5)};
    const auto outs = sys.runPlan(dag, ins);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(h.decryptScalar(outs[0]), (3ull + 4 + 5) % h.params.t);

    EXPECT_GT(calib.recordCount(), 0u);
    const obs::CalibVerdict v = calib.aggregate(/*band=*/0.5);
    EXPECT_TRUE(v.pass) << calib.toJson("honest", 0.5);
    // Both PIM backends must be represented: staged adds and the
    // resident tree reduction.
    bool sawStaged = false, sawResident = false;
    for (const auto &k : v.kernels) {
        sawStaged |= k.backend == "pim-staged";
        sawResident |= k.backend == "pim-resident";
    }
    EXPECT_TRUE(sawStaged);
    EXPECT_TRUE(sawResident);

    // Attribution reads a running kernel-cycle total; it must equal
    // the history sum it replaced.
    double cycles = 0;
    for (const pim::LaunchStats &l : sys.dpuSet().launches())
        cycles += l.maxCycles;
    EXPECT_EQ(sys.dpuSet().totalKernelCycles(), cycles);

    calib.clear();
    calib.setEnabled(false);
}

TEST(CalibrationGate, StaleFitsTripTheGate)
{
    obs::Calibration &calib = obs::Calibration::global();
    calib.setEnabled(true);
    calib.clear();

    BfvHarness<2> h(32);
    PimHeSystem<2> sys(h.ctx, calibSystem(2), 2, 8);
    // Model probed on kernels that have since gotten 200x faster:
    // every cycle prediction is wildly stale while the bus-byte and
    // launch-count predictions stay exact.
    sys.injectStaleFits(200.0);
    const an::HeDag dag = mixedPlan();
    const std::vector<Ciphertext<2>> ins = {
        h.encryptScalar(3), h.encryptScalar(4), h.encryptScalar(5)};
    (void)sys.runPlan(dag, ins);

    ASSERT_GT(calib.recordCount(), 0u);
    const obs::CalibVerdict v = calib.aggregate(/*band=*/0.5);
    EXPECT_FALSE(v.pass) << calib.toJson("stale", 0.5);
    // The failure is ms drift, not byte/launch bookkeeping.
    for (const auto &k : v.kernels) {
        EXPECT_LE(k.bytesRelErrMax, 0.5) << k.kernel;
        EXPECT_EQ(k.launchCountMismatch, 0.0) << k.kernel;
    }

    calib.clear();
    calib.setEnabled(false);
}

// ---------------------------------------------------------------------
// Bench baseline-vs-fresh diff.
// ---------------------------------------------------------------------

std::string
benchDoc(const std::string &bench, double p50v, double p95v,
         bool withHostSeries = false)
{
    std::ostringstream os;
    os << "{\"schema\":\"pimhe-bench/v1\",\"bench\":\"" << bench
       << "\",\"experiment\":\"T\",\"title\":\"t\",\"repetitions\":1,"
          "\"warmup\":0,\"tables\":[],\"series\":{\"pim_ms\":{"
          "\"values\":["
       << p50v << "],\"p50\":" << p50v << ",\"p95\":" << p95v
       << ",\"min\":" << p50v << ",\"max\":" << p95v
       << ",\"mean\":" << p50v << "}";
    if (withHostSeries)
        os << ",\"host_wall_ms\":{\"values\":[9],\"p50\":9,"
              "\"p95\":9,\"min\":9,\"max\":9,\"mean\":9}";
    os << "},\"breakdowns\":{},\"band_checks\":[]}";
    return os.str();
}

TEST(BenchDiff, IdenticalReportsPass)
{
    obs::BenchDiffResult r;
    std::string err;
    const std::string doc = benchDoc("b", 10.0, 10.5);
    ASSERT_TRUE(obs::compareBenchReports(doc, doc, {}, &r, &err))
        << err;
    EXPECT_TRUE(r.pass);
    ASSERT_EQ(r.series.size(), 1u);
    EXPECT_DOUBLE_EQ(r.series.front().ratio, 1.0);

    const std::string json =
        obs::benchDiffToJson(r, obs::RunMeta{"sha", "ts", "cfg"});
    EXPECT_TRUE(obs::validateBenchDiffJson(json, &err)) << err;
}

TEST(BenchDiff, InjectedSlowdownTripsTheGate)
{
    obs::BenchDiffResult r;
    std::string err;
    const std::string doc = benchDoc("b", 10.0, 10.5);
    obs::BenchDiffOptions opts;
    opts.injectFactor = 1.5; // 50 % slowdown against a 10 % band
    ASSERT_TRUE(obs::compareBenchReports(doc, doc, opts, &r, &err))
        << err;
    EXPECT_FALSE(r.pass);
    EXPECT_NEAR(r.series.front().ratio, 1.5, 1e-12);
}

TEST(BenchDiff, TwoSidedCheckCatchesSpeedupsToo)
{
    // A modelled series got 2x faster: drift, must be re-baselined
    // consciously rather than slide through.
    obs::BenchDiffResult r;
    std::string err;
    ASSERT_TRUE(obs::compareBenchReports(
        benchDoc("b", 10.0, 10.0), benchDoc("b", 5.0, 5.0), {}, &r,
        &err))
        << err;
    EXPECT_FALSE(r.pass);
}

TEST(BenchDiff, NoisyBaselineWidensTheBand)
{
    // Baseline p95/p50 = 1.4: the effective band is 40 %, so a 20 %
    // drift that would fail the configured 10 % band passes.
    obs::BenchDiffResult r;
    std::string err;
    ASSERT_TRUE(obs::compareBenchReports(
        benchDoc("b", 10.0, 14.0), benchDoc("b", 12.0, 12.0), {}, &r,
        &err))
        << err;
    EXPECT_TRUE(r.pass);
    EXPECT_NEAR(r.series.front().band, 0.4, 1e-12);
}

TEST(BenchDiff, HostSeriesAreInformationalOnly)
{
    // The host wall series regresses 10x; the gate ignores it.
    obs::BenchDiffResult r;
    std::string err;
    std::string base = benchDoc("b", 10.0, 10.0, true);
    std::string fresh = base;
    const auto pos = fresh.find("\"host_wall_ms\"");
    ASSERT_NE(pos, std::string::npos);
    // Rewrite the host series p50 from 9 to 90.
    const std::string needle = "\"p50\":9";
    fresh.replace(fresh.find(needle, pos), needle.size(),
                  "\"p50\":90");
    ASSERT_TRUE(
        obs::compareBenchReports(base, fresh, {}, &r, &err))
        << err;
    EXPECT_TRUE(r.pass);
    bool sawInfo = false;
    for (const auto &s : r.series)
        if (s.name == "host_wall_ms") {
            sawInfo = true;
            EXPECT_TRUE(s.informational);
        }
    EXPECT_TRUE(sawInfo);
}

TEST(BenchDiff, MissingSeriesFailsAndMismatchedBenchErrors)
{
    obs::BenchDiffResult r;
    std::string err;
    // Fresh report lost the gated series: coverage loss, fail.
    std::string fresh = benchDoc("b", 10.0, 10.0);
    const std::string needle = "\"pim_ms\"";
    fresh.replace(fresh.find(needle), needle.size(),
                  "\"pim_other\"");
    ASSERT_TRUE(obs::compareBenchReports(benchDoc("b", 10.0, 10.0),
                                         fresh, {}, &r, &err))
        << err;
    EXPECT_FALSE(r.pass);
    EXPECT_FALSE(r.notes.empty());

    // Different bench names are a usage error, not a verdict.
    EXPECT_FALSE(obs::compareBenchReports(benchDoc("a", 1.0, 1.0),
                                          benchDoc("b", 1.0, 1.0), {},
                                          &r, &err));
}

// ---------------------------------------------------------------------
// Shared artifact emission.
// ---------------------------------------------------------------------

TEST(Artifact, JoinPathHandlesDirsAndDefaults)
{
    EXPECT_EQ(obs::joinPath("", "f.json"), "f.json");
    EXPECT_EQ(obs::joinPath(".", "f.json"), "f.json");
    EXPECT_EQ(obs::joinPath("out", "f.json"), "out/f.json");
    EXPECT_EQ(obs::joinPath("out/", "f.json"), "out/f.json");
}

TEST(Artifact, EmitRevalidatesWrittenBytes)
{
    const std::string path =
        ::testing::TempDir() + "calib_emit_test.json";
    std::string err;
    // A document that fails its validator must be reported even
    // though the write succeeded.
    EXPECT_FALSE(obs::emitArtifact(path, "{\"schema\":\"wrong\"}",
                                   &obs::validateCalibJson, &err));
    EXPECT_FALSE(err.empty());

    obs::Calibration calib;
    calib.setEnabled(true);
    EXPECT_TRUE(obs::emitArtifact(path, calib.toJson("t", 0.25),
                                  &obs::validateCalibJson, &err))
        << err;
    // Null validator: plain write.
    EXPECT_TRUE(obs::emitArtifact(path, "anything", nullptr, &err));
}

TEST(Artifact, RunMetaHonoursShaOverride)
{
    ::setenv("PIMHE_GIT_SHA", "cafe1234", 1);
    const obs::RunMeta meta = obs::currentRunMeta("cfg=1");
    ::unsetenv("PIMHE_GIT_SHA");
    EXPECT_EQ(meta.gitSha, "cafe1234");
    EXPECT_EQ(meta.config, "cfg=1");
    // ISO-8601 UTC shape: YYYY-MM-DDTHH:MM:SSZ.
    ASSERT_EQ(meta.timestampUtc.size(), 20u);
    EXPECT_EQ(meta.timestampUtc[10], 'T');
    EXPECT_EQ(meta.timestampUtc.back(), 'Z');
}

// ---------------------------------------------------------------------
// Trace export edge cases: counters, escaping, empty tracer.
// ---------------------------------------------------------------------

TEST(TraceExport, CounterTracksExportAndValidate)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);

    obs::TraceSpan span;
    span.pid = obs::Tracer::kModelPid;
    span.tid = 0;
    span.name = "launch";
    span.beginUs = 1.0;
    span.endUs = 5.0;
    tracer.recordSpan(std::move(span));

    obs::TraceCounter c;
    c.pid = obs::Tracer::kModelPid;
    c.tid = 0;
    c.name = "pim.bus";
    c.tsUs = 3.0;
    c.values = {{"up_bytes", 1024.0}, {"down_bytes", 256.0}};
    tracer.recordCounter(std::move(c));
    EXPECT_EQ(tracer.counterCount(), 1u);

    std::ostringstream chrome;
    tracer.writeChromeTrace(chrome);
    std::string err;
    EXPECT_TRUE(obs::validateChromeTraceJson(chrome.str(), &err))
        << err;
    EXPECT_NE(chrome.str().find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(chrome.str().find("up_bytes"), std::string::npos);

    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    EXPECT_TRUE(obs::validateTraceJsonl(jsonl.str(), &err)) << err;
    EXPECT_NE(jsonl.str().find("\"counter\""), std::string::npos);
}

TEST(TraceExport, SpanArgStringsAreEscaped)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    obs::TraceSpan span;
    span.pid = obs::Tracer::kHostPid;
    span.tid = 0;
    span.name = "weird";
    span.beginUs = 0.0;
    span.endUs = 1.0;
    span.strArgs = {
        {"quote", "say \"hi\""},
        {"backslash", "a\\b"},
        {"control", std::string("line1\nline2\ttab") + '\x01'}};
    tracer.recordSpan(std::move(span));

    std::ostringstream chrome;
    tracer.writeChromeTrace(chrome);
    std::string err;
    EXPECT_TRUE(obs::validateChromeTraceJson(chrome.str(), &err))
        << err;
    EXPECT_NE(chrome.str().find("say \\\"hi\\\""), std::string::npos);
    EXPECT_NE(chrome.str().find("a\\\\b"), std::string::npos);
    EXPECT_NE(chrome.str().find("\\n"), std::string::npos);
    EXPECT_NE(chrome.str().find("\\u0001"), std::string::npos);

    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    EXPECT_TRUE(obs::validateTraceJsonl(jsonl.str(), &err)) << err;
}

TEST(TraceExport, EmptyTracerExportsAreWellFormedButRejected)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);

    std::ostringstream chrome;
    tracer.writeChromeTrace(chrome);
    // Parseable, carries the schema tag, but a span-free trace is a
    // broken export from every producer in this repo — the validator
    // must say so explicitly.
    std::string err;
    EXPECT_FALSE(obs::validateChromeTraceJson(chrome.str(), &err));
    EXPECT_NE(err.find("no B/E"), std::string::npos) << err;

    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    EXPECT_TRUE(obs::validateTraceJsonl(jsonl.str(), &err)) << err;
}

} // namespace
} // namespace pimhe
