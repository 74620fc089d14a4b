/**
 * @file
 * pim_profile — observability driver for the simulated PIM-HE stack.
 *
 * Runs BFV homomorphic vector add and/or coefficient-wise multiply
 * through PimHeSystem with the metrics registry and the trace
 * recorder armed, then emits every artifact the observability layer
 * knows how to produce:
 *
 *  - console scrape of the metrics snapshot (common/table),
 *  - pim_profile_metrics.json   ("pimhe-metrics/v1"),
 *  - pim_profile_trace.json     ("pimhe-chrome-trace/v1",
 *                                loads in Perfetto / chrome://tracing),
 *  - pim_profile_trace.jsonl    ("pimhe-trace-jsonl/v1").
 *
 * Every emitted file is re-validated with the obs schema validators
 * before exit, so a non-zero status means a malformed artifact —
 * which is what CI's `pim_profile --smoke` run checks.
 */

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bfv/context.h"
#include "bfv/encryptor.h"
#include "bfv/keys.h"
#include "bfv/params.h"
#include "common/cli.h"
#include "common/rng.h"
#include "obs/artifact.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pimhe/orchestrator.h"

namespace {

using namespace pimhe;

constexpr std::size_t kLimbs = 4; // 128-bit width, the paper's headline

struct ProfileConfig
{
    std::string op = "both"; // add | mul | both
    std::string outDir = ".";
    std::size_t cts = 8;
    std::size_t degree = 64;
    std::size_t dpus = 4;
    unsigned tasklets = 12;
};

/** Emit via the shared write-then-revalidate hook (obs/artifact.h). */
bool
emit(const std::string &path, const std::string &content,
     obs::ArtifactValidator validate)
{
    std::string err;
    if (!obs::emitArtifact(path, content, validate, &err)) {
        std::cerr << "pim_profile: " << err << "\n";
        return false;
    }
    std::cout << "wrote " << path << " (" << content.size()
              << " bytes, schema OK)\n";
    return true;
}

/** What both modes run on: BFV keys at the requested (reduced) ring
 *  degree, `cts` encrypted operand pairs, and one verified system. */
struct Fixture
{
    explicit Fixture(const ProfileConfig &pc)
        : params(standardParams<kLimbs>().withDegree(pc.degree)),
          ctx(params), rng(0xC0FFEE5EED), keygen(ctx, rng),
          pk(keygen.makePublicKey()), enc(ctx, pk, rng),
          encoder(params.t, params.n),
          pimsys(ctx, systemFor(pc), pc.dpus, pc.tasklets)
    {
        for (std::size_t i = 0; i < pc.cts; ++i) {
            as.push_back(enc.encrypt(encoder.encodeScalar(i + 1)));
            bs.push_back(enc.encrypt(encoder.encodeScalar(2 * i + 1)));
        }
    }

    static pim::SystemConfig
    systemFor(const ProfileConfig &pc)
    {
        pim::SystemConfig cfg = pim::paperSystem();
        cfg.numDpus = pc.dpus;
        cfg.verifyBeforeLaunch = true;
        return cfg;
    }

    const BfvParams<kLimbs> params;
    const BfvContext<kLimbs> ctx;
    Rng rng;
    KeyGenerator<kLimbs> keygen;
    const PublicKey<kLimbs> pk;
    Encryptor<kLimbs> enc;
    IntegerEncoder encoder;
    PimHeSystem<kLimbs> pimsys;
    std::vector<Ciphertext<kLimbs>> as, bs;
};

int
runProfile(const ProfileConfig &pc, Fixture &fx)
{
    obs::Registry &reg = obs::Registry::global();
    obs::Tracer &tracer = obs::Tracer::global();

    std::cout << "profiling BFV " << pc.op << ": " << pc.cts
              << " ciphertexts, degree " << pc.degree << ", "
              << pc.dpus << " DPUs, " << pc.tasklets
              << " tasklets\n\n";

    if (pc.op == "add" || pc.op == "both")
        (void)fx.pimsys.addCiphertextVectors(fx.as, fx.bs);
    if (pc.op == "mul" || pc.op == "both")
        (void)fx.pimsys.mulCoefficientwise(fx.as, fx.bs);

    const pim::DpuSet &set = fx.pimsys.dpuSet();
    std::cout << "modelled time: " << set.totalModeledMs()
              << " ms across " << set.launches().size()
              << " launch(es)\n\n";

    // Console scrape.
    const obs::Snapshot snap = reg.scrape();
    obs::printSnapshot(snap, std::cout);

    // Artifacts, each re-validated after the write.
    bool ok = true;
    ok &= emit(obs::joinPath(pc.outDir, "pim_profile_metrics.json"),
               obs::snapshotToJson(snap), obs::validateMetricsJson);

    std::ostringstream chrome;
    tracer.writeChromeTrace(chrome);
    ok &= emit(obs::joinPath(pc.outDir, "pim_profile_trace.json"),
               chrome.str(), obs::validateChromeTraceJson);

    std::ostringstream jsonl;
    tracer.writeJsonl(jsonl);
    ok &= emit(obs::joinPath(pc.outDir, "pim_profile_trace.jsonl"),
               jsonl.str(), obs::validateTraceJsonl);

    if (!ok)
        return 1;
    std::cout << "\npim_profile: " << snap.counters.size()
              << " counters, " << snap.histograms.size()
              << " histograms, " << tracer.spanCount()
              << " trace spans — all artifacts valid\n";
    return 0;
}

/**
 * Pipeline smoke: run an async op stream with the tracer armed, emit
 * the trace artifacts, and SELF-VALIDATE the overlap — the modelled
 * schedule must contain transfer spans overlapping other launches'
 * kernel spans (the quantity the pipeline.bus / pipeline.dpu Perfetto
 * lanes visualise), and both lane span names must have landed in the
 * emitted chrome trace. Exit nonzero when either is missing.
 */
int
runPipelineProfile(const ProfileConfig &pc, Fixture &fx)
{
    obs::Tracer &tracer = obs::Tracer::global();

    std::cout << "profiling async pipeline: " << pc.cts
              << " streamed adds, degree " << pc.degree << ", "
              << pc.dpus << " DPUs, " << pc.tasklets
              << " tasklets\n\n";

    std::vector<PimHeSystem<kLimbs>::AsyncOp> ops;
    for (std::size_t i = 0; i < pc.cts; ++i)
        ops.push_back(fx.pimsys.addAsync({fx.as[i]}, {fx.bs[i]}));
    for (auto &op : ops)
        (void)op.get();
    fx.pimsys.finishAsync();

    const pim::PipelineStats &ps = fx.pimsys.dpuSet().pipelineStats();
    std::cout << "pipelined makespan " << ps.makespanMs()
              << " ms vs serial " << ps.serialMs() << " ms ("
              << ps.speedup() << "x, " << ps.overlappingPairs()
              << " overlapping transfer/kernel span pair(s))\n\n";

    std::ostringstream chrome;
    tracer.writeChromeTrace(chrome);
    const std::string trace = chrome.str();
    bool ok = emit(
        obs::joinPath(pc.outDir, "pim_profile_pipeline_trace.json"),
        trace, obs::validateChromeTraceJson);

    // The smoke's contract: the pipelined schedule overlaps, and the
    // overlapping spans are in the artifact (pipeline.bus lane spans
    // "pipe.h2d"/"pipe.d2h", pipeline.dpu lane spans "pipe.kernel").
    if (ps.overlappingPairs() == 0) {
        std::cerr << "pim_profile: pipelined schedule has no "
                     "overlapping transfer/kernel span pairs\n";
        ok = false;
    }
    for (const char *needle :
         {"pipe.h2d", "pipe.kernel", "pipeline.bus", "pipeline.dpu"})
        if (trace.find(needle) == std::string::npos) {
            std::cerr << "pim_profile: trace artifact is missing '"
                      << needle << "' spans\n";
            ok = false;
        }
    if (!ok)
        return 1;
    std::cout << "pim_profile: pipeline trace valid — "
              << ps.overlappingPairs()
              << " overlapping span pair(s) across "
              << ps.spans.size() << " launches\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"op", "cts", "degree", "dpus", "tasklets", "out",
                  "smoke", "pipeline", "help"});
    if (args.getBool("help", false)) {
        std::cout
            << "usage: pim_profile [--op add|mul|both] [--cts N]\n"
            << "                   [--degree N] [--dpus N]\n"
            << "                   [--tasklets N] [--out DIR]\n"
            << "                   [--smoke] [--pipeline]\n"
            << "Profiles BFV vector ops on the simulated PIM system\n"
            << "and emits metrics + Chrome-trace artifacts.\n"
            << "--pipeline streams async adds through the pipelined\n"
            << "launch engine and fails unless the emitted trace\n"
            << "contains overlapping transfer/kernel spans.\n";
        return 0;
    }

    ProfileConfig pc;
    if (args.getBool("smoke", false)) {
        // CI-sized run: seconds, not minutes, on one core.
        pc.cts = 4;
        pc.degree = 32;
        pc.dpus = 2;
        pc.tasklets = 8;
    }
    pc.op = args.getString("op", pc.op);
    pc.outDir = args.getString("out", pc.outDir);
    pc.cts = static_cast<std::size_t>(
        args.getInt("cts", static_cast<std::int64_t>(pc.cts)));
    pc.degree = static_cast<std::size_t>(
        args.getInt("degree", static_cast<std::int64_t>(pc.degree)));
    pc.dpus = static_cast<std::size_t>(
        args.getInt("dpus", static_cast<std::int64_t>(pc.dpus)));
    pc.tasklets = static_cast<unsigned>(
        args.getInt("tasklets", pc.tasklets));

    if (pc.op != "add" && pc.op != "mul" && pc.op != "both") {
        std::cerr << "pim_profile: --op must be add, mul or both\n";
        return 2;
    }

    obs::Registry &reg = obs::Registry::global();
    obs::Tracer &tracer = obs::Tracer::global();
    reg.setEnabled(true);
    tracer.setEnabled(true);
    tracer.captureLogging();
    reg.reset();
    tracer.clear();
    Fixture fx(pc); // built with the recorders armed, as the setup ran
    if (args.getBool("pipeline", false))
        return runPipelineProfile(pc, fx);
    return runProfile(pc, fx);
}
