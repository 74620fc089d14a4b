/**
 * @file
 * pim_certify: sweep the shipped kernel x parameter grid through the
 * static HE-plan certifier (analysis/he_dag.h + noise.h + plan_cost.h)
 * and exit nonzero on any rejected plan.
 *
 * For every security level the tool certifies one representative plan
 * per offloadable kernel family — add chains, tree reductions,
 * add-then-multiply chains, plaintext products and relinearised mul
 * chains — prints the exact-witness rejection for anything that does
 * not fit the noise budget, reports per-backend modelled cost (PIM
 * staged / PIM resident / host) for everything that does, and emits the
 * max-certified multiplicative depth per parameter set (the grid's
 * noise-budget crossover map).
 *
 * Usage:
 *   pim_certify [--verbose] [--inject KIND] [--out FILE]
 *               [--calibrate] [--band F] [--calib-out FILE]
 *
 * --inject seeds deliberately broken plans so the rejection paths
 * stay live: KIND is one entry of the table in injections() below,
 * or all. Every entry must be rejected with its exact witness.
 * --out writes a schema-versioned JSON artifact ("pimhe-certify/v1").
 *
 * --calibrate additionally EXECUTES a certified BFV add / reduce /
 * mul / add-mul sweep on the simulated system with the calibration
 * aggregator armed, so every PIM-backed op pairs its cost-model
 * prediction with the simulator's measured charge; the aggregated
 * per-kernel relative-error distributions are judged against --band
 * (default 0.25) and exported as "pimhe-calib/v1" via --calib-out.
 * A kernel group drifting outside the band fails the run. The
 * stale-fit injection scales the probed cycle fits by 100x before
 * the same sweep and demands the gate trips — the negative test that
 * proves the calibration gate is alive.
 *
 * Exit status (tools/gate_cli.h): 0 clean, 1 a plan was rejected,
 * 2 the run cannot vouch for its result (unknown KIND, an unwritable
 * artifact, or a seeded violation that did not fire).
 */

#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/he_dag.h"
#include "analysis/noise.h"
#include "analysis/plan_cost.h"
#include "bfv/context.h"
#include "bfv/encryptor.h"
#include "bfv/keys.h"
#include "bfv/params.h"
#include "common/cli.h"
#include "common/rng.h"
#include "obs/artifact.h"
#include "obs/calib.h"
#include "obs/json.h"
#include "obs/report.h"
#include "pimhe/cost_model.h"
#include "pimhe/orchestrator.h"
#include "pimhe/plan.h"

#include "gate_cli.h"

namespace {

using namespace pimhe;
using gate::GateCli;

// ----- plan shapes (the kernel grid) -----

/** acc = x0 + x1 + ... + x_depth as a linear add chain. */
analysis::HeDag
addChain(std::size_t depth)
{
    analysis::HeDag dag;
    analysis::NodeId acc = dag.input("x0");
    for (std::size_t i = 1; i <= depth; ++i)
        acc = dag.add(acc, dag.input("x" + std::to_string(i)));
    dag.output(acc);
    return dag;
}

/** One fan-in-f homomorphic tree reduction. */
analysis::HeDag
treeReduce(std::size_t fan_in)
{
    analysis::HeDag dag;
    std::vector<analysis::NodeId> terms;
    for (std::size_t i = 0; i < fan_in; ++i)
        terms.push_back(dag.input("x" + std::to_string(i)));
    dag.output(dag.reduce(std::move(terms)));
    return dag;
}

/** acc = x0; acc = acc * y_i for i in 1..depth (relinearised). */
analysis::HeDag
mulChain(std::size_t depth)
{
    analysis::HeDag dag;
    analysis::NodeId acc = dag.input("x0");
    for (std::size_t i = 1; i <= depth; ++i)
        acc = dag.mul(acc, dag.input("y" + std::to_string(i)));
    dag.output(acc);
    return dag;
}

/** The add-then-multiply chain (a + b) * c. */
analysis::HeDag
addMulChain()
{
    analysis::HeDag dag;
    const analysis::NodeId a = dag.input("a");
    const analysis::NodeId b = dag.input("b");
    const analysis::NodeId c = dag.input("c");
    dag.output(dag.mul(dag.add(a, b), c));
    return dag;
}

/** One ciphertext x plaintext product. */
analysis::HeDag
mulPlainPlan()
{
    analysis::HeDag dag;
    dag.output(dag.mulPlain(dag.input("x"), 0));
    return dag;
}

/**
 * Deepest relinearised mul chain the parameter set statically
 * certifies (0 = even one multiplication exhausts the budget).
 */
std::size_t
maxCertifiedMulDepth(const analysis::NoiseSpec &spec,
                     std::size_t cap = 16)
{
    std::size_t best = 0;
    for (std::size_t d = 1; d <= cap; ++d) {
        if (!analysis::analyzeNoise(mulChain(d), spec).ok())
            break;
        best = d;
    }
    return best;
}

// ----- sweep -----

/** A noise check: the verdict line, then the interval trace that a
 *  rejection or --verbose prints in full. */
void
checkNoise(const analysis::NoiseReport &noise, GateCli &run)
{
    run.check(noise.ok(), noise.summary() + "\n  " +
                              noise.trace.describe() + "\n");
}

obs::JsonValue
costJson(const analysis::CostReport &cost)
{
    obs::JsonValue j = obs::JsonValue::makeObject();
    j.set("pimStagedMs", obs::JsonValue(cost.pimStaged.totalMs()));
    j.set("pimResidentMs",
          obs::JsonValue(cost.pimResident.totalMs()));
    j.set("hostMs", obs::JsonValue(cost.host.totalMs()));
    j.set("residentBytesReused",
          obs::JsonValue(cost.pimResident.residentBytesReused));
    j.set("recommended", obs::JsonValue(cost.recommended));
    return j;
}

template <std::size_t N>
void
sweepLevel(const PimCostModel &model, GateCli &run,
           obs::JsonValue &sweeps, obs::JsonValue &depth_map)
{
    const BfvParams<N> params = standardParams<N>();
    const std::string level =
        levelName(N == 1   ? SecurityLevel::Bits27
                  : N == 2 ? SecurityLevel::Bits54
                           : SecurityLevel::Bits109);
    run.emit("== " + level + "\n");
    const analysis::NoiseSpec nspec =
        analysis::specOfBfv<N>(params, level);
    const std::size_t max_depth = maxCertifiedMulDepth(nspec);
    depth_map.set(level,
                  obs::JsonValue(
                      static_cast<std::uint64_t>(max_depth)));
    run.emit("     max certified mul depth: " +
             std::to_string(max_depth) + "\n");

    // The shipped grid: every plan listed here must certify. Plans a
    // parameter set cannot support (e.g. any multiplication at the
    // 27-bit level) are not shipped for it — that is the crossover
    // the depth map documents.
    std::vector<std::pair<std::string, analysis::HeDag>> grid;
    grid.emplace_back("add-chain-8", addChain(8));
    grid.emplace_back("tree-reduce-64", treeReduce(64));
    if (analysis::analyzeNoise(mulPlainPlan(), nspec).ok())
        grid.emplace_back("mul-plain", mulPlainPlan());
    if (max_depth >= 1) {
        grid.emplace_back("mul-chain-" + std::to_string(max_depth),
                          mulChain(max_depth));
        if (analysis::analyzeNoise(addMulChain(), nspec).ok())
            grid.emplace_back("add-mul", addMulChain());
    }

    const analysis::CostSpec cspec = costSpecFor(
        model, N, params.n, relinDigitsOf<N>(params),
        model.config().numDpus, level);
    for (const auto &[plan, dag] : grid) {
        analysis::NoiseSpec tagged = nspec;
        tagged.name = level + " / " + plan;
        const auto noise = analysis::analyzeNoise(dag, tagged);
        checkNoise(noise, run);

        analysis::CostSpec ctagged = cspec;
        ctagged.name = tagged.name;
        const auto cost = analysis::estimateCost(dag, ctagged);
        run.check(cost.ok(), cost.summary() + "\n", /*pass=*/"     ");

        obs::JsonValue row = obs::JsonValue::makeObject();
        row.set("level", obs::JsonValue(level));
        row.set("plan", obs::JsonValue(plan));
        row.set("certified",
                obs::JsonValue(noise.ok() && cost.ok()));
        row.set("mulDepth",
                obs::JsonValue(
                    static_cast<std::uint64_t>(dag.mulDepth())));
        row.set("minOutputBudgetBits",
                obs::JsonValue(static_cast<double>(
                    noise.minOutputBudgetBits())));
        row.set("cost", costJson(cost));
        sweeps.push(std::move(row));
    }
}

// ----- calibration sweep (predicted vs measured attribution) -----

/**
 * Execute a certified BFV add / reduce / mul / add-mul / mul-plain
 * sweep on the simulated system with the calibration aggregator
 * armed, then judge the per-kernel relative-error distributions
 * against `band`.
 *
 * Drift outside the band is a FAIL. staleScale != 1 is the negative
 * test: the probed fits are scaled so predictions are genuinely
 * stale, and the gate must trip.
 */
void
calibrateSweep(double band, double staleScale,
               const std::string &calib_out, GateCli &run)
{
    constexpr std::size_t kLimbs = 2;
    constexpr std::size_t kDegree = 32;
    constexpr std::size_t kDpus = 2;
    constexpr unsigned kTasklets = 8;

    std::ostringstream head;
    head << "== calibration sweep (band " << band;
    if (staleScale != 1.0)
        head << ", injected stale fits x" << staleScale;
    run.emit(head.str() + ")\n");

    obs::Calibration &calib = obs::Calibration::global();
    calib.setEnabled(true);
    calib.clear();

    const BfvParams<kLimbs> params =
        standardParams<kLimbs>().withDegree(kDegree);
    BfvContext<kLimbs> ctx(params);
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = kDpus;
    cfg.verifyBeforeLaunch = true;
    // Shard the convolver across the same DPU count the cost spec
    // describes: the model charges each convolution n/numDpus rows
    // per DPU, so a convolver left on its 1-DPU default would pay the
    // full n rows and read as ~numDpus-fold drift (the observatory
    // catches exactly this mismatch when it is unintentional).
    ctx.setConvolver(std::make_unique<PimConvolver<kLimbs>>(
        ctx.ring(), cfg, kTasklets, kDpus));

    Rng rng(0x5EEDCA11B);
    KeyGenerator<kLimbs> keygen(ctx, rng);
    const PublicKey<kLimbs> pk = keygen.makePublicKey();
    Encryptor<kLimbs> enc(ctx, pk, rng);
    IntegerEncoder encoder(params.t, params.n);
    const RelinKey<kLimbs> rlk = keygen.makeRelinKey();

    PimHeSystem<kLimbs> sys(ctx, cfg, kDpus, kTasklets);
    sys.injectStaleFits(staleScale);

    std::vector<std::pair<std::string, analysis::HeDag>> sweep;
    sweep.emplace_back("add-chain-4", addChain(4));
    sweep.emplace_back("tree-reduce-8", treeReduce(8));
    sweep.emplace_back("mul-chain-1", mulChain(1));
    sweep.emplace_back("add-mul", addMulChain());
    sweep.emplace_back("mul-plain", mulPlainPlan());

    const std::vector<Plaintext> plains = {encoder.encodeScalar(3)};
    for (const auto &[plan, dag] : sweep) {
        std::vector<Ciphertext<kLimbs>> ins;
        for (std::size_t i = 0; i < dag.inputs().size(); ++i)
            ins.push_back(enc.encrypt(encoder.encodeScalar(i + 1)));
        (void)sys.runPlan(dag, ins, plains, &rlk);
        if (run.verbose())
            run.emit("     ran " + plan + "\n");
    }

    // Pipelined stream leg: the planner's overlap-aware forecast
    // (CostReport::pipelined, the staged plan replayed through the
    // two-track clock) against the MEASURED makespan of an actual
    // async add stream on a fresh system. Both sides use the same
    // schedule arithmetic; what this calibrates is the model's
    // per-launch inputs (probed cycle fits, transfer rates), which
    // stale fits must visibly break.
    {
        constexpr std::size_t kStreamOps = 8;
        PimHeSystem<kLimbs> psys(ctx, cfg, kDpus, kTasklets);
        psys.injectStaleFits(staleScale);
        if (!psys.certifyPlan(addChain(kStreamOps),
                              "pipeline-stream")) {
            run.check(false, "pipeline stream plan rejected\n");
        } else {
            const analysis::PipelineForecast fc =
                psys.lastCostEstimate().pipelined;
            std::vector<Ciphertext<kLimbs>> lhs, rhs;
            lhs.push_back(enc.encrypt(encoder.encodeScalar(1)));
            rhs.push_back(enc.encrypt(encoder.encodeScalar(2)));
            for (std::size_t i = 0; i < kStreamOps; ++i)
                (void)psys.addAsync(lhs, rhs);
            psys.finishAsync();
            const pim::PipelineStats &ps =
                psys.dpuSet().pipelineStats();
            obs::AttributionRecord rec;
            rec.kernel = "pipeline-stream";
            rec.backend = "pim-pipelined";
            rec.subject = "add-stream-8";
            rec.predictedMs = fc.makespanMs;
            rec.measuredMs = ps.makespanMs();
            rec.predictedLaunches =
                static_cast<double>(fc.launches);
            rec.measuredLaunches =
                static_cast<double>(ps.spans.size());
            calib.record(std::move(rec));
            if (run.verbose()) {
                std::ostringstream line;
                line << "     ran pipeline-stream (measured "
                     << std::fixed << std::setprecision(2)
                     << ps.speedup() << "x overlap, "
                     << ps.overlappingPairs()
                     << " overlapping pair(s))\n";
                run.emit(line.str());
            }
        }
    }

    const obs::CalibVerdict verdict = calib.aggregate(band);
    for (const auto &k : verdict.kernels) {
        std::ostringstream line;
        line << "     " << k.kernel << " @ " << k.backend << ": "
             << k.samples << " sample(s), ms rel err p50 "
             << k.msRelErr.p50 << " / p95 " << k.msRelErr.p95
             << " / max " << k.msRelErr.max << ", bytes max "
             << k.bytesRelErrMax
             << (k.pass ? "  [in band]" : "  [DRIFT]") << "\n";
        run.emit(line.str());
    }

    const bool gate_ok = verdict.records > 0 && verdict.pass;
    run.check(gate_ok,
              gate_ok ? "calibration: " + std::to_string(verdict.records) +
                            " record(s), every kernel inside the band\n"
                      : "calibration: model drift outside band (or zero "
                        "records)\n");

    if (!calib_out.empty() &&
        run.write(calib_out,
                  calib.toJson(staleScale == 1.0
                                   ? "calibrate-sweep"
                                   : "calibrate-sweep-stale-fit",
                               band),
                  &obs::validateCalibJson))
        run.emit("     wrote " + calib_out + "\n");
}

// ----- injections -----

/** The --inject table: every seeded plan must be rejected with its
 *  exact witness. */
std::vector<gate::Injection>
injections(double band, const std::string &calib_out, GateCli &run)
{
    const BfvParams<2> p2 = standardParams<2>();
    const analysis::NoiseSpec s2 =
        analysis::specOfBfv<2>(p2, "injected/Bits54");
    const auto named = [s2](const std::string &name) {
        analysis::NoiseSpec s = s2;
        s.name = "injected/" + name;
        return s;
    };
    return {
        {"over-deep", [=, &run] {
             // A mul chain far beyond the certified depth: rejected at
             // the exact node where the budget dies.
             checkNoise(analysis::analyzeNoise(
                            mulChain(maxCertifiedMulDepth(s2) + 3),
                            named("over-deep")),
                        run);
         }},
        {"boundary", [=, &run] {
             // Budget-exact boundary: depth d must certify and depth
             // d+1 must be rejected, so the boundary is tight.
             const std::size_t d = maxCertifiedMulDepth(s2);
             const auto pass = analysis::analyzeNoise(
                 mulChain(d), named("boundary-depth-" + std::to_string(d)));
             run.vouch(pass.ok(), pass.summary() + "\n");
             checkNoise(analysis::analyzeNoise(
                            mulChain(d + 1),
                            named("boundary-depth-" +
                                  std::to_string(d + 1))),
                        run);
         }},
        {"bad-t", [=, &run] {
             // Plaintext modulus at q: Delta = floor(q/t) vanishes; the
             // params obligation rejects before any transfer function.
             analysis::NoiseSpec s = named("bad-plain-modulus");
             s.t = ~0ULL; // 2^64 - 1 >= q for the 54-bit set
             checkNoise(analysis::analyzeNoise(addChain(1), s), run);
         }},
        {"reduce-wide", [=, &run] {
             // A 512-way reduction on one DPU with a 1 MB resident
             // arena: an exact Staging violation from arithmetic alone.
             analysis::CostSpec c;
             c.name = "injected/reduce-wide";
             c.limbs = 2;
             c.n = p2.n;
             c.numDpus = 1;
             c.residentArenaBytes = 1ULL << 20;
             const auto cost = analysis::estimateCost(treeReduce(512), c);
             run.check(cost.ok(), cost.summary() + "\n");
         }},
        {"stale-fit", [=, &run] {
             // Fits 100x stale: every prediction misses the
             // measurement, so the calibration gate must trip. Its
             // artifact never clobbers the honest run's.
             calibrateSweep(band, 100.0,
                            calib_out.empty() ? ""
                                              : calib_out + ".stale.json",
                            run);
         }},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"verbose", "inject", "out", "calibrate",
                              "band", "calib-out"});
    GateCli run("pim_certify", args, "certifications checked",
                "rejection(s)");
    const double band =
        args.getDouble("band", obs::Calibration::kDefaultBand);
    const std::string calib_out = args.getString("calib-out", "");

    obs::JsonValue sweeps = obs::JsonValue::makeArray();
    obs::JsonValue depth_map = obs::JsonValue::makeObject();
    const PimCostModel model; // the paper's system, probe-backed fits
    return run.run(
        [&] {
            sweepLevel<1>(model, run, sweeps, depth_map);
            sweepLevel<2>(model, run, sweeps, depth_map);
            sweepLevel<4>(model, run, sweeps, depth_map);
            if (args.getBool("calibrate", false))
                calibrateSweep(band, 1.0, calib_out, run);
        },
        injections(band, calib_out, run),
        [&] {
            obs::JsonValue doc = obs::JsonValue::makeObject();
            doc.set("schema", obs::JsonValue("pimhe-certify/v1"));
            doc.set("maxCertifiedMulDepth", std::move(depth_map));
            doc.set("sweeps", std::move(sweeps));
            doc.set("checked", obs::JsonValue(run.checked()));
            doc.set("failed", obs::JsonValue(run.failed()));
            doc.set("log", obs::JsonValue(run.log()));
            return doc.dump(2) + "\n";
        });
}
