/**
 * @file
 * Differential validation of the static noise certifier: hundreds of
 * seeded random HE op DAGs, executed end-to-end with the host
 * evaluator, asserting for EVERY node that
 *
 *   measured noiseBudgetBitsExact  >=  static budgetBits
 *
 * i.e. the worst-case transfer functions in analysis/noise.cpp are
 * sound upper bounds on real BFV noise, and additionally that every
 * statically certified node decrypts to exactly the tracked plaintext
 * (mod-t negacyclic ring semantics re-implemented independently here).
 *
 * Every DAG also runs through PimHeSystem::runPlan on a context whose
 * products go through a PimConvolver, with the plan certified and
 * every launch gated before it runs; each Output must equal the host
 * evaluator's ciphertext bit for bit. The system is left in
 * ExecMode::Auto, so PIMHE_EXEC_MODE reruns the leg in fast or shadow
 * mode.
 *
 * Generation is certification-gated: each candidate op is appended
 * only if the grown plan still certifies, falling back to a fresh
 * input otherwise. That keeps every generated DAG decryptable by
 * construction while steering the sampler straight at the budget
 * boundary — the regime where an unsound bound would show.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "analysis/he_dag.h"
#include "analysis/noise.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;
namespace an = pimhe::analysis;

// ----- independent mod-t plaintext ring (the reference model) -----

using Coeffs = std::vector<std::uint64_t>;

Coeffs
plainAdd(const Coeffs &a, const Coeffs &b, std::uint64_t t)
{
    Coeffs out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = (a[i] + b[i]) % t;
    return out;
}

/** Negacyclic convolution mod t (X^n = -1). Products fit 64 bits:
 *  t <= 2^17 across the grid. */
Coeffs
plainConv(const Coeffs &a, const Coeffs &b, std::uint64_t t)
{
    const std::size_t n = a.size();
    Coeffs out(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t p = a[i] * b[j] % t;
            const std::size_t k = i + j;
            if (k < n)
                out[k] = (out[k] + p) % t;
            else
                out[k - n] = (out[k - n] + t - p) % t;
        }
    return out;
}

// ----- certification-gated random DAG generation -----

struct GenOp
{
    an::HeOp op;
    unsigned weight;
};

constexpr GenOp kMenu[] = {
    {an::HeOp::Add, 6}, {an::HeOp::MulPlain, 2}, {an::HeOp::Mul, 3},
    {an::HeOp::Square, 1}, {an::HeOp::Reduce, 1},
};

// Every DAG grows over kSteps gated appends and draws its plaintext
// operands from kPlainSlots slots.
constexpr std::size_t kSteps = 8;
constexpr std::size_t kPlainSlots = 2;

an::HeOp
pickOp(Rng &rng)
{
    unsigned total = 0;
    for (const auto &e : kMenu)
        total += e.weight;
    std::uint64_t r = rng.uniform(total);
    for (const auto &e : kMenu) {
        if (r < e.weight)
            return e.op;
        r -= e.weight;
    }
    return an::HeOp::Add;
}

/** Would the plan still certify with `cand` as a decryption point? */
bool
certifies(const an::HeDag &dag, an::NodeId cand,
          const an::NoiseSpec &spec)
{
    an::HeDag trial = dag;
    trial.output(cand);
    return an::analyzeNoise(trial, spec).ok();
}

/**
 * Grow a random certified DAG: `steps` gated op appends over a pool
 * of live nodes, every rejected candidate replaced by a fresh input.
 * Returns the DAG with every pool node marked as an output (so every
 * live node carries the budget obligation the fuzz then measures).
 */
an::HeDag
growDag(Rng &rng, const an::NoiseSpec &spec)
{
    an::HeDag dag;
    std::vector<an::NodeId> pool = {dag.input(), dag.input()};
    const auto pick = [&]() -> an::NodeId {
        return pool[rng.uniform(pool.size())];
    };

    for (std::size_t s = 0; s < kSteps; ++s) {
        an::HeDag trial = dag;
        an::NodeId cand = 0;
        const an::HeOp op = pickOp(rng);
        switch (op) {
          case an::HeOp::Add:
            cand = trial.add(pick(), pick());
            break;
          case an::HeOp::MulPlain:
            cand = trial.mulPlain(
                pick(),
                static_cast<std::uint32_t>(
                    rng.uniform(kPlainSlots)));
            break;
          case an::HeOp::Mul:
            cand = trial.mul(pick(), pick());
            break;
          case an::HeOp::Square:
            cand = trial.square(pick());
            break;
          case an::HeOp::Reduce: {
            std::vector<an::NodeId> terms;
            const std::size_t fan = 2 + rng.uniform(3);
            for (std::size_t i = 0; i < fan; ++i)
                terms.push_back(pick());
            cand = trial.reduce(std::move(terms));
            break;
          }
          case an::HeOp::Input:
          case an::HeOp::Output:
            ADD_FAILURE() << "kMenu offers no " << an::toString(op);
            return dag;
        }
        if (certifies(trial, cand, spec)) {
            dag = std::move(trial);
            pool.push_back(cand);
        } else {
            // Budget boundary hit: keep sampling from a fresh input
            // instead, so generation never stalls.
            pool.push_back(dag.input());
        }
    }
    for (const an::NodeId id : pool)
        dag.output(id);
    return dag;
}

// ----- end-to-end execution against the tracked plaintext model -----

/** One fuzzed parameter set (its limb count is the template
 *  argument it runs under): ring degree and seed. */
struct FuzzSet
{
    std::size_t degree;
    std::uint64_t seed;
};

// 1, 1, 2 and 4 limbs.
constexpr FuzzSet kSets[] = {
    {64, kSeed},
    {128, kSeed + 7},
    {64, kSeed + 13},
    {32, kSeed + 29},
};
constexpr std::size_t kDagsPerSet = 60;

template <std::size_t N>
an::NoiseSpec
fuzzSpec(const BfvParams<N> &params)
{
    return an::specOfBfv<N>(params,
                            "fuzz/n=" + std::to_string(params.n));
}

template <std::size_t N>
void
fuzzOneSet(const FuzzSet &set, std::size_t *executed)
{
    BfvHarness<N> h(set.degree, set.seed);
    const auto rlk = h.keygen.makeRelinKey();
    const an::NoiseSpec spec = fuzzSpec<N>(h.params);
    const std::uint64_t t = h.params.t;

    // The runPlan leg: the same parameters in a context whose products
    // run on a PIM convolver, every plan certified and every launch
    // gated. execMode stays Auto, so PIMHE_EXEC_MODE picks the body.
    pim::SystemConfig cfg;
    cfg.numDpus = 2;
    cfg.verifyBeforeLaunch = true;
    BfvContext<N> pim_ctx(h.params);
    pim_ctx.setConvolver(std::make_unique<PimConvolver<N>>(
        pim_ctx.ring(), cfg, 11, cfg.numDpus));
    PimHeSystem<N> pimsys(pim_ctx, cfg, cfg.numDpus, 11);

    for (std::size_t it = 0; it < kDagsPerSet; ++it) {
        Rng rng(set.seed + 1000 + it);
        const an::HeDag dag = growDag(rng, spec);
        const auto rep = an::analyzeNoise(dag, spec);
        ASSERT_TRUE(rep.ok())
            << "gated generation produced an uncertified plan: "
            << rep.summary();
        ASSERT_EQ(rep.nodes.size(), dag.size());

        // Random plain operands, shared across the plan's slots.
        std::vector<Plaintext> plains;
        std::vector<Coeffs> plain_ref;
        for (std::size_t p = 0; p < kPlainSlots; ++p) {
            Plaintext pt(h.params.n);
            for (auto &c : pt.coeffs)
                c = rng.uniform(t);
            plain_ref.push_back(pt.coeffs);
            plains.push_back(std::move(pt));
        }

        std::vector<Ciphertext<N>> val(dag.size());
        std::vector<Coeffs> ref(dag.size());
        std::vector<Ciphertext<N>> inputs;
        for (an::NodeId id = 0; id < dag.size(); ++id) {
            const an::HeNode &node = dag[id];
            const auto a = [&]() { return node.args[0]; };
            const auto b = [&]() { return node.args[1]; };
            switch (node.op) {
              case an::HeOp::Input: {
                Plaintext pt(h.params.n);
                for (auto &c : pt.coeffs)
                    c = rng.uniform(t);
                ref[id] = pt.coeffs;
                val[id] = h.enc.encrypt(pt);
                inputs.push_back(val[id]);
                break;
              }
              case an::HeOp::Add:
                val[id] = h.eval.add(val[a()], val[b()]);
                ref[id] = plainAdd(ref[a()], ref[b()], t);
                break;
              case an::HeOp::MulPlain:
                val[id] = h.eval.mulPlain(val[a()],
                                          plains[node.plainIdx]);
                ref[id] = plainConv(ref[a()],
                                    plain_ref[node.plainIdx], t);
                break;
              case an::HeOp::Mul:
                val[id] =
                    h.eval.multiplyRelin(val[a()], val[b()], rlk);
                ref[id] = plainConv(ref[a()], ref[b()], t);
                break;
              case an::HeOp::Square:
                val[id] = h.eval.relinearize(h.eval.square(val[a()]),
                                             rlk);
                ref[id] = plainConv(ref[a()], ref[a()], t);
                break;
              case an::HeOp::Reduce: {
                val[id] = val[node.args[0]];
                ref[id] = ref[node.args[0]];
                for (std::size_t i = 1; i < node.args.size(); ++i) {
                    val[id] =
                        h.eval.add(val[id], val[node.args[i]]);
                    ref[id] = plainAdd(ref[id], ref[node.args[i]],
                                       t);
                }
                break;
              }
              case an::HeOp::Output:
                val[id] = val[a()];
                ref[id] = ref[a()];
                break;
            }

            // THE soundness claim: the measured exact budget never
            // falls below the static floor, at any node.
            Plaintext expected(0);
            expected.coeffs = ref[id];
            const std::int64_t measured =
                h.dec.noiseBudgetBitsExact(val[id], expected);
            EXPECT_GE(measured, rep.nodes[id].budgetBits)
                << spec.name << " dag " << it << " "
                << dag.describe(id) << ": measured " << measured
                << " < static " << rep.nodes[id].budgetBits;

            // And a certified node really decrypts to its tracked
            // plaintext.
            EXPECT_EQ(h.dec.decrypt(val[id]).coeffs, ref[id])
                << spec.name << " dag " << it << " "
                << dag.describe(id);
        }

        // The same plan, bound to the same inputs, plaintexts and
        // key, through runPlan on the PIM system.
        const std::vector<Ciphertext<N>> outs =
            pimsys.runPlan(dag, inputs, plains, &rlk);
        ASSERT_EQ(outs.size(), dag.outputs().size());
        for (std::size_t o = 0; o < outs.size(); ++o) {
            const an::NodeId id = dag.outputs()[o];
            ASSERT_EQ(outs[o].size(), val[id].size());
            for (std::size_t c = 0; c < outs[o].size(); ++c)
                EXPECT_TRUE(outs[o][c] == val[id][c])
                    << spec.name << " dag " << it << " runPlan "
                    << dag.describe(id) << " component " << c;
        }
        ++*executed;
    }
}

// 4 parameter sets x 60 seeded DAGs = 240 end-to-end plans; reduced
// ring degrees keep the schoolbook reference convolutions fast while
// q, t, eta and the relin base stay the shipped per-level values.

TEST(NoiseFuzz, Bits27Degree64)
{
    std::size_t done = 0;
    fuzzOneSet<1>(kSets[0], &done);
    EXPECT_EQ(done, kDagsPerSet);
}

TEST(NoiseFuzz, Bits27Degree128)
{
    std::size_t done = 0;
    fuzzOneSet<1>(kSets[1], &done);
    EXPECT_EQ(done, kDagsPerSet);
}

TEST(NoiseFuzz, Bits54Degree64)
{
    std::size_t done = 0;
    fuzzOneSet<2>(kSets[2], &done);
    EXPECT_EQ(done, kDagsPerSet);
}

TEST(NoiseFuzz, Bits109Degree32)
{
    std::size_t done = 0;
    fuzzOneSet<4>(kSets[3], &done);
    EXPECT_EQ(done, kDagsPerSet);
}

/** Count the op kinds of the certified DAGs one set's test runs
 *  (the same seeds grow the same DAGs). */
template <std::size_t N>
void
countOps(const FuzzSet &set, std::map<an::HeOp, std::size_t> &counts)
{
    const an::NoiseSpec spec = fuzzSpec<N>(
        standardParams<N>().withDegree(set.degree));
    for (std::size_t it = 0; it < kDagsPerSet; ++it) {
        Rng rng(set.seed + 1000 + it);
        const an::HeDag dag = growDag(rng, spec);
        for (const an::HeNode &node : dag.nodes())
            ++counts[node.op];
    }
}

TEST(NoiseFuzz, EveryMenuOpOccurs)
{
    // The 27-bit sets certify no multiplication, so the claim is over
    // all four sets together.
    std::map<an::HeOp, std::size_t> counts;
    countOps<1>(kSets[0], counts);
    countOps<1>(kSets[1], counts);
    countOps<2>(kSets[2], counts);
    countOps<4>(kSets[3], counts);
    for (const GenOp &e : kMenu)
        EXPECT_GT(counts[e.op], 0u)
            << an::toString(e.op) << " never certified in the fuzz";
}

} // namespace
} // namespace pimhe
