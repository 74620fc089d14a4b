/**
 * @file
 * Differential fuzzing of the compiled-kernel fast path against the
 * interpreter oracle.
 *
 * Two independent checks per grid point, for every registered kernel
 * family across (limb width, shape, tasklet count, host threads):
 *
 *  - a Shadow-mode launch runs both paths on every DPU and panics on
 *    any divergence in semantic outputs or modelled per-tasklet
 *    stats (the in-simulator oracle);
 *  - a pure Fast-mode launch on identically seeded DPUs is compared
 *    field by field against the shadow launch's (interpreter) stats
 *    and byte for byte against its surviving MRAM, proving the fast
 *    path alone reproduces the oracle — outputs, cycles, DMA bytes
 *    and stall cycles bit-identically.
 *
 * The host mirrors' native word lanes (hostWideAddModQ and
 * hostWideMulModQ at 1, 2 and 4 limbs) are also checked directly
 * against the limb sequences they stand in for, on random full-range
 * operands and at the edges of the 4-limb lane's precondition.
 *
 * Mismatch-injection tests then corrupt a fast body on purpose
 * (off-by-one output tail, stale cycle formula, skipped shard row)
 * and require shadow mode to die with a diagnostic naming the
 * kernel, the DPU and the first diverging byte range or counter.
 *
 * End-to-end, whole BFV pipelines (PimHeSystem and PimConvolver) run
 * in shadow mode with decryption checks, so the fast path is also
 * exercised through the orchestration, resident-cache and transfer
 * layers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>
#include <vector>

#include "analysis/footprint.h"
#include "ntt/rns.h"
#include "pimhe/fast_kernels.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"
#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;
using pimhe::testing::randomBelow;

constexpr unsigned kTaskletGrid[] = {1, 11, 16, 24};
constexpr std::size_t kThreadGrid[] = {1, 8};

SystemConfig
gridSystem(std::size_t dpus, std::size_t threads, ExecMode mode)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.hostThreads = threads;
    cfg.execMode = mode;
    return cfg;
}

/** Exact equality of every modelled LaunchStats field (execMode and
 *  hostWallMs are legitimately different between the two runs). */
void
expectLaunchStatsEqual(const LaunchStats &interp, const LaunchStats &fast,
                       const std::string &what)
{
    ASSERT_EQ(interp.dpus.size(), fast.dpus.size()) << what;
    EXPECT_EQ(interp.maxCycles, fast.maxCycles) << what;
    EXPECT_EQ(interp.kernelMs, fast.kernelMs) << what;
    EXPECT_EQ(interp.hostToDpuMs, fast.hostToDpuMs) << what;
    EXPECT_EQ(interp.dpuToHostMs, fast.dpuToHostMs) << what;
    EXPECT_EQ(interp.launchOverheadMs, fast.launchOverheadMs) << what;
    for (std::size_t d = 0; d < interp.dpus.size(); ++d) {
        const auto &di = interp.dpus[d];
        const auto &df = fast.dpus[d];
        EXPECT_EQ(di.cycles, df.cycles) << what << " dpu " << d;
        ASSERT_EQ(di.tasklets.size(), df.tasklets.size())
            << what << " dpu " << d;
        for (std::size_t t = 0; t < di.tasklets.size(); ++t) {
            EXPECT_EQ(di.tasklets[t].instructions,
                      df.tasklets[t].instructions)
                << what << " dpu " << d << " tasklet " << t;
            EXPECT_EQ(di.tasklets[t].dmaTransfers,
                      df.tasklets[t].dmaTransfers)
                << what << " dpu " << d << " tasklet " << t;
            EXPECT_EQ(di.tasklets[t].dmaBytes, df.tasklets[t].dmaBytes)
                << what << " dpu " << d << " tasklet " << t;
            EXPECT_EQ(di.tasklets[t].dmaStallCycles,
                      df.tasklets[t].dmaStallCycles)
                << what << " dpu " << d << " tasklet " << t;
        }
    }
}

/**
 * Run one CompiledKernel under Shadow (internal oracle) and under
 * pure Fast on identically seeded DPU sets, then require the fast
 * launch to match the interpreter bit for bit in the declared output
 * regions and in every modelled stats field.
 */
void
runShadowAndFast(const CompiledKernel &ck, unsigned tasklets,
                 std::size_t dpus, std::size_t threads,
                 const std::vector<std::vector<std::uint8_t>> &mram_init,
                 std::uint64_t init_addr, const std::string &what)
{
    DpuSet shadow(gridSystem(dpus, threads, ExecMode::Shadow), dpus);
    DpuSet fast(gridSystem(dpus, threads, ExecMode::Fast), dpus);
    for (std::size_t d = 0; d < dpus; ++d) {
        shadow.dpuAt(d).mram().write(init_addr, mram_init[d].data(),
                                     mram_init[d].size());
        fast.dpuAt(d).mram().write(init_addr, mram_init[d].data(),
                                   mram_init[d].size());
    }

    // Shadow mode self-checks every DPU (panic on divergence) and
    // leaves the interpreter's MRAM and stats behind.
    const LaunchStats interp_stats = shadow.launch(tasklets, ck);
    ASSERT_EQ(interp_stats.execMode, ExecMode::Shadow) << what;
    const LaunchStats fast_stats = fast.launch(tasklets, ck);
    ASSERT_EQ(fast_stats.execMode, ExecMode::Fast) << what;

    expectLaunchStatsEqual(interp_stats, fast_stats, what);
    for (std::size_t d = 0; d < dpus; ++d) {
        for (const auto &region : ck.outputs) {
            std::vector<std::uint8_t> a(region.end - region.begin);
            std::vector<std::uint8_t> b(a.size());
            shadow.dpuAt(d).mram().read(region.begin, a.data(),
                                        a.size());
            fast.dpuAt(d).mram().read(region.begin, b.data(), b.size());
            EXPECT_EQ(a, b) << what << " dpu " << d << " output '"
                            << region.name << "'";
        }
    }
}

/** elems reduced elements as packed little-endian limb bytes. */
template <std::size_t L>
std::vector<std::uint8_t>
packedVec(Rng &rng, std::size_t elems)
{
    const auto q = standardParams<L>().q;
    std::vector<std::uint8_t> buf(elems * L * 4);
    for (std::size_t i = 0; i < elems; ++i) {
        const auto v = randomBelow<L>(rng, q);
        for (std::size_t l = 0; l < L; ++l) {
            const std::uint32_t limb = v.limb(l);
            std::memcpy(buf.data() + (i * L + l) * 4, &limb, 4);
        }
    }
    return buf;
}

/** elems coefficients drawn from the centring edge cases: 0,
 *  floor(q/2), floor(q/2) + 1, q - 1, and the unreduced q and
 *  all-ones limbs. */
template <std::size_t L>
std::vector<std::uint8_t>
packedEdgeVec(Rng &rng, std::size_t elems)
{
    const auto q = standardParams<L>().q;
    const WideInt<L> one(1ULL);
    const WideInt<L> edges[] = {WideInt<L>(), q.shr(1), q.shr(1) + one,
                                q - one, q, WideInt<L>() - one};
    std::vector<std::uint8_t> buf(elems * L * 4);
    for (std::size_t i = 0; i < elems; ++i) {
        const auto &v = edges[rng.uniform(std::size(edges))];
        for (std::size_t l = 0; l < L; ++l) {
            const std::uint32_t limb = v.limb(l);
            std::memcpy(buf.data() + (i * L + l) * 4, &limb, 4);
        }
    }
    return buf;
}

template <std::size_t L>
int
runVecGrid()
{
    int iterations = 0;
    for (const std::size_t elems : {63u, 96u, 256u}) {
        for (const unsigned tasklets : kTaskletGrid) {
            for (const std::size_t threads : kThreadGrid) {
                for (const bool edge : {false, true}) {
                    Rng rng(kSeed + 1000 * L + 10 * elems + tasklets +
                            threads + (edge ? 5000 : 0));
                    const auto p = standardVecParams(L, elems);
                    const auto operand = [&] {
                        return edge ? packedEdgeVec<L>(rng, elems)
                                    : packedVec<L>(rng, elems);
                    };
                    const std::size_t dpus = 2;
                    std::vector<std::vector<std::uint8_t>> init(dpus);
                    for (auto &m : init) {
                        m = operand();
                        const auto b = operand();
                        m.resize(p.mramB + b.size());
                        std::memcpy(m.data() + p.mramB, b.data(),
                                    b.size());
                    }
                    const std::string tag =
                        std::string(edge ? "edge " : "") + "L" +
                        std::to_string(L) + " e" + std::to_string(elems) +
                        " t" + std::to_string(tasklets) + " th" +
                        std::to_string(threads);
                    runShadowAndFast(compiledVecAddModQ(p), tasklets,
                                     dpus, threads, init, 0,
                                     "vec-add " + tag);
                    runShadowAndFast(compiledVecMulModQ(p), tasklets,
                                     dpus, threads, init, 0,
                                     "vec-mul " + tag);

                    // In-place fold round (mramOut == mramA), as the
                    // resident tree reduction launches it.
                    VecKernelParams rp = p;
                    rp.mramOut = rp.mramA;
                    runShadowAndFast(compiledVecAddModQ(rp), tasklets,
                                     dpus, threads, init, 0,
                                     "vec-reduce " + tag);
                    iterations += 3;
                }
            }
        }
    }
    return iterations;
}

template <std::size_t L>
int
runConvGrid()
{
    int iterations = 0;
    for (const std::size_t n : {16u, 32u, 64u}) {
        for (const unsigned tasklets : kTaskletGrid) {
            for (const std::size_t threads : kThreadGrid) {
                for (const bool edge : {false, true}) {
                    Rng rng(kSeed + 77 * L + 10 * n + tasklets + threads +
                            (edge ? 5000 : 0));
                    const auto p = standardConvParams(L, n);
                    const std::string tag =
                        std::string(edge ? "edge " : "") + "L" +
                        std::to_string(L) + " n" + std::to_string(n) +
                        " t" + std::to_string(tasklets) + " th" +
                        std::to_string(threads);
                    const auto operand = [&] {
                        return edge ? packedEdgeVec<L>(rng, n)
                                    : packedVec<L>(rng, n);
                    };

                    std::vector<std::vector<std::uint8_t>> init(1);
                    init[0] = operand();
                    const auto b = operand();
                    init[0].resize(p.mramB + b.size());
                    std::memcpy(init[0].data() + p.mramB, b.data(),
                                b.size());
                    runShadowAndFast(compiledNegacyclicConv(p), tasklets,
                                     1, threads, init, 0, "conv " + tag);

                    // Row-sharded variants: per-DPU metadata blocks
                    // select disjoint row ranges of the same operands;
                    // 3 DPUs leave shards of unequal length.
                    for (const std::uint32_t dpus : {2u, 3u}) {
                        ConvKernelParams sp = p;
                        const auto [b0, e0] = analysis::rowShardRange(
                            static_cast<std::uint32_t>(n), dpus, 0);
                        sp.rowBegin = b0;
                        sp.rowEnd = e0;
                        sp.mramMeta =
                            sp.mramOut +
                            static_cast<std::uint64_t>(e0 - b0) *
                                sp.accLimbs() * 4;
                        std::vector<std::vector<std::uint8_t>> sinit(
                            dpus);
                        for (std::uint32_t d = 0; d < dpus; ++d) {
                            const auto [rb, re] = analysis::rowShardRange(
                                static_cast<std::uint32_t>(n), dpus, d);
                            sinit[d] = init[0];
                            sinit[d].resize(sp.mramMeta + 8);
                            const std::uint32_t meta[2] = {rb, re};
                            std::memcpy(sinit[d].data() + sp.mramMeta,
                                        meta, 8);
                        }
                        runShadowAndFast(
                            compiledNegacyclicConv(sp), tasklets, dpus,
                            threads, sinit, 0,
                            "conv-sharded d" + std::to_string(dpus) +
                                " " + tag);
                    }
                    iterations += 3;
                }
            }
        }
    }
    return iterations;
}

int
runNttGrid()
{
    int iterations = 0;
    for (const std::uint32_t n : {64u, 256u}) {
        for (const unsigned tasklets : kTaskletGrid) {
            for (const std::size_t threads : kThreadGrid) {
                const auto primes = findNttPrimes(30, 2ULL * n, 1);
                if (primes.empty()) {
                    ADD_FAILURE() << "no NTT prime for n=" << n;
                    continue;
                }
                const auto p =
                    static_cast<std::uint32_t>(primes.front());
                const std::uint32_t count = 5;
                const auto kp = makeNttParams(p, n, count);

                Rng rng(kSeed + 31 * n + tasklets + threads);
                const std::uint64_t psi = primitiveRoot(p, 2 * n);
                const std::uint64_t psi_inv = invMod64(psi, p);
                int log_n = 0;
                while ((1u << log_n) < n)
                    ++log_n;
                std::vector<std::uint32_t> words(
                    static_cast<std::size_t>(kp.mramOut) / 4, 0);
                std::uint64_t pw = 1, pwi = 1;
                std::vector<std::uint64_t> pows(n), powis(n);
                for (std::uint32_t i = 0; i < n; ++i) {
                    pows[i] = pw;
                    powis[i] = pwi;
                    pw = mulMod64(pw, psi, p);
                    pwi = mulMod64(pwi, psi_inv, p);
                }
                for (std::uint32_t i = 0; i < n; ++i) {
                    std::uint32_t r = 0, x = i;
                    for (int bit = 0; bit < log_n; ++bit) {
                        r = (r << 1) | (x & 1);
                        x >>= 1;
                    }
                    words[kp.mramPsi / 4 + i] =
                        static_cast<std::uint32_t>(pows[r]);
                    words[kp.mramPsiInv / 4 + i] =
                        static_cast<std::uint32_t>(powis[r]);
                }
                for (std::uint32_t i = 0; i < count * n; ++i) {
                    words[kp.mramA / 4 + i] =
                        static_cast<std::uint32_t>(rng.uniform(p));
                    words[kp.mramB / 4 + i] =
                        static_cast<std::uint32_t>(rng.uniform(p));
                }
                std::vector<std::vector<std::uint8_t>> init(1);
                init[0].resize(words.size() * 4);
                std::memcpy(init[0].data(), words.data(),
                            init[0].size());

                runShadowAndFast(compiledNttMul(kp), tasklets, 1,
                                 threads, init, 0,
                                 "ntt n" + std::to_string(n) + " t" +
                                     std::to_string(tasklets) + " th" +
                                     std::to_string(threads));
                iterations += 1;
            }
        }
    }
    return iterations;
}

/**
 * The full fuzz grid in one test so the iteration budget is counted
 * where it runs: every registered kernel family, across widths,
 * shapes, tasklet counts 1/11/16/24 and host threads 1/8; the
 * elementwise kernels and the convolution also on edge-value operands
 * (unreduced ones included), the convolution on 2- and 3-DPU row
 * shards. Each iteration is a shadow launch (self-checking oracle)
 * plus a pure fast launch compared bit for bit against the
 * interpreter.
 */
TEST(FastPathDifferential, FullGridIsBitExact)
{
    int iterations = 0;
    iterations += runVecGrid<1>();
    iterations += runVecGrid<2>();
    iterations += runVecGrid<4>();
    iterations += runConvGrid<1>();
    iterations += runConvGrid<2>();
    iterations += runConvGrid<4>();
    iterations += runNttGrid();
    EXPECT_GE(iterations, 200)
        << "fuzz grid shrank below the 200-iteration budget";
}

// ----- native host lanes against the limb sequence -----

/** q = 2^k - c as four limbs (k <= 128). */
std::array<std::uint32_t, 4>
pseudoMersenneLimbs(std::uint32_t k, std::uint32_t c)
{
    const WideInt<4> q = (k == 128 ? WideInt<4>() : WideInt<4>::oneShl(k)) -
                         WideInt<4>(static_cast<std::uint64_t>(c));
    return {q.limb(0), q.limb(1), q.limb(2), q.limb(3)};
}

/** hostWideAddModQ and hostWideMulModQ equal their limb sequences at
 *  (limbs, q = 2^k - c) on 2^16 random full-range operand pairs. */
void
expectLanesMatchLimbs(std::uint32_t limbs, std::uint32_t k,
                      std::uint32_t c, const std::string &what)
{
    const auto q = pseudoMersenneLimbs(k, c);
    Rng rng(kSeed + 131 * k + c + limbs);
    std::size_t add_diffs = 0;
    std::size_t mul_diffs = 0;
    for (std::size_t i = 0; i < (std::size_t{1} << 16); ++i) {
        std::uint32_t a[4];
        std::uint32_t b[4];
        for (std::uint32_t l = 0; l < limbs; ++l) {
            a[l] = rng.next32();
            b[l] = rng.next32();
        }
        std::uint32_t lane[4];
        std::uint32_t ref[4];
        fastpath::hostWideAddModQ(a, b, q.data(), lane, limbs);
        fastpath::hostWideAddModQLimbs(a, b, q.data(), ref, limbs);
        add_diffs += !std::equal(lane, lane + limbs, ref);
        fastpath::hostWideMulModQ(a, b, q.data(), k, c, lane, limbs);
        fastpath::hostWideMulModQLimbs(a, b, q.data(), k, c, ref, limbs);
        mul_diffs += !std::equal(lane, lane + limbs, ref);
    }
    EXPECT_EQ(add_diffs, 0u) << "add " << what;
    EXPECT_EQ(mul_diffs, 0u) << "mul " << what;
}

TEST(HostLanes, EveryLaneMatchesTheLimbSequence)
{
    for (const std::uint32_t limbs : {1u, 2u, 4u}) {
        const auto p = standardVecParams(limbs, 1);
        EXPECT_TRUE(fastpath::hostMulLaneAdmits(limbs, p.k));
        expectLanesMatchLimbs(limbs, p.k, p.c,
                              "standard L" + std::to_string(limbs));
    }
}

TEST(HostLanes, FourLimbLaneMatchesAtTheEdgesOfItsPrecondition)
{
    // The 4-limb multiply lane admits 64 < k < 128 and every 32-bit c.
    for (const std::uint32_t k : {65u, 127u}) {
        for (const std::uint32_t c : {1u, 0xFFFFFFFFu}) {
            EXPECT_TRUE(fastpath::hostMulLaneAdmits(4, k));
            expectLanesMatchLimbs(4, k, c,
                                  "k" + std::to_string(k) + " c" +
                                      std::to_string(c));
        }
    }
    // Just outside: a shift by k = 128 is no longer a word plus 1..63
    // bits, so q = 2^128 - 1 must take the limb sequence.
    EXPECT_FALSE(fastpath::hostMulLaneAdmits(4, 64));
    EXPECT_FALSE(fastpath::hostMulLaneAdmits(4, 128));
    expectLanesMatchLimbs(4, 128, 1, "k128 c1");
}

// ----- mismatch injection: a wrong fast body must be caught -----

std::vector<std::vector<std::uint8_t>>
smallVecInit(const VecKernelParams &p, std::size_t dpus)
{
    Rng rng(kSeed + 4242);
    std::vector<std::vector<std::uint8_t>> init(dpus);
    for (auto &m : init) {
        m = packedVec<2>(rng, p.elems);
        const auto b = packedVec<2>(rng, p.elems);
        m.resize(p.mramB + b.size());
        std::memcpy(m.data() + p.mramB, b.data(), b.size());
    }
    return init;
}

TEST(FastPathMismatchDeath, OffByOneOutputTailIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto p = standardVecParams(2, 65);
    CompiledKernel ck = compiledVecAddModQ(p);
    const auto base = ck.fast;
    // Deliberate bug: the fast body mangles the final element's last
    // byte — an off-by-one tail.
    ck.fast = [base, p](FastCtx &f) {
        base(f);
        const std::uint64_t last =
            p.mramOut +
            static_cast<std::uint64_t>(p.elems) * p.elemBytes() - 1;
        std::uint8_t byte = 0;
        f.mram.read(last, &byte, 1);
        byte ^= 0x01;
        f.mram.write(last, &byte, 1);
    };

    DpuSet set(gridSystem(1, 1, ExecMode::Shadow), 1);
    const auto init = smallVecInit(p, 1);
    set.dpuAt(0).mram().write(0, init[0].data(), init[0].size());
    EXPECT_DEATH(
        set.launch(12, ck),
        "shadow-mode divergence: dpu 0.*vec-add-modq.*"
        "output 'result' diverges in mram bytes");
}

TEST(FastPathMismatchDeath, StaleCycleFormulaIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto p = standardVecParams(2, 64);
    CompiledKernel ck = compiledVecMulModQ(p);
    const auto base = ck.fast;
    // Deliberate bug: a stale cost formula over-charges tasklet 0 by
    // one instruction (outputs stay correct, only the model drifts).
    ck.fast = [base](FastCtx &f) {
        base(f);
        f.stats.tasklets[0].instructions += 1;
    };
    DpuSet set(gridSystem(1, 1, ExecMode::Shadow), 1);
    const auto init = smallVecInit(p, 1);
    set.dpuAt(0).mram().write(0, init[0].data(), init[0].size());
    EXPECT_DEATH(
        set.launch(12, ck),
        "shadow-mode divergence: dpu 0.*vec-mul-modq.*"
        "tasklet 0: instructions interpreter=[0-9]+ fast=[0-9]+");
}

TEST(FastPathMismatchDeath, SkippedShardRowIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto sp = standardConvParams(2, 16);
    const auto [b0, e0] = analysis::rowShardRange(16, 2, 0);
    sp.rowBegin = b0;
    sp.rowEnd = e0;
    sp.mramMeta = sp.mramOut + static_cast<std::uint64_t>(e0 - b0) *
                                   sp.accLimbs() * 4;
    CompiledKernel ck = compiledNegacyclicConv(sp);
    const auto base = ck.fast;
    // Deliberate bug: the fast body never computes the shard's final
    // row (its accumulator region keeps the pre-launch bytes).
    ck.fast = [base, sp](FastCtx &f) {
        const std::uint32_t acc_bytes = sp.accLimbs() * 4;
        std::uint32_t meta[2] = {0, sp.n};
        f.mram.read(sp.mramMeta, reinterpret_cast<std::uint8_t *>(meta),
                    8);
        const std::uint64_t last_row =
            sp.mramOut +
            static_cast<std::uint64_t>(meta[1] - meta[0] - 1) *
                acc_bytes;
        std::vector<std::uint8_t> saved(acc_bytes);
        f.mram.read(last_row, saved.data(), saved.size());
        base(f);
        f.mram.write(last_row, saved.data(), saved.size());
    };

    DpuSet set(gridSystem(2, 1, ExecMode::Shadow), 2);
    Rng rng(kSeed + 99);
    for (std::size_t d = 0; d < 2; ++d) {
        auto m = packedVec<2>(rng, sp.n);
        const auto b = packedVec<2>(rng, sp.n);
        m.resize(sp.mramB + b.size());
        std::memcpy(m.data() + sp.mramB, b.data(), b.size());
        const auto [rb, re] = analysis::rowShardRange(
            16, 2, static_cast<std::uint32_t>(d));
        m.resize(sp.mramMeta + 8);
        const std::uint32_t meta[2] = {rb, re};
        std::memcpy(m.data() + sp.mramMeta, meta, 8);
        set.dpuAt(d).mram().write(0, m.data(), m.size());
    }
    EXPECT_DEATH(
        set.launch(11, ck),
        "shadow-mode divergence: dpu 0.*negacyclic-conv-sharded.*"
        "output 'accumulators' diverges in mram bytes");
}

// ----- end to end: whole BFV pipelines under shadow mode -----

SystemConfig
shadowBfvSystem(std::size_t dpus)
{
    SystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    cfg.hostThreads = 4;
    cfg.execMode = ExecMode::Shadow;
    cfg.dpu.checker.enabled = true;
    cfg.dpu.checker.failFast = true;
    return cfg;
}

TEST(FastPathEndToEnd, BfvPipelineShadowedWithDecryption)
{
    constexpr std::size_t N = 2;
    BfvHarness<N> h(32, kSeed + 7);
    PimHeSystem<N> pimsys(h.ctx, shadowBfvSystem(4), 4, 12);

    Rng rng(kSeed + 8);
    std::vector<Ciphertext<N>> a, b;
    std::vector<std::uint64_t> va, vb;
    for (int i = 0; i < 3; ++i) {
        va.push_back(rng.uniform(h.params.t));
        vb.push_back(rng.uniform(h.params.t));
        a.push_back(h.encryptScalar(va.back()));
        b.push_back(h.encryptScalar(vb.back()));
    }

    // Elementwise adds and coefficientwise products, shadowed.
    const auto sums = pimsys.addCiphertextVectors(a, b);
    for (int i = 0; i < 3; ++i) {
        const auto host = h.eval.add(a[i], b[i]);
        ASSERT_EQ(host.size(), sums[i].size());
        for (std::size_t c = 0; c < host.size(); ++c)
            ASSERT_TRUE(host[c] == sums[i][c]) << "add ct " << i;
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  (va[i] + vb[i]) % h.params.t);
    }
    (void)pimsys.mulCoefficientwise(a, b);

    // A resident add and the tree reduction, shadowed.
    const auto ra = pimsys.makeResident(a[0]);
    const auto rb = pimsys.makeResident(b[0]);
    const auto rsum = pimsys.materialize(pimsys.addResident(ra, rb));
    EXPECT_EQ(h.decryptScalar(rsum), (va[0] + vb[0]) % h.params.t);
    const auto reduced = pimsys.reduceCiphertexts(a);
    EXPECT_EQ(h.decryptScalar(reduced),
              (va[0] + va[1] + va[2]) % h.params.t);

    // Full BFV multiply through the shadowed PIM convolver.
    BfvContext<N> pim_ctx(h.params);
    pim_ctx.setConvolver(std::make_unique<PimConvolver<N>>(
        pim_ctx.ring(), shadowBfvSystem(2), 11));
    Evaluator<N> pim_eval(pim_ctx);
    const auto host_prod = h.eval.multiply(a[0], b[0]);
    const auto pim_prod = pim_eval.multiply(a[0], b[0]);
    ASSERT_EQ(host_prod.size(), pim_prod.size());
    for (std::size_t c = 0; c < host_prod.size(); ++c)
        ASSERT_TRUE(host_prod[c] == pim_prod[c]) << "multiply";
    EXPECT_EQ(h.decryptScalar(pim_prod), va[0] * vb[0] % h.params.t);
}

TEST(FastPathEndToEnd, FastModeMatchesHostEvaluator)
{
    constexpr std::size_t N = 4;
    BfvHarness<N> h(32, kSeed + 21);
    SystemConfig cfg = shadowBfvSystem(4);
    cfg.execMode = ExecMode::Fast;
    PimHeSystem<N> pimsys(h.ctx, cfg, 4, 12);

    Rng rng(kSeed + 22);
    std::vector<Ciphertext<N>> a, b;
    for (int i = 0; i < 3; ++i) {
        a.push_back(h.encryptScalar(rng.uniform(h.params.t)));
        b.push_back(h.encryptScalar(rng.uniform(h.params.t)));
    }
    const auto sums = pimsys.addCiphertextVectors(a, b);
    ASSERT_EQ(pimsys.lastLaunch().execMode, ExecMode::Fast);
    for (int i = 0; i < 3; ++i) {
        const auto host = h.eval.add(a[i], b[i]);
        for (std::size_t c = 0; c < host.size(); ++c)
            ASSERT_TRUE(host[c] == sums[i][c]) << "fast add ct " << i;
    }
}

TEST(FastPathEndToEnd, BenchmarkShapeConvolutionMatchesRnsNtt)
{
    // The variance benchmark's convolution: n = 512, 109-bit q, rows
    // sharded over 16 DPUs, fast body only.
    constexpr std::size_t N = 4;
    const auto params = standardParams<N>().withDegree(512);
    RingContext<N> ring(params.n, params.q);
    const PimConvolver<N> pim(ring, gridSystem(16, 4, ExecMode::Fast),
                              12, 16);
    const RnsNttConvolver<N> ref(ring);
    Rng rng(kSeed + 512);
    const auto edge = [&] {
        const auto bytes = packedEdgeVec<N>(rng, params.n);
        Polynomial<N> poly(params.n);
        for (std::size_t i = 0; i < params.n; ++i)
            for (std::size_t l = 0; l < N; ++l) {
                std::uint32_t limb = 0;
                std::memcpy(&limb, bytes.data() + (i * N + l) * 4, 4);
                poly[i].setLimb(l, limb);
            }
        return poly;
    };
    const auto a = ring.sampleUniform(rng);
    const auto b = ring.sampleUniform(rng);
    const auto ea = edge();
    const auto eb = edge();
    for (const auto &[x, y, what] :
         {std::tuple(&a, &b, "uniform"), std::tuple(&ea, &eb, "edge")}) {
        const auto got = pim.convolveCentered(*x, *y);
        const auto want = ref.convolveCentered(*x, *y);
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << what << " coeff " << i;
    }
    EXPECT_EQ(pim.dpuSet().launches().back().execMode, ExecMode::Fast);
}

} // namespace
} // namespace pimhe
