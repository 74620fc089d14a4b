/**
 * @file
 * Static pre-launch verifier tests, in both directions:
 *
 *  - every shipped kernel footprint x seed parameter set verifies
 *    clean (tools/pim_prove sweeps the whole registry the same way),
 *  - seeded violations of each resource budget (WRAM, DMA alignment,
 *    MRAM overlap, tasklet count, MRAM staging, arithmetic parameter
 *    range) are rejected with the exact resource / operation named,
 *  - the DpuSet verified-launch overload gates launches when
 *    SystemConfig::verifyBeforeLaunch is on and retains the report.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/interval.h"
#include "analysis/verifier.h"
#include "bfv/params.h"
#include "ntt/ntt.h"
#include "ntt/rns.h"
#include "pim/system.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using analysis::Resource;

// ---------------------------------------------------------------------
// Clean direction: everything the library actually launches verifies.
// ---------------------------------------------------------------------

template <std::size_t L>
void
expectVecGridClean()
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);
    const auto params = standardParams<L>();
    for (unsigned tasklets : {1u, 8u, 11u, 12u, 16u, 24u})
        for (bool mul : {false, true}) {
            const auto kp = standardVecParams(L, params.n);
            const auto fp = vecKernelFootprint(kp, cfg, tasklets, mul);
            const auto report = verifier.verify(fp, tasklets);
            EXPECT_TRUE(report.ok())
                << "limbs=" << L << " tasklets=" << tasklets
                << (mul ? " mul" : " add") << "\n"
                << report.summary();
            EXPECT_FALSE(report.notes.empty())
                << "satisfied budgets should leave an audit trail";
        }
}

TEST(StaticVerify, ShippedVecFootprintsVerifyClean)
{
    expectVecGridClean<1>();
    expectVecGridClean<2>();
    expectVecGridClean<4>();
}

TEST(StaticVerify, ShippedConvFootprintsVerifyClean)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);

    const auto check = [&](auto limbs_tag, std::uint32_t n) {
        constexpr std::size_t L = decltype(limbs_tag)::value;
        const auto fp = convKernelFootprint(standardConvParams(L, n), cfg);
        ASSERT_GE(fp.maxTasklets, 12u)
            << "limbs=" << L << " n=" << n;
        const auto report = verifier.verify(fp, 12);
        EXPECT_TRUE(report.ok())
            << "limbs=" << L << " n=" << n << "\n" << report.summary();
    };
    // The degrees the convolution suites drive through PimConvolver.
    check(std::integral_constant<std::size_t, 1>{}, 1024);
    check(std::integral_constant<std::size_t, 2>{}, 1024);
    check(std::integral_constant<std::size_t, 4>{}, 1024);
    check(std::integral_constant<std::size_t, 4>{}, 256);
}

TEST(StaticVerify, ShippedNttFootprintsVerifyClean)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);
    for (std::uint32_t n : {64u, 256u, 1024u, 2048u}) {
        const auto primes = findNttPrimes(30, 2 * n, 1);
        ASSERT_FALSE(primes.empty()) << "n=" << n;
        const auto p = static_cast<std::uint32_t>(primes[0]);
        const auto fp =
            nttKernelFootprint(makeNttParams(p, n, 2), cfg);
        ASSERT_GE(fp.maxTasklets, 1u) << "n=" << n;
        for (unsigned tasklets : {1u, fp.maxTasklets}) {
            const auto report = verifier.verify(fp, tasklets);
            EXPECT_TRUE(report.ok())
                << "n=" << n << " tasklets=" << tasklets << "\n"
                << report.summary();
        }
    }
}

TEST(StaticVerify, IntervalAcceptsShippedParams)
{
    const auto r1 = analysis::analyzeParamsSet(
        analysis::specOfParams<1>(standardParams<1>(), "N=1"));
    const auto r2 = analysis::analyzeParamsSet(
        analysis::specOfParams<2>(standardParams<2>(), "N=2"));
    const auto r4 = analysis::analyzeParamsSet(
        analysis::specOfParams<4>(standardParams<4>(), "N=4"));
    EXPECT_TRUE(r1.ok()) << r1.summary();
    EXPECT_TRUE(r2.ok()) << r2.summary();
    EXPECT_TRUE(r4.ok()) << r4.summary();
    // The proof is non-trivial: every trace discharges obligations.
    EXPECT_GT(r4.trace.steps().size(), 5u);
}

/**
 * Host NTT and REDC obligations of every prime of the RNS-NTT
 * convolver's basis, the NTT obligations of every prime of the
 * client's NTT-resident basis, and that basis's own obligation.
 */
template <std::size_t N>
void
expectHostRnsPrimesProved()
{
    const auto params = standardParams<N>();
    const RingContext<N> ring(params.n, params.q);
    const RnsNttConvolver<N> conv(ring);
    for (const std::uint64_t p : conv.basis().primes()) {
        const auto host = analysis::analyzeHostNttPrime(p, params.n);
        EXPECT_TRUE(host.ok()) << host.summary();
        const auto mont = analysis::analyzeMontgomeryPrime(p);
        EXPECT_TRUE(mont.ok()) << mont.summary();
    }
    const NttResidentProducts<N> client(ring);
    const auto &primes = client.basis().primes();
    for (const std::uint64_t p : primes) {
        const auto host = analysis::analyzeHostNttPrime(p, params.n);
        EXPECT_TRUE(host.ok()) << host.summary();
    }
    const auto spec = analysis::specOfParams<N>(params, "client");
    const auto basis = analysis::analyzeClientBasis(spec, primes);
    EXPECT_TRUE(basis.ok()) << basis.summary();
    // Without its last prime the basis fails its bound.
    if (primes.size() > 1) {
        const auto shorter = analysis::analyzeClientBasis(
            spec, {primes.data(), primes.size() - 1});
        ASSERT_FALSE(shorter.ok());
        EXPECT_EQ(shorter.trace.firstViolation().op, "basis bound");
    }
}

TEST(StaticVerify, IntervalAcceptsShippedNttAndMontgomeryPrimes)
{
    for (std::uint32_t n : {64u, 1024u, 2048u}) {
        const auto p = static_cast<std::uint32_t>(
            findNttPrimes(30, 2 * n, 1)[0]);
        const auto ntt = analysis::analyzeNttPrime(p, n);
        EXPECT_TRUE(ntt.ok()) << ntt.summary();
        const auto mont = analysis::analyzeMontgomeryPrime(p);
        EXPECT_TRUE(mont.ok()) << mont.summary();
    }
    // The host RNS-NTT bases at each parameter set's degree, and the
    // widest prime the NTT table accepts.
    expectHostRnsPrimesProved<1>();
    expectHostRnsPrimesProved<2>();
    expectHostRnsPrimesProved<4>();
    const std::uint64_t widest = findNttPrimes(62, 2 * 4096, 1)[0];
    const auto host = analysis::analyzeHostNttPrime(widest, 4096);
    EXPECT_TRUE(host.ok()) << host.summary();
}

// ---------------------------------------------------------------------
// Seeded violations: each budget, rejected with the resource named.
// ---------------------------------------------------------------------

TEST(StaticVerify, RejectsWramOverBudget)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);
    // A kernel honestly declaring a deep stack blows the 64 KB WRAM
    // budget at full occupancy: 12 * (buffers + 8 KB stack) >> 64 KB.
    auto fp = vecKernelFootprint(standardVecParams(1, 4096), cfg, 12,
                                 /*multiply=*/false);
    fp.stackBytesPerTasklet = 8192;
    const auto report = verifier.verify(fp, 12);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.names(Resource::Wram)) << report.summary();
    bool found = false;
    for (const auto &v : report.violations)
        if (v.resource == Resource::Wram) {
            found = true;
            EXPECT_EQ(v.budget, cfg.wramBytes);
            EXPECT_EQ(v.usage, fp.wramTotal(12));
            EXPECT_NE(v.what.find("WRAM"), std::string::npos)
                << v.what;
        }
    EXPECT_TRUE(found);
}

TEST(StaticVerify, RejectsUnalignedDma)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);
    // Operand B staged at a 4-byte-aligned MRAM offset: the footprint
    // builder derives the degraded guarantee and the verifier flags it.
    auto kp = standardVecParams(1, 512);
    kp.mramB += 4;
    const auto report = verifier.verify(
        vecKernelFootprint(kp, cfg, 8, /*multiply=*/true), 8);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.names(Resource::Dma)) << report.summary();
    EXPECT_NE(report.summary().find("chunk staging"),
              std::string::npos)
        << report.summary();
}

TEST(StaticVerify, RejectsMramRegionOverlap)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);
    // Result written over operand A (an in-place launch the kernels
    // do not support): overlap with a writer is a clobber.
    auto kp = standardVecParams(2, 1024);
    kp.mramOut = kp.mramA;
    const auto report = verifier.verify(
        vecKernelFootprint(kp, cfg, 12, /*multiply=*/false), 12);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.names(Resource::Mram)) << report.summary();
    const auto text = report.summary();
    EXPECT_NE(text.find("operand A"), std::string::npos) << text;
    EXPECT_NE(text.find("result"), std::string::npos) << text;
}

TEST(StaticVerify, RejectsTaskletOverCount)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);

    // Beyond the 24-tasklet hardware cap.
    const auto hw = verifier.verify(
        vecKernelFootprint(standardVecParams(1, 256), cfg, 25, false), 25);
    EXPECT_FALSE(hw.ok());
    EXPECT_TRUE(hw.names(Resource::Tasklets)) << hw.summary();
    EXPECT_NE(hw.summary().find("hardware limit"), std::string::npos)
        << hw.summary();

    // Within the hardware cap but beyond what the kernel's WRAM
    // layout supports: NTT at n=4096 cannot host even one tasklet
    // once the shared tables and the stack reserve are accounted.
    const auto p = static_cast<std::uint32_t>(
        findNttPrimes(30, 2 * 4096, 1)[0]);
    const auto fp = nttKernelFootprint(makeNttParams(p, 4096, 1), cfg);
    EXPECT_EQ(fp.maxTasklets, 0u);
    const auto layout = verifier.verify(fp, 1);
    EXPECT_FALSE(layout.ok());
    EXPECT_TRUE(layout.names(Resource::Tasklets)) << layout.summary();
    EXPECT_NE(layout.summary().find("WRAM layout limit"),
              std::string::npos)
        << layout.summary();
}

TEST(StaticVerify, RejectsMramStagingOverflow)
{
    const DpuConfig cfg;
    const analysis::LaunchVerifier verifier(cfg);
    // Three 96 MB operand arrays against 64 MB of MRAM.
    const auto report = verifier.verify(
        vecKernelFootprint(standardVecParams(4, 6'000'000), cfg, 12, true),
        12);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.names(Resource::Staging)) << report.summary();
    bool found = false;
    for (const auto &v : report.violations)
        if (v.resource == Resource::Staging) {
            found = true;
            EXPECT_EQ(v.budget, cfg.mramBytes);
            EXPECT_GT(v.usage, cfg.mramBytes);
        }
    EXPECT_TRUE(found);
}

TEST(StaticVerify, RejectsOverflowingParameterSets)
{
    using analysis::AbsVal;
    analysis::ParamsSpec spec;
    spec.limbs = 2;
    spec.n = 2048;

    // c = 3 * 2^31 needs 33 bits: the single-limb fold constant of
    // wide_ops.h cannot represent it.
    spec.name = "c-too-wide";
    spec.q = AbsVal::oneShl(54) - AbsVal(3ULL << 31);
    auto report = analysis::analyzeParamsSet(spec);
    ASSERT_FALSE(report.ok()) << report.summary();
    EXPECT_EQ(report.trace.firstViolation().op,
              "pseudo-mersenne constant")
        << report.summary();

    // c = 2^30 > 2^(k/2): the three-fold chain is not guaranteed to
    // converge below 2^k, so the fold-width proof must refuse it.
    spec.name = "fold-divergent";
    spec.q = AbsVal::oneShl(54) - AbsVal::oneShl(30);
    report = analysis::analyzeParamsSet(spec);
    ASSERT_FALSE(report.ok()) << report.summary();
    EXPECT_EQ(report.trace.firstViolation().op,
              "fold convergence precondition")
        << report.summary();

    // Limb counts outside {1, 2, 4} have no kernel instantiation.
    spec.name = "bad-limbs";
    spec.limbs = 3;
    spec.q = AbsVal::oneShl(54) - AbsVal(77823);
    report = analysis::analyzeParamsSet(spec);
    ASSERT_FALSE(report.ok()) << report.summary();
    EXPECT_EQ(report.trace.firstViolation().op, "limb count")
        << report.summary();

    // Non-power-of-two ring degree breaks the negacyclic fold.
    spec.name = "bad-degree";
    spec.limbs = 2;
    spec.n = 1000;
    report = analysis::analyzeParamsSet(spec);
    ASSERT_FALSE(report.ok()) << report.summary();
    EXPECT_EQ(report.trace.firstViolation().op, "ring degree")
        << report.summary();
}

TEST(StaticVerify, RejectsBadNttAndMontgomeryPrimes)
{
    // p = 12289 is NTT-friendly for n=2048 but too small for the
    // fixed 2^60 Barrett scaling: mu overflows its 32-bit register.
    const auto small = analysis::analyzeNttPrime(12289, 2048);
    ASSERT_FALSE(small.ok()) << small.summary();
    EXPECT_EQ(small.trace.firstViolation().op, "barrett mu width")
        << small.summary();

    // 97 splits no 128th root of unity: 2n does not divide p - 1.
    const auto unfriendly = analysis::analyzeNttPrime(97, 64);
    ASSERT_FALSE(unfriendly.ok()) << unfriendly.summary();
    EXPECT_EQ(unfriendly.trace.firstViolation().op, "ntt-friendly")
        << unfriendly.summary();

    // Montgomery: even moduli have no inverse mod 2^64, and >= 2^62
    // breaks the u < 2p bound.
    const auto even = analysis::analyzeMontgomeryPrime(1ULL << 32);
    ASSERT_FALSE(even.ok());
    EXPECT_EQ(even.trace.firstViolation().op, "modulus odd");
    const auto wide =
        analysis::analyzeMontgomeryPrime((1ULL << 62) + 1);
    ASSERT_FALSE(wide.ok());
    EXPECT_EQ(wide.trace.firstViolation().op, "modulus width");

    // Host NTT: p >= 2^62 (here 1 mod 2n, so only the width fails)
    // puts the lazy forward range 4p past a word, and 97 supports no
    // negacyclic transform of length 64.
    const auto host_wide =
        analysis::analyzeHostNttPrime((1ULL << 62) + 1, 2);
    ASSERT_FALSE(host_wide.ok());
    EXPECT_EQ(host_wide.trace.firstViolation().op, "lazy range width")
        << host_wide.summary();
    const auto host_unfriendly = analysis::analyzeHostNttPrime(97, 64);
    ASSERT_FALSE(host_unfriendly.ok());
    EXPECT_EQ(host_unfriendly.trace.firstViolation().op, "ntt-friendly")
        << host_unfriendly.summary();
}

// ---------------------------------------------------------------------
// DpuSet wiring: verifyBeforeLaunch gates launches and keeps reports.
// ---------------------------------------------------------------------

TEST(StaticVerify, VerifiedLaunchAcceptsCleanPlanAndKeepsReport)
{
    SystemConfig cfg;
    cfg.verifyBeforeLaunch = true;
    DpuSet set(cfg, 1);
    const auto kp = standardVecParams(1, 64);
    set.launch(4, makeVecAddModQKernel(kp),
               vecKernelFootprint(kp, cfg.dpu, 4, false));
    const auto &report = set.lastVerify();
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.kernel, "vec-add-modq");
    EXPECT_EQ(report.tasklets, 4u);
    EXPECT_FALSE(report.notes.empty());
}

TEST(StaticVerifyDeath, VerifiedLaunchPanicsOnBadPlan)
{
    SystemConfig cfg;
    cfg.verifyBeforeLaunch = true;
    DpuSet set(cfg, 1);
    auto kp = standardVecParams(1, 64);
    kp.mramOut = kp.mramA; // in-place clobber, caught statically
    EXPECT_DEATH(set.launch(4, makeVecAddModQKernel(kp),
                            vecKernelFootprint(kp, cfg.dpu, 4, false)),
                 "pre-launch verification rejected");
}

TEST(StaticVerifyDeath, VerifyDisabledSkipsGateAndKeepsNoReport)
{
    SystemConfig cfg; // verifyBeforeLaunch defaults to off
    DpuSet set(cfg, 1);
    auto kp = standardVecParams(1, 64);
    kp.mramOut = kp.mramA;
    // The (bad) footprint is ignored: the kernel itself tolerates the
    // aliasing here, so the launch completes...
    set.launch(1, makeVecAddModQKernel(kp),
               vecKernelFootprint(kp, cfg.dpu, 1, false));
    // ...and no report was retained.
    EXPECT_DEATH((void)set.lastVerify(), "footprint-less");
}

} // namespace
} // namespace pimhe
