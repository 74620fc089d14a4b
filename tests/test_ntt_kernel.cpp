/**
 * @file
 * NTT-on-PIM kernel tests: the DPU transform must match the host NTT
 * engine bit-for-bit, across shapes and tasklet counts, and its
 * instruction count must stay data-independent.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "ntt/ntt.h"
#include "pimhe/ntt_kernel.h"
#include "test_util.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;
using namespace pimhe::pimhe_kernels;
using pimhe::testing::kSeed;

/** psi / psi^-1 tables in bit-reversed order, as the kernel expects. */
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
psiTables(std::uint32_t p, std::uint32_t n)
{
    const std::uint64_t psi = primitiveRoot(p, 2 * n);
    const std::uint64_t psi_inv = invMod64(psi, p);
    int log_n = 0;
    while ((1u << log_n) < n)
        ++log_n;
    std::vector<std::uint32_t> fwd(n), inv(n);
    std::uint64_t pw = 1, pwi = 1;
    std::vector<std::uint64_t> pows(n), powis(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        pows[i] = pw;
        powis[i] = pwi;
        pw = mulMod64(pw, psi, p);
        pwi = mulMod64(pwi, psi_inv, p);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t r = 0;
        std::uint32_t x = i;
        for (int b = 0; b < log_n; ++b) {
            r = (r << 1) | (x & 1);
            x >>= 1;
        }
        fwd[i] = static_cast<std::uint32_t>(pows[r]);
        inv[i] = static_cast<std::uint32_t>(powis[r]);
    }
    return {fwd, inv};
}

void
writeU32s(Dpu &dpu, std::uint64_t addr,
          const std::vector<std::uint32_t> &v)
{
    dpu.mram().write(addr,
                     reinterpret_cast<const std::uint8_t *>(v.data()),
                     v.size() * 4);
}

std::vector<std::uint32_t>
readU32s(Dpu &dpu, std::uint64_t addr, std::size_t count)
{
    std::vector<std::uint32_t> v(count);
    dpu.mram().read(addr, reinterpret_cast<std::uint8_t *>(v.data()),
                    count * 4);
    return v;
}

TEST(DpuModMul30, MatchesMulMod64)
{
    DpuConfig cfg;
    Wram wram(cfg.wramBytes);
    Mram mram(cfg.mramBytes);
    TaskletStats stats;
    TaskletCtx ctx(0, 1, cfg, wram, mram, stats);

    const auto p = static_cast<std::uint32_t>(findNttPrimes(30, 64, 1)[0]);
    const std::uint32_t mu = static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(1) << 60) / p);
    Rng rng(kSeed);
    for (int it = 0; it < 500; ++it) {
        const std::uint32_t a =
            static_cast<std::uint32_t>(rng.uniform(p));
        const std::uint32_t b =
            static_cast<std::uint32_t>(rng.uniform(p));
        EXPECT_EQ(dpuModMul30(ctx, a, b, p, mu), mulMod64(a, b, p))
            << a << " * " << b << " mod " << p;
    }
    // Edge operands.
    EXPECT_EQ(dpuModMul30(ctx, p - 1, p - 1, p, mu),
              mulMod64(p - 1, p - 1, p));
    EXPECT_EQ(dpuModMul30(ctx, 0, p - 1, p, mu), 0u);
}

TEST(DpuModAddSub30, MatchReference)
{
    DpuConfig cfg;
    Wram wram(cfg.wramBytes);
    Mram mram(cfg.mramBytes);
    TaskletStats stats;
    TaskletCtx ctx(0, 1, cfg, wram, mram, stats);
    const auto p = static_cast<std::uint32_t>(findNttPrimes(30, 64, 1)[0]);
    Rng rng(kSeed + 1);
    for (int it = 0; it < 300; ++it) {
        const std::uint32_t a =
            static_cast<std::uint32_t>(rng.uniform(p));
        const std::uint32_t b =
            static_cast<std::uint32_t>(rng.uniform(p));
        EXPECT_EQ(dpuModAdd30(ctx, a, b, p), addMod64(a, b, p));
        EXPECT_EQ(dpuModSub30(ctx, a, b, p), subMod64(a, b, p));
    }
}

struct NttShape
{
    std::uint32_t n;
    std::uint32_t count;
    unsigned tasklets;
};

class NttKernelShapes : public ::testing::TestWithParam<NttShape>
{
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, NttKernelShapes,
    ::testing::Values(NttShape{16, 1, 1}, NttShape{16, 5, 3},
                      NttShape{64, 4, 4}, NttShape{128, 3, 12},
                      NttShape{256, 2, 2}, NttShape{64, 13, 11}),
    [](const auto &tpi) {
        return "n" + std::to_string(tpi.param.n) + "c" +
               std::to_string(tpi.param.count) + "t" +
               std::to_string(tpi.param.tasklets);
    });

TEST_P(NttKernelShapes, MatchesHostNttEngine)
{
    const auto [n, count, tasklets] = GetParam();
    const std::uint32_t p = static_cast<std::uint32_t>(
        findNttPrimes(30, 2 * n, 1)[0]);
    auto kp = makeNttParams(p, n, count);
    const auto [psi, psi_inv] = psiTables(p, n);

    NttTable host(p, n);
    Rng rng(kSeed + n + count);

    Dpu dpu(DpuConfig{});
    writeU32s(dpu, kp.mramPsi, psi);
    writeU32s(dpu, kp.mramPsiInv, psi_inv);

    std::vector<std::vector<std::uint64_t>> as(count), bs(count);
    std::vector<std::uint32_t> flat_a, flat_b;
    for (std::uint32_t c = 0; c < count; ++c) {
        as[c].resize(n);
        bs[c].resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            as[c][i] = rng.uniform(p);
            bs[c][i] = rng.uniform(p);
            flat_a.push_back(static_cast<std::uint32_t>(as[c][i]));
            flat_b.push_back(static_cast<std::uint32_t>(bs[c][i]));
        }
    }
    writeU32s(dpu, kp.mramA, flat_a);
    writeU32s(dpu, kp.mramB, flat_b);

    dpu.run(tasklets, makeNttMulKernel(kp));

    const auto out = readU32s(dpu, kp.mramOut,
                              static_cast<std::size_t>(count) * n);
    for (std::uint32_t c = 0; c < count; ++c) {
        const auto expect = host.multiply(as[c], bs[c]);
        for (std::uint32_t i = 0; i < n; ++i)
            EXPECT_EQ(out[c * n + i], expect[i])
                << "pair " << c << " coeff " << i;
    }
}

TEST(NttKernel, InstructionCountIsDataIndependent)
{
    const std::uint32_t n = 64;
    const std::uint32_t p = static_cast<std::uint32_t>(
        findNttPrimes(30, 2 * n, 1)[0]);
    auto kp = makeNttParams(p, n, 2);
    const auto [psi, psi_inv] = psiTables(p, n);
    Rng rng(kSeed + 5);
    std::uint64_t expected = 0;
    for (int it = 0; it < 4; ++it) {
        Dpu dpu(DpuConfig{});
        writeU32s(dpu, kp.mramPsi, psi);
        writeU32s(dpu, kp.mramPsiInv, psi_inv);
        std::vector<std::uint32_t> a(2 * n), b(2 * n);
        for (auto &x : a)
            x = static_cast<std::uint32_t>(rng.uniform(p));
        for (auto &x : b)
            x = static_cast<std::uint32_t>(rng.uniform(p));
        writeU32s(dpu, kp.mramA, a);
        writeU32s(dpu, kp.mramB, b);
        const auto stats = dpu.run(8, makeNttMulKernel(kp));
        if (it == 0)
            expected = stats.totalInstructions();
        else
            ASSERT_EQ(stats.totalInstructions(), expected);
    }
}

TEST(NttKernel, AsymptoticallyBeatsSchoolbookOnDpu)
{
    // The future-work payoff: even on gen1 (software multiplier), the
    // O(n log n) product overtakes the O(n^2) convolution kernel.
    const std::uint32_t n = 256;
    const std::uint32_t p = static_cast<std::uint32_t>(
        findNttPrimes(30, 2 * n, 1)[0]);
    auto kp = makeNttParams(p, n, 1);
    const auto [psi, psi_inv] = psiTables(p, n);
    Dpu dpu(DpuConfig{});
    writeU32s(dpu, kp.mramPsi, psi);
    writeU32s(dpu, kp.mramPsiInv, psi_inv);
    std::vector<std::uint32_t> zeros(n, 1);
    writeU32s(dpu, kp.mramA, zeros);
    writeU32s(dpu, kp.mramB, zeros);
    const auto ntt_stats = dpu.run(1, makeNttMulKernel(kp));

    // Schoolbook convolution kernel at the same degree (32-bit).
    const ConvKernelParams cp = makeConvParams(U32(p), n);
    Dpu dpu2(DpuConfig{});
    std::vector<std::uint8_t> z(n * 4, 0);
    dpu2.mram().write(cp.mramA, z.data(), z.size());
    dpu2.mram().write(cp.mramB, z.data(), z.size());
    const auto conv_stats =
        dpu2.run(1, makeNegacyclicConvKernel(cp));

    EXPECT_LT(ntt_stats.totalInstructions() * 4,
              conv_stats.totalInstructions())
        << "NTT should win by >4x at n=256 already";
}

TEST(NttKernel, RejectsBadPrimes)
{
    EXPECT_DEATH(makeNttParams(1u << 30, 64, 1), "too wide");
    EXPECT_DEATH(makeNttParams(97, 64, 1), "not NTT-friendly");
}

} // namespace
} // namespace pimhe
