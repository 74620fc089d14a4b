/**
 * @file
 * Cross-product sweep through the full PIM-HE path: every width x
 * system shape x tasklet count combination must keep
 * encrypt -> PIM op -> decrypt exact and bit-identical with the host
 * evaluator. This is the repository's widest integration net.
 */

#include <gtest/gtest.h>

#include "pimhe/orchestrator.h"
#include "test_util.h"

namespace pimhe {
namespace {

using pimhe::testing::BfvHarness;
using pimhe::testing::kSeed;

// Every field is a size_t so the struct has no padding: gtest prints
// the parameter as a byte dump, CMake's test discovery puts that dump
// into the ctest name, and uninitialised padding bytes would make the
// name change from one build to the next.
struct SweepShape
{
    std::size_t dpus;
    std::size_t tasklets;
    std::size_t cts;
};
static_assert(sizeof(SweepShape) == 3 * sizeof(std::size_t));

class PimSweep : public ::testing::TestWithParam<SweepShape>
{
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PimSweep,
    ::testing::Values(SweepShape{1, 1, 1}, SweepShape{1, 11, 3},
                      SweepShape{2, 12, 2}, SweepShape{3, 8, 7},
                      SweepShape{5, 16, 4}, SweepShape{7, 24, 9},
                      SweepShape{8, 2, 8}, SweepShape{13, 12, 5}),
    [](const auto &tpi) {
        return "d" + std::to_string(tpi.param.dpus) + "t" +
               std::to_string(tpi.param.tasklets) + "c" +
               std::to_string(tpi.param.cts);
    });

template <std::size_t N>
void
sweepOnce(const SweepShape &shape)
{
    BfvHarness<N> h(16, kSeed + shape.dpus * 131 + shape.tasklets);
    pim::SystemConfig cfg;
    cfg.numDpus = shape.dpus;
    cfg.verifyBeforeLaunch = true;
    PimHeSystem<N> server(h.ctx, cfg, shape.dpus,
                          static_cast<unsigned>(shape.tasklets));

    std::vector<Ciphertext<N>> as, bs;
    std::vector<std::uint64_t> va, vb;
    Rng vals(kSeed + shape.cts);
    for (std::size_t i = 0; i < shape.cts; ++i) {
        va.push_back(vals.uniform(h.params.t));
        vb.push_back(vals.uniform(h.params.t));
        as.push_back(h.encryptScalar(va.back()));
        bs.push_back(h.encryptScalar(vb.back()));
    }

    // Addition: decrypts correctly and matches the host evaluator
    // bit for bit.
    const auto sums = server.addCiphertextVectors(as, bs);
    for (std::size_t i = 0; i < shape.cts; ++i) {
        EXPECT_EQ(h.decryptScalar(sums[i]),
                  (va[i] + vb[i]) % h.params.t)
            << "ct " << i;
        const auto host = h.eval.add(as[i], bs[i]);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_TRUE(host[c] == sums[i][c]) << "ct " << i;
    }

    // Coefficientwise multiplication matches the Barrett reference.
    const auto prods = server.mulCoefficientwise(as, bs);
    const auto &red = h.ctx.ring().reducer();
    for (std::size_t i = 0; i < shape.cts; ++i)
        for (std::size_t c = 0; c < 2; ++c)
            for (std::size_t j = 0; j < h.params.n; ++j)
                EXPECT_EQ(prods[i][c][j],
                          red.mulMod(as[i][c][j], bs[i][c][j]))
                    << "ct " << i << " comp " << c << " coeff " << j;

    // Reduction of the whole vector.
    std::uint64_t total = 0;
    for (const auto v : va)
        total += v;
    EXPECT_EQ(h.decryptScalar(server.reduceCiphertexts(as)),
              total % h.params.t);
}

TEST_P(PimSweep, Width32)
{
    sweepOnce<1>(GetParam());
}

TEST_P(PimSweep, Width64)
{
    sweepOnce<2>(GetParam());
}

TEST_P(PimSweep, Width128)
{
    sweepOnce<4>(GetParam());
}

} // namespace
} // namespace pimhe
