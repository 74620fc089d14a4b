/**
 * @file
 * Secure survey: the paper's motivating scenario. A set of users
 * submit encrypted readings (say, ages in a health survey); the
 * server — a PIM system — computes the encrypted sum and sum of
 * squares; only the survey owner can decrypt, and then derives the
 * mean and variance with plain scalar arithmetic.
 *
 *   ./build/examples/secure_survey --users 48 --seed 7
 */

#include <iostream>

#include "common/cli.h"
#include "workloads/statistics.h"
#include "pimhe/orchestrator.h"

using namespace pimhe;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"users", "seed", "dpus"});
    const std::size_t users =
        static_cast<std::size_t>(args.getInt("users", 16));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 7));
    const std::size_t dpus =
        static_cast<std::size_t>(args.getInt("dpus", 8));

    const auto params = standardParams<4>().withDegree(32);
    BfvContext<4> ctx(params);
    Rng rng(seed);
    KeyGenerator<4> keygen(ctx, rng);
    const auto pk = keygen.makePublicKey();
    Encryptor<4> enc(ctx, pk, rng);
    Decryptor<4> dec(ctx, keygen.secretKey());

    // Synthesise survey data: ages 18..59. The homomorphic sum of
    // squares must stay below the plaintext modulus t = 65537, which
    // bounds users * max_age^2.
    if (users * 59 * 59 >= params.t)
        fatal("too many users for t=", params.t,
              "; keep users <= ", params.t / (59 * 59));
    Rng data_rng(seed ^ 0xBADC0DE);
    std::vector<std::uint64_t> ages(users);
    for (auto &a : ages)
        a = 18 + data_rng.uniform(42);

    // Run the variance pipeline with the squares computed on PIM. The
    // users' encryptions and decryptions stay on the host (their keys
    // are NTT-resident), so the convolver runs only the squares.
    pim::SystemConfig cfg;
    cfg.numDpus = dpus;
    auto conv =
        std::make_unique<PimConvolver<4>>(ctx.ring(), cfg, 12);
    const auto *conv_ptr = conv.get();
    ctx.setConvolver(std::move(conv));

    workloads::EncryptedVariance<4> variance(ctx, enc, dec);
    workloads::EncryptedMean<4> mean(ctx, enc, dec);

    const double mean_result = mean.run(ages);
    const double var_result = variance.run(ages);

    // Plaintext ground truth.
    double pmean = 0;
    for (const auto a : ages)
        pmean += static_cast<double>(a);
    pmean /= static_cast<double>(users);
    double pvar = 0;
    for (const auto a : ages)
        pvar += (static_cast<double>(a) - pmean) *
                (static_cast<double>(a) - pmean);
    pvar /= static_cast<double>(users);

    std::cout << "secure survey over " << users
              << " users (PIM squares on " << dpus << " DPUs)\n";
    std::cout << "  encrypted mean:     " << mean_result
              << "   (plaintext " << pmean << ")\n";
    std::cout << "  encrypted variance: " << var_result
              << "   (plaintext " << pvar << ")\n";
    std::cout << "  modelled PIM convolution time (squares): "
              << conv_ptr->dpuSet().totalModeledMs() << " ms\n";

    const bool ok = mean_result == pmean && var_result == pvar;
    std::cout << (ok ? "OK" : "MISMATCH") << "\n";
    return ok ? 0 : 1;
}
