/**
 * @file
 * Ablation — device-resident ciphertext reuse: how many host<->DPU
 * bus bytes (and how much modelled time) the resident orchestration
 * avoids versus re-staging every operand for every launch.
 *
 * Two experiments, both full simulations with the pre-launch static
 * verifier armed:
 *
 *  1. tree reduction of a ciphertext vector (the mean/variance
 *     aggregation shape): a tree of staged addCiphertextVectors
 *     re-uploads each round's operands and downloads each round's
 *     sums, while the resident path uploads the packed slices once,
 *     folds them in MRAM across log2(m) launches, and downloads one
 *     ciphertext;
 *  2. negacyclic convolution row-sharded across K DPUs versus a
 *     single DPU: the shards cut the critical-path kernel time while
 *     staying bit-exact.
 *
 * Unlike the figure benches, the band checks here are acceptance
 * gates for the resident layer itself (>= 2x fewer bus bytes, K = 8
 * convolution faster than K = 1, bit-equal results), so the process
 * exits nonzero when any of them fails.
 */

#include "bench_util.h"
#include "common/rng.h"
#include "pimhe/orchestrator.h"

using namespace pimhe;
using namespace pimhe::bench;

namespace {

constexpr std::size_t kLimbs = 2;

pim::SystemConfig
makeSystem(std::size_t dpus)
{
    pim::SystemConfig cfg = pim::paperSystem();
    cfg.numDpus = dpus;
    cfg.verifyBeforeLaunch = true;
    return cfg;
}

/** Random ciphertext with coefficients below q — the arithmetic the
 *  kernels run is identical on encrypted and raw data, and skipping
 *  keygen keeps the bench fast. */
Ciphertext<kLimbs>
randomCiphertext(Rng &rng, const BfvContext<kLimbs> &ctx)
{
    const std::size_t n = ctx.ring().degree();
    Ciphertext<kLimbs> ct;
    for (std::size_t c = 0; c < 2; ++c) {
        ct.comps.emplace_back(n);
        for (std::size_t i = 0; i < n; ++i) {
            WideInt<kLimbs> w;
            for (std::size_t l = 0; l < kLimbs; ++l)
                w.setLimb(l, rng.next32());
            ct[c][i] = mod(w, ctx.ring().modulus());
        }
    }
    return ct;
}

/** Tree of staged adds: every round uploads its operand halves and
 *  downloads their sums; an odd leftover waits for the next round. */
Ciphertext<kLimbs>
stagedTreeSum(PimHeSystem<kLimbs> &sys,
              std::vector<Ciphertext<kLimbs>> cur)
{
    while (cur.size() > 1) {
        const std::size_t half = cur.size() / 2;
        auto sums = sys.addCiphertextVectors(
            {cur.begin(), cur.begin() + half},
            {cur.begin() + half, cur.begin() + 2 * half});
        if (cur.size() % 2)
            sums.push_back(std::move(cur.back()));
        cur = std::move(sums);
    }
    return cur.front();
}

} // namespace

int
main()
{
    Report report("abl_resident_reuse", "S4",
                  "device-resident ciphertext reuse",
                  "resident reduction moves >= 2x fewer bus bytes "
                  "than re-staging; row-sharded convolution beats one "
                  "DPU; all paths bit-exact");

    bool all_pass = true;
    const auto gate = [&](const std::string &label, double value,
                          double lo, double hi) {
        report.bandCheck(label, value, lo, hi);
        all_pass = all_pass && value >= lo && value <= hi;
    };

    // ---- experiment 1: tree reduction, staged vs resident ----
    const std::size_t n = 1024;
    const std::size_t cts = 32;
    const std::size_t dpus = 16;
    const BfvParams<kLimbs> params =
        standardParams<kLimbs>().withDegree(n);
    BfvContext<kLimbs> ctx(params);
    Rng rng(0x5EED0F0D);
    std::vector<Ciphertext<kLimbs>> vec;
    for (std::size_t i = 0; i < cts; ++i)
        vec.push_back(randomCiphertext(rng, ctx));

    std::cout << "reduction: " << cts << " ciphertexts, n = " << n
              << ", " << kLimbs * 32 << "-bit coefficients, " << dpus
              << " DPUs\n\n";

    PimHeSystem<kLimbs> staged(ctx, makeSystem(dpus), dpus, 12);
    const auto staged_sum = stagedTreeSum(staged, vec);
    const auto &sx = staged.transferTotals();

    PimHeSystem<kLimbs> resident(ctx, makeSystem(dpus), dpus, 12);
    const auto resident_sum = resident.reduceCiphertexts(vec);
    const auto &rx = resident.transferTotals();

    Table t({"strategy", "bus bytes", "uploads", "downloads",
             "launches", "modelled ms"});
    t.addRow({"staged", std::to_string(sx.busBytes()),
              std::to_string(sx.uploads), std::to_string(sx.downloads),
              std::to_string(staged.dpuSet().launches().size()),
              Table::fmt(staged.totalModeledMs(), 3)});
    t.addRow({"resident", std::to_string(rx.busBytes()),
              std::to_string(rx.uploads), std::to_string(rx.downloads),
              std::to_string(resident.dpuSet().launches().size()),
              Table::fmt(resident.totalModeledMs(), 3)});
    report.table(t);
    report.series("staged_bus_bytes",
                  {static_cast<double>(sx.busBytes())});
    report.series("resident_bus_bytes",
                  {static_cast<double>(rx.busBytes())});
    report.series("resident_bytes_avoided",
                  {static_cast<double>(rx.residentBytesReused) +
                   static_cast<double>(
                       resident.residentStats().bytesAvoided)});

    bool sums_equal = staged_sum.size() == resident_sum.size();
    for (std::size_t c = 0; sums_equal && c < staged_sum.size(); ++c)
        sums_equal = staged_sum[c] == resident_sum[c];

    std::cout << "\nband checks:\n";
    gate("staged / resident bus bytes",
         static_cast<double>(sx.busBytes()) /
             static_cast<double>(rx.busBytes()),
         2.0, 1e6);
    gate("staged / resident modelled time",
         staged.totalModeledMs() / resident.totalModeledMs(), 1.2,
         1e6);
    gate("reduction results bit-equal", sums_equal ? 1.0 : 0.0, 1.0,
         1.0);

    // ---- experiment 2: row-sharded convolution ----
    const std::size_t conv_n = 256;
    const BfvParams<kLimbs> cparams =
        standardParams<kLimbs>().withDegree(conv_n);
    BfvContext<kLimbs> cctx(cparams);
    Polynomial<kLimbs> pa(conv_n), pb(conv_n);
    for (std::size_t i = 0; i < conv_n; ++i) {
        WideInt<kLimbs> w;
        for (std::size_t l = 0; l < kLimbs; ++l)
            w.setLimb(l, rng.next32());
        pa[i] = mod(w, cctx.ring().modulus());
        for (std::size_t l = 0; l < kLimbs; ++l)
            w.setLimb(l, rng.next32());
        pb[i] = mod(w, cctx.ring().modulus());
    }

    std::cout << "\nconvolution: n = " << conv_n << ", " << kLimbs * 32
              << "-bit coefficients\n\n";
    Table ct({"DPUs", "kernel ms", "total modelled ms"});
    std::vector<double> kernel_ms;
    std::vector<std::vector<U256>> conv_results;
    for (const std::size_t k : {1ul, 8ul}) {
        const PimConvolver<kLimbs> conv(cctx.ring(), makeSystem(k), 12, k);
        conv_results.push_back(conv.convolveCentered(pa, pb));
        const double kms = conv.dpuSet().lastLaunch().kernelMs;
        kernel_ms.push_back(kms);
        ct.addRow({std::to_string(k), Table::fmt(kms, 3),
                   Table::fmt(conv.dpuSet().totalModeledMs(), 3)});
    }
    report.table(ct);
    report.series("conv_kernel_ms", kernel_ms);

    bool conv_equal = true;
    for (std::size_t i = 0; i < conv_n; ++i)
        conv_equal =
            conv_equal && conv_results[0][i] == conv_results[1][i];

    std::cout << "\nband checks:\n";
    gate("conv kernel speedup, 8 DPUs vs 1", kernel_ms[0] / kernel_ms[1],
         1.2, 16.0);
    gate("conv results bit-equal", conv_equal ? 1.0 : 0.0, 1.0, 1.0);

    const int rc = report.write();
    return all_pass ? rc : 1;
}
