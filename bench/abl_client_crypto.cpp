/**
 * @file
 * Ablation — client crypto on the NTT-resident basis: the median wall
 * time of one encryption and one decryption at the paper's n = 4096
 * and 109-bit q through Encryptor and Decryptor, against the same
 * draws run through the context's RnsNttConvolver
 * (BfvContext::mulModQ: four 59-bit primes, both operands transformed
 * per product, then ring.add passes and a 2N-limb division per
 * rounded coefficient). Every run's ciphertext and plaintext must be
 * bit-identical between the two paths. The wall-clock claim is the
 * in-run ratio; the basis primes and NTTs per encryption are the
 * structural one, as counts: an encryption transforms u once per
 * prime and inverse-transforms two products per prime (3k NTTs on k
 * primes), where the convolver transforms both operands of each of
 * its two products and inverse-transforms the result (6k).
 */

#include "bench_util.h"
#include "bfv/encryptor.h"
#include "common/timer.h"

using namespace pimhe;
using namespace pimhe::bench;

namespace {

using Ctx = BfvContext<4>;

/** Encryption with both products through the installed convolver,
 *  drawing u, e1 and e2 in Encryptor's order. */
Ciphertext<4>
convolverEncrypt(const Ctx &ctx, const PublicKey<4> &pk, Rng &rng,
                 const Plaintext &pt)
{
    const auto &ring = ctx.ring();
    const auto u = ring.sampleTernary(rng);
    const auto e1 = ring.sampleNoise(rng, ctx.params().noiseEta);
    const auto e2 = ring.sampleNoise(rng, ctx.params().noiseEta);
    Polynomial<4> dm(ring.degree());
    for (std::size_t i = 0; i < ring.degree(); ++i)
        dm[i] = ctx.delta() * U128(pt.coeffs[i] % ctx.plainModulus());
    Ciphertext<4> ct;
    ct.comps.push_back(ring.add(ring.add(ctx.mulModQ(pk.p0, u), e1), dm));
    ct.comps.push_back(ring.add(ctx.mulModQ(pk.p1, u), e2));
    return ct;
}

/** Decryption with c1 * s through the installed convolver and the
 *  rounding as a 256-bit division. */
Plaintext
convolverDecrypt(const Ctx &ctx, const SecretKey<4> &sk,
                 const Ciphertext<4> &ct)
{
    const auto &ring = ctx.ring();
    const auto v = ring.add(ct[0], ctx.mulModQ(ct[1], sk.s));
    const std::uint64_t t = ctx.plainModulus();
    const U256 q = ring.modulus().convert<8>();
    const U256 half_q = q.shr(1);
    Plaintext pt(ring.degree());
    for (std::size_t i = 0; i < ring.degree(); ++i) {
        const U256 tv = v[i].mulFull(U128(t));
        pt.coeffs[i] = divmod(tv + half_q, q).first.toUint64() % t;
    }
    return pt;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return p50(v);
}

} // namespace

int
main()
{
    Report report("abl_client_crypto", "S6",
                  "client crypto on the NTT-resident basis",
                  "an encryption through Encryptor runs >= 2.5x faster "
                  "than the same draws through the RNS-NTT convolver; "
                  "every ciphertext and plaintext bit-identical");

    Ctx ctx(standardParams<4>());
    ctx.setConvolver(std::make_unique<RnsNttConvolver<4>>(ctx.ring()));
    const std::size_t n = ctx.ring().degree();
    Rng key_rng(2023);
    KeyGenerator<4> keygen(ctx, key_rng);
    const PublicKey<4> pk = keygen.makePublicKey();
    const SecretKey<4> &sk = keygen.secretKey();
    // Both paths draw from generators in the same state.
    Rng client_rng(7), convolver_rng(7), values(11);
    const Encryptor<4> enc(ctx, pk, client_rng);
    const Decryptor<4> dec(ctx, sk);

    const std::size_t client_primes =
        NttResidentProducts<4>(ctx.ring()).basis().size();
    const std::size_t conv_primes =
        RnsNttConvolver<4>(ctx.ring()).basis().size();
    std::cout << "n = " << n << ", 109-bit q, t = " << ctx.plainModulus()
              << "\n";

    constexpr int kWarmup = 3;
    constexpr int kRuns = 40;
    std::vector<double> enc_ms, conv_enc_ms, dec_ms, conv_dec_ms;
    bool identical = true;
    for (int run = 0; run < kWarmup + kRuns; ++run) {
        Plaintext pt(n);
        for (auto &c : pt.coeffs)
            c = values.uniform(ctx.plainModulus());
        const Timer te;
        const auto ct = enc.encrypt(pt);
        const double e = te.elapsedMs();
        const Timer tce;
        const auto ref = convolverEncrypt(ctx, pk, convolver_rng, pt);
        const double ce = tce.elapsedMs();
        const Timer td;
        const auto m = dec.decrypt(ct);
        const double d = td.elapsedMs();
        const Timer tcd;
        const auto ref_m = convolverDecrypt(ctx, sk, ref);
        const double cd = tcd.elapsedMs();

        const bool same = ct.size() == ref.size() && ct[0] == ref[0] &&
                          ct[1] == ref[1] && m == ref_m && m == pt;
        if (!same)
            std::cout << "  run " << run << ": outputs differ\n";
        identical = identical && same;
        if (run < kWarmup)
            continue;
        enc_ms.push_back(e);
        conv_enc_ms.push_back(ce);
        dec_ms.push_back(d);
        conv_dec_ms.push_back(cd);
    }

    const double enc_ratio = median(conv_enc_ms) / median(enc_ms);
    const double dec_ratio = median(conv_dec_ms) / median(dec_ms);
    Table t({"path", "basis primes", "NTTs / encryption",
             "encrypt (ms, p50)", "decrypt (ms, p50)"});
    t.addRow({"Encryptor / Decryptor", std::to_string(client_primes),
              std::to_string(3 * client_primes),
              Table::fmt(median(enc_ms), 3),
              Table::fmt(median(dec_ms), 3)});
    t.addRow({"RNS-NTT convolver", std::to_string(conv_primes),
              std::to_string(6 * conv_primes),
              Table::fmt(median(conv_enc_ms), 3),
              Table::fmt(median(conv_dec_ms), 3)});
    report.table(t);
    std::cout << "encryption " << Table::fmtSpeedup(enc_ratio)
              << ", decryption " << Table::fmtSpeedup(dec_ratio)
              << " over the convolver path (" << kRuns << " runs)\n";

    report.series("encrypt_wall_ms", enc_ms);
    report.series("convolver_encrypt_wall_ms", conv_enc_ms);
    report.series("decrypt_wall_ms", dec_ms);
    report.series("convolver_decrypt_wall_ms", conv_dec_ms);
    report.series("client_basis_primes",
                  {static_cast<double>(client_primes)});
    report.series("client_ntts_per_encryption",
                  {static_cast<double>(3 * client_primes)});
    report.series("convolver_basis_primes",
                  {static_cast<double>(conv_primes)});
    report.series("convolver_ntts_per_encryption",
                  {static_cast<double>(6 * conv_primes)});

    std::cout << "\nband checks:\n";
    report.bandCheck("ciphertexts and plaintexts bit-identical",
                     identical ? 1.0 : 0.0, 1.0, 1.0);
    report.bandCheck("encryption speedup over the convolver path",
                     enc_ratio, 2.5, 100000.0);
    const int rc = report.write();
    return identical ? rc : 1;
}
