/**
 * @file
 * Compiled-kernel fast path for every shipped DPU kernel.
 *
 * The interpreter in pim/dpu.h is the oracle: it computes real values
 * AND charges issue slots per intrinsic, which makes it too slow to
 * simulate thousands of DPUs (the host-parallel engine is wall-clock
 * flat because per-DPU work is dominated by dispatch overhead). Each
 * compiled* factory here returns a pim::CompiledKernel whose fast
 * body reproduces the interpreter bit-exactly at a fraction of the
 * cost, in two halves:
 *
 *  - functional: vectorized host loops mirroring the DPU arithmetic
 *    limb for limb (branch-free selects become ternaries, carry
 *    chains become uint64 accumulators), applied straight to MRAM;
 *    the convolution alone mirrors the arithmetic's value instead of
 *    its steps (runFastConv says why that is still bit-exact);
 *  - timing: per-tasklet instruction/DMA counters composed from the
 *    kernel's loop structure times probed unit costs. Every kernel
 *    is branch-free with respect to data, so the cost of one element
 *    / convolution term / transform is a shape constant — probed
 *    once per launch by running the real interpreter body on a
 *    scratch TaskletCtx (see probeInstructions), never hand-derived.
 *
 * The contract is bit-exactness of semantic outputs and of every
 * modelled TaskletStats field, enforced by ExecMode::Shadow and the
 * differential fuzz suite (tests/test_fastpath_differential.cpp). If
 * a kernel body and its fast mirror ever drift apart, shadow mode
 * panics with the kernel, DPU and first diverging byte range.
 */

#ifndef PIMHE_PIMHE_FAST_KERNELS_H
#define PIMHE_PIMHE_FAST_KERNELS_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "pim/dpu.h"
#include "pim/wide_ops.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"

namespace pimhe {
namespace pimhe_kernels {
namespace fastpath {

/**
 * Instruction cost of a data-independent code fragment, measured by
 * executing it once against a scratch TaskletCtx with the launch's
 * DpuConfig (nativeMul32 changes mul costs, so probing must see the
 * real config). Probes run once per compiled-kernel instance under a
 * std::call_once, so the cost is negligible next to a launch.
 */
template <typename Body>
std::uint64_t
probeInstructions(const pim::DpuConfig &cfg, Body &&body,
                  std::size_t wram_bytes = 512)
{
    pim::Wram wram(wram_bytes);
    pim::Mram mram(64);
    pim::TaskletStats ts;
    pim::TaskletCtx ctx(0, 1, cfg, wram, mram, ts, nullptr);
    body(ctx);
    return ts.instructions;
}

// ---------------------------------------------------------------------
// Host mirrors of the DPU wide-integer arithmetic (pim/wide_ops.h).
// Structural, not just mathematical: the branch-free select/mask
// sequences are mirrored so results match the interpreter bit for bit
// even on unreduced inputs.
// ---------------------------------------------------------------------

inline std::uint32_t
hostWideAdd(const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *out, std::uint32_t limbs)
{
    std::uint64_t carry = 0;
    for (std::uint32_t i = 0; i < limbs; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(a[i]) + b[i] + carry;
        out[i] = static_cast<std::uint32_t>(s);
        carry = s >> 32;
    }
    return static_cast<std::uint32_t>(carry);
}

inline std::uint32_t
hostWideSub(const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *out, std::uint32_t limbs)
{
    std::uint32_t borrow = 0;
    for (std::uint32_t i = 0; i < limbs; ++i) {
        const std::uint64_t rhs =
            static_cast<std::uint64_t>(b[i]) + borrow;
        const std::uint32_t next = a[i] < rhs ? 1u : 0u;
        out[i] = static_cast<std::uint32_t>(a[i] - rhs);
        borrow = next;
    }
    return borrow;
}

/** Mirror of dpuWideAddModQ: s = a + b; d = s - q;
 *  out = (carry | !borrow) ? d : s. */
inline void
hostWideAddModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t *out,
                std::uint32_t limbs)
{
#if defined(__SIZEOF_INT128__)
    // Native fast lanes for the common widths. Same select structure
    // as the limb loop below (carry out of the top word | no borrow
    // from s - q picks the subtracted value), evaluated in one
    // machine word, so the result is bit-identical.
    if (limbs == 1) {
        const std::uint64_t s64 =
            static_cast<std::uint64_t>(a[0]) + b[0];
        const std::uint32_t carry =
            static_cast<std::uint32_t>(s64 >> 32);
        const std::uint32_t s = static_cast<std::uint32_t>(s64);
        const std::uint32_t borrow = s < q[0] ? 1u : 0u;
        out[0] = (carry | (borrow ^ 1u)) != 0 ? s - q[0] : s;
        return;
    }
    if (limbs == 2) {
        using u128 = unsigned __int128;
        const std::uint64_t a64 =
            a[0] | (static_cast<std::uint64_t>(a[1]) << 32);
        const std::uint64_t b64 =
            b[0] | (static_cast<std::uint64_t>(b[1]) << 32);
        const std::uint64_t q64 =
            q[0] | (static_cast<std::uint64_t>(q[1]) << 32);
        const u128 wide = static_cast<u128>(a64) + b64;
        const std::uint32_t carry =
            static_cast<std::uint32_t>(wide >> 64);
        const std::uint64_t s = static_cast<std::uint64_t>(wide);
        const std::uint32_t borrow = s < q64 ? 1u : 0u;
        const std::uint64_t r =
            (carry | (borrow ^ 1u)) != 0 ? s - q64 : s;
        out[0] = static_cast<std::uint32_t>(r);
        out[1] = static_cast<std::uint32_t>(r >> 32);
        return;
    }
#endif
    std::uint32_t s[pim::kMaxLimbs];
    std::uint32_t d[pim::kMaxLimbs];
    const std::uint32_t carry = hostWideAdd(a, b, s, limbs);
    const std::uint32_t borrow = hostWideSub(s, q, d, limbs);
    const std::uint32_t take_d = carry | (borrow ^ 1u);
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = take_d != 0 ? d[i] : s[i];
}

/** Exact 2*limbs product; equals the DPU's Karatsuba result (both
 *  compute the exact integer product). */
inline void
hostWideMul(const std::uint32_t *a, const std::uint32_t *b,
            std::uint32_t *out, std::uint32_t limbs)
{
    std::uint64_t acc[2 * pim::kMaxLimbs + 1] = {};
    for (std::uint32_t i = 0; i < limbs; ++i)
        for (std::uint32_t j = 0; j < limbs; ++j) {
            const std::uint64_t p =
                static_cast<std::uint64_t>(a[i]) * b[j];
            acc[i + j] += p & 0xFFFFFFFFu;
            acc[i + j + 1] += p >> 32;
        }
    std::uint64_t carry = 0;
    for (std::uint32_t k = 0; k < 2 * limbs; ++k) {
        const std::uint64_t v = acc[k] + carry;
        out[k] = static_cast<std::uint32_t>(v);
        carry = v >> 32;
    }
}

/** Mirror of detail::dpuFoldOnce (pseudo-Mersenne fold). */
inline void
hostFoldOnce(const std::uint32_t *in, std::uint32_t in_limbs,
             std::uint32_t k, std::uint32_t c, std::uint32_t *out,
             std::uint32_t out_limbs)
{
    const std::uint32_t limb_shift = k / 32;
    const std::uint32_t bit_shift = k % 32;
    const std::uint32_t hi_limbs =
        in_limbs > limb_shift ? in_limbs - limb_shift : 0;

    std::uint32_t hi[2 * pim::kMaxLimbs] = {};
    for (std::uint32_t i = 0; i < hi_limbs; ++i) {
        std::uint32_t v = in[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < in_limbs)
            v |= in[i + limb_shift + 1] << (32 - bit_shift);
        hi[i] = v;
    }

    std::uint32_t prod[2 * pim::kMaxLimbs + 1] = {};
    std::uint32_t carry = 0;
    for (std::uint32_t i = 0; i < hi_limbs; ++i) {
        const std::uint64_t p =
            static_cast<std::uint64_t>(hi[i]) * c;
        const std::uint64_t lo = (p & 0xFFFFFFFFu) + carry;
        prod[i] = static_cast<std::uint32_t>(lo);
        carry = static_cast<std::uint32_t>((p >> 32) + (lo >> 32));
    }
    prod[hi_limbs] = carry;

    std::uint32_t lo[2 * pim::kMaxLimbs] = {};
    const std::uint32_t lo_limbs =
        std::min(in_limbs, limb_shift + 1);
    for (std::uint32_t i = 0; i < lo_limbs; ++i)
        lo[i] = in[i];
    if (bit_shift != 0 && limb_shift < in_limbs)
        lo[limb_shift] = in[limb_shift] & ((1u << bit_shift) - 1u);
    else if (bit_shift == 0 && limb_shift < in_limbs)
        lo[limb_shift] = 0;

    hostWideAdd(lo, prod, out, out_limbs);
}

/** Mirror of dpuPseudoMersenneReduce (3 folds + 2 cond subs). */
inline void
hostPseudoMersenneReduce(const std::uint32_t *x, std::uint32_t k,
                         std::uint32_t c, const std::uint32_t *q,
                         std::uint32_t *out, std::uint32_t limbs)
{
    std::uint32_t y[2 * pim::kMaxLimbs] = {};
    hostFoldOnce(x, 2 * limbs, k, c, y, limbs + 2);
    std::uint32_t z[2 * pim::kMaxLimbs] = {};
    hostFoldOnce(y, limbs + 2, k, c, z, limbs + 2);
    std::uint32_t w[2 * pim::kMaxLimbs] = {};
    hostFoldOnce(z, limbs + 2, k, c, w, limbs + 1);

    std::uint32_t qext[pim::kMaxLimbs + 1];
    for (std::uint32_t i = 0; i < limbs; ++i)
        qext[i] = q[i];
    qext[limbs] = 0;
    std::uint32_t d[pim::kMaxLimbs + 1];
    for (int round = 0; round < 2; ++round) {
        const std::uint32_t borrow =
            hostWideSub(w, qext, d, limbs + 1);
        for (std::uint32_t i = 0; i < limbs + 1; ++i)
            w[i] = borrow != 0 ? w[i] : d[i];
    }
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = w[i];
}

/** Mirror of dpuWideMulModQ: product then pseudo-Mersenne reduce. */
inline void
hostWideMulModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t k,
                std::uint32_t c, std::uint32_t *out,
                std::uint32_t limbs)
{
#if defined(__SIZEOF_INT128__)
    // Native fast lanes. The generic path computes the exact product
    // then three folds (each truncated to the fold's word budget) and
    // two conditional subtractions; for 1- and 2-limb operands every
    // intermediate fits a machine word pair, so evaluating the SAME
    // fold/truncate/select sequence in u64 / u128 arithmetic is
    // bit-identical — including the third fold's (limbs+1)-word
    // truncation, which is applied explicitly.
    if (limbs == 1) {
        const std::uint64_t mask = (1ull << k) - 1; // k <= 32
        std::uint64_t x = static_cast<std::uint64_t>(a[0]) * b[0];
        x = (x >> k) * c + (x & mask); // fits: c < 2^(k-1)
        x = (x >> k) * c + (x & mask);
        x = ((x >> k) * c + (x & mask)) &
            0xFFFFFFFFFFFFFFFFull; // 2-word budget
        for (int round = 0; round < 2; ++round)
            if (x >= q[0])
                x -= q[0];
        out[0] = static_cast<std::uint32_t>(x);
        return;
    }
    if (limbs == 2) {
        using u128 = unsigned __int128;
        const std::uint64_t a64 =
            a[0] | (static_cast<std::uint64_t>(a[1]) << 32);
        const std::uint64_t b64 =
            b[0] | (static_cast<std::uint64_t>(b[1]) << 32);
        const std::uint64_t q64 =
            q[0] | (static_cast<std::uint64_t>(q[1]) << 32);
        const u128 mask = (static_cast<u128>(1) << k) - 1; // k <= 64
        const u128 word3 =
            (static_cast<u128>(1) << 96) - 1; // 3-word budget
        u128 x = static_cast<u128>(a64) * b64;
        x = (x >> k) * c + (x & mask); // 4-word budget == u128 wrap
        x = (x >> k) * c + (x & mask);
        x = ((x >> k) * c + (x & mask)) & word3;
        for (int round = 0; round < 2; ++round)
            if (x >= q64)
                x -= q64;
        const std::uint64_t r = static_cast<std::uint64_t>(x);
        out[0] = static_cast<std::uint32_t>(r);
        out[1] = static_cast<std::uint32_t>(r >> 32);
        return;
    }
#endif
    std::uint32_t prod[2 * pim::kMaxLimbs] = {};
    hostWideMul(a, b, prod, limbs);
    hostPseudoMersenneReduce(prod, k, c, q, out, limbs);
}

// ---------------------------------------------------------------------
// Elementwise kernels (add / mul / in-place reduce).
// ---------------------------------------------------------------------

/** Per-launch probe cache; shared by every DPU of a launch through
 *  the CompiledKernel's fast closure (std::call_once serialises the
 *  first probe across host threads). */
struct ProbedCost
{
    std::once_flag once;
    std::uint64_t perElement = 0;
};

/** Probe one element of runElementwise (detail::elementStep): limb
 *  loads, the modular op, limb stores, and the charge(3) loop
 *  overhead. */
inline std::uint64_t
probePerElement(const pim::DpuConfig &cfg, const VecKernelParams &p,
                detail::ElementOp op)
{
    return probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        detail::elementStep(ctx, p, 0, 0, 0, op);
    });
}

/**
 * Fast body shared by the elementwise kernels. Mirrors
 * detail::runElementwise chunk for chunk:
 * the same tasklet partition, the same DMA transfer sizes and counts,
 * the same per-chunk charge(5) — but element values come from the
 * host mirrors and per-element instructions from the probed cost.
 * Chunks are processed in tasklet order like the sequential
 * interpreter, so even aliased layouts (the in-place reduce) see
 * writes land in the same order.
 *
 * The interpreter's rounded-up DMA tail (stale WRAM bytes past the
 * last element of an odd 4-byte-element count) is NOT reproduced: it
 * is non-semantic by the alignedTaskletRange contract, and shadow
 * mode compares semantic output ranges only.
 */
inline void
runFastElementwise(pim::FastCtx &f, const VecKernelParams &p,
                   bool multiply, std::uint64_t per_element)
{
    const std::uint32_t eb = p.elemBytes();
    const std::uint32_t chunk_bytes = wramChunkBytes(f.cfg, f.numTasklets);
    const std::uint32_t chunk_elems =
        std::max<std::uint32_t>(1, chunk_bytes / eb);

    std::vector<std::uint32_t> abuf(
        static_cast<std::size_t>(chunk_elems) * p.limbs);
    std::vector<std::uint32_t> bbuf(abuf.size());
    std::vector<std::uint32_t> obuf(abuf.size());
    auto bytesOf = [](std::vector<std::uint32_t> &v) {
        return reinterpret_cast<std::uint8_t *>(v.data());
    };

    for (unsigned t = 0; t < f.numTasklets; ++t) {
        const auto [begin, end] =
            alignedTaskletRange(p.elems, eb, t, f.numTasklets);
        pim::TaskletStats &ts = f.stats.tasklets[t];
        for (std::uint32_t e = begin; e < end; e += chunk_elems) {
            const std::uint32_t count =
                std::min<std::uint32_t>(chunk_elems, end - e);
            const std::uint32_t dma_bytes =
                ((count * eb + 7) / 8) * 8;
            const std::uint64_t off =
                static_cast<std::uint64_t>(e) * eb;
            const std::uint64_t sem =
                static_cast<std::uint64_t>(count) * eb;

            f.mram.read(p.mramA + off, bytesOf(abuf), sem);
            f.chargeDma(t, dma_bytes);
            f.mram.read(p.mramB + off, bytesOf(bbuf), sem);
            f.chargeDma(t, dma_bytes);
            for (std::uint32_t i = 0; i < count; ++i) {
                const std::uint32_t *a =
                    abuf.data() +
                    static_cast<std::size_t>(i) * p.limbs;
                const std::uint32_t *b =
                    bbuf.data() +
                    static_cast<std::size_t>(i) * p.limbs;
                std::uint32_t *o =
                    obuf.data() +
                    static_cast<std::size_t>(i) * p.limbs;
                if (multiply)
                    hostWideMulModQ(a, b, p.q.data(), p.k, p.c, o,
                                    p.limbs);
                else
                    hostWideAddModQ(a, b, p.q.data(), o, p.limbs);
            }
            ts.instructions +=
                static_cast<std::uint64_t>(count) * per_element + 5;
            f.mram.write(p.mramOut + off, bytesOf(obuf), sem);
            f.chargeDma(t, dma_bytes);
        }
    }
}

// ---------------------------------------------------------------------
// Negacyclic convolution.
// ---------------------------------------------------------------------

/**
 * Centred coefficients as signed radix-2^54 digits: lift = sum over u
 * of digit[u] * 2^(54u), every digit carrying the lift's sign. Three
 * digits hold any magnitude below 2^128; the standard moduli's
 * reduced magnitudes (below 2^26, 2^53 and 2^108) need one, one and
 * two. Two digits multiply to less than 2^108, so a column sum of
 * n < 2^17 terms of at most three products each stays below 2^127.
 */
constexpr unsigned kConvDigitBits = 54;
constexpr unsigned kConvMaxDigits = 3;
using ConvDigits = std::array<std::int64_t, kConvMaxDigits>;

/**
 * Centre every coefficient of an n-coefficient operand once, with
 * centreMagnitude's sign (v > floor(q/2)) and magnitude (q - v, taken
 * mod 2^(32 * limbs) like the DPU's limb subtraction, so unreduced
 * input centres the same way), and write its digits to out. Returns
 * the digits the widest magnitude needs.
 */
inline unsigned
hostCentreDigits(const ConvKernelParams &p, const std::uint32_t *poly,
                 ConvDigits *out)
{
    using u128 = unsigned __int128;
    const auto value = [&p](const std::uint32_t *limbs) {
        u128 v = 0;
        for (std::uint32_t l = p.limbs; l-- > 0;)
            v = (v << 32) | limbs[l];
        return v;
    };
    const u128 q = value(p.q.data());
    const u128 half = value(p.halfQ.data());
    const u128 mod_mask =
        p.limbs * 32 >= 128 ? ~u128{0} : (u128{1} << (p.limbs * 32)) - 1;
    constexpr std::uint64_t digit_mask =
        (std::uint64_t{1} << kConvDigitBits) - 1;
    u128 widest = 0;
    for (std::uint32_t i = 0; i < p.n; ++i) {
        const u128 v = value(poly + static_cast<std::size_t>(i) * p.limbs);
        const bool neg = v > half;
        const u128 m = neg ? (q - v) & mod_mask : v;
        widest |= m;
        const std::uint64_t sign = neg ? ~std::uint64_t{0} : 0;
        for (unsigned u = 0; u < kConvMaxDigits; ++u) {
            const std::uint64_t d =
                static_cast<std::uint64_t>(m >> (u * kConvDigitBits)) &
                digit_mask;
            out[i][u] = static_cast<std::int64_t>((d ^ sign) - sign);
        }
    }
    unsigned digits = 1;
    while (digits < kConvMaxDigits &&
           (widest >> (digits * kConvDigitBits)) != 0)
        ++digits;
    return digits;
}

/** acc += v * 2^shift modulo 2^(64 * words), with v the two's-
 *  complement reading of its 128 bits. */
inline void
hostAddShifted(std::uint64_t *acc, std::uint32_t words,
               unsigned __int128 v, unsigned shift)
{
    const std::uint64_t ext = (v >> 127) != 0 ? ~std::uint64_t{0} : 0;
    std::uint64_t w[4] = {static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(v >> 64), ext, ext};
    const unsigned bits = shift % 64;
    if (bits != 0) {
        for (unsigned k = 3; k > 0; --k)
            w[k] = (w[k] << bits) | (w[k - 1] >> (64 - bits));
        w[0] <<= bits;
    }
    std::uint64_t carry = 0;
    for (std::uint32_t k = shift / 64; k < words; ++k) {
        const std::uint32_t s = k - shift / 64;
        const unsigned __int128 sum =
            static_cast<unsigned __int128>(acc[k]) + (s < 4 ? w[s] : ext) +
            carry;
        acc[k] = static_cast<std::uint64_t>(sum);
        carry = static_cast<std::uint64_t>(sum >> 64);
    }
}

/**
 * Output row m of the convolution from Da-digit A and Db-digit B
 * coefficients. Column k sums the digit products of weight 2^(54k):
 * the terms i + j == m add, the wrapped terms i + j == m + n
 * subtract, each in its own loop. The exact columns then fold into
 * the row's accumulator words.
 */
template <unsigned Da, unsigned Db>
void
hostConvRow(const ConvDigits *a, const ConvDigits *b, std::uint32_t n,
            std::uint32_t m, std::uint64_t *acc, std::uint32_t words)
{
    using u128 = unsigned __int128;
    constexpr unsigned cols = Da + Db - 1;
    u128 add[cols] = {};
    u128 sub[cols] = {};
    const auto mac = [](u128 *col, const ConvDigits &x,
                        const ConvDigits &y) {
        for (unsigned u = 0; u < Da; ++u)
            for (unsigned v = 0; v < Db; ++v)
                col[u + v] += static_cast<u128>(
                    static_cast<__int128>(x[u]) * y[v]);
    };
    for (std::uint32_t i = 0; i <= m; ++i)
        mac(add, a[i], b[m - i]);
    for (std::uint32_t i = m + 1; i < n; ++i)
        mac(sub, a[i], b[m + n - i]);
    for (unsigned k = 0; k < cols; ++k)
        hostAddShifted(acc, words, add[k] - sub[k], k * kConvDigitBits);
}

using ConvRowFn = void (*)(const ConvDigits *, const ConvDigits *,
                           std::uint32_t, std::uint32_t, std::uint64_t *,
                           std::uint32_t);

/** The row loop for operands of da and db digits. */
inline ConvRowFn
hostConvRowFor(unsigned da, unsigned db)
{
    static constexpr ConvRowFn rows[kConvMaxDigits][kConvMaxDigits] = {
        {hostConvRow<1, 1>, hostConvRow<1, 2>, hostConvRow<1, 3>},
        {hostConvRow<2, 1>, hostConvRow<2, 2>, hostConvRow<2, 3>},
        {hostConvRow<3, 1>, hostConvRow<3, 2>, hostConvRow<3, 3>},
    };
    return rows[da - 1][db - 1];
}

/** Probe one inner term of the convolution row loop: coefficient
 *  loads, two centrings, the Karatsuba product, the sign xor, the
 *  signed accumulate and the charge(3). */
inline std::uint64_t
probeConvInner(const pim::DpuConfig &cfg, const ConvKernelParams &p)
{
    return probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        std::uint32_t acc[2 * pim::kMaxLimbs] = {};
        std::uint32_t av[pim::kMaxLimbs] = {};
        std::uint32_t bv[pim::kMaxLimbs] = {};
        for (std::uint32_t l = 0; l < p.limbs; ++l) {
            av[l] = ctx.wramLoad32(4 * l);
            bv[l] = ctx.wramLoad32(4 * l);
        }
        std::uint32_t am[pim::kMaxLimbs];
        std::uint32_t bm[pim::kMaxLimbs];
        const std::uint32_t sa = centreMagnitude(ctx, p, av, am);
        const std::uint32_t sb = centreMagnitude(ctx, p, bv, bm);
        std::uint32_t prod[2 * pim::kMaxLimbs] = {};
        pim::dpuWideMulKaratsuba(ctx, am, bm, prod, p.limbs);
        const std::uint32_t negate = ctx.xor_(sa, sb);
        accumulateSigned(ctx, acc, prod, 2 * p.limbs, p.accLimbs(),
                         negate);
        ctx.charge(3);
    });
}

/**
 * Fast body of the negacyclic convolution kernel (plain and
 * row-sharded), mirroring makeNegacyclicConvKernel's tasklet split,
 * DMA transfers and instruction charges. Its arithmetic is not a
 * structural mirror: each coefficient is centred once per run, and
 * rows are exact signed sums of 64x64->128-bit digit products. The
 * interpreter's accumulator is the two's-complement sum of
 * +-mag(a) * mag(b) mod 2^(32 * accLimbs()), with the magnitudes
 * taken mod 2^(32 * limbs); the digits carry the same magnitudes and
 * signs, and the exact sum reduced mod 2^(64 * accLimbs() / 2) is the
 * same value, so the output matches bit for bit on any input.
 */
inline void
runFastConv(pim::FastCtx &f, const ConvKernelParams &p,
            std::uint64_t inner_cost)
{
    const bool sharded = p.mramMeta != ConvKernelParams::kNoRowMeta;
    const std::uint32_t eb = p.limbs * 4;
    const std::uint32_t poly_bytes = p.n * eb;
    const std::uint32_t acc_bytes = p.accLimbs() * 4;
    PIMHE_ASSERT(2 * poly_bytes + (sharded ? 8u : 0u) +
                         f.numTasklets * acc_bytes <=
                     f.cfg.wramBytes,
                 "polynomials do not fit in WRAM; lower n");

    // Tasklet 0 stages both operands (and the metadata block).
    for (std::uint32_t off = 0; off < poly_bytes; off += 2048) {
        const std::uint32_t bytes =
            std::min<std::uint32_t>(2048, poly_bytes - off);
        f.chargeDma(0, bytes);
        f.chargeDma(0, bytes);
    }
    if (sharded)
        f.chargeDma(0, 8);

    std::vector<std::uint32_t> A(
        static_cast<std::size_t>(p.n) * p.limbs);
    std::vector<std::uint32_t> B(A.size());
    f.mram.read(p.mramA, reinterpret_cast<std::uint8_t *>(A.data()),
                poly_bytes);
    f.mram.read(p.mramB, reinterpret_cast<std::uint8_t *>(B.data()),
                poly_bytes);
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = p.n;
    if (sharded) {
        std::uint32_t meta[2];
        f.mram.read(p.mramMeta,
                    reinterpret_cast<std::uint8_t *>(meta), 8);
        row_begin = meta[0];
        row_end = meta[1];
    }

    PIMHE_ASSERT(p.n < (1u << 17), "n = ", p.n,
                 " overflows the convolution's 128-bit column sums");
    std::vector<ConvDigits> ad(p.n);
    std::vector<ConvDigits> bd(p.n);
    const ConvRowFn row = hostConvRowFor(
        hostCentreDigits(p, A.data(), ad.data()),
        hostCentreDigits(p, B.data(), bd.data()));
    const std::uint32_t words = p.accLimbs() / 2;

    for (unsigned t = 0; t < f.numTasklets; ++t) {
        pim::TaskletStats &ts = f.stats.tasklets[t];
        ts.instructions += 1; // barrier
        if (sharded)
            ts.instructions += 2; // row-bound loads
        const auto [tb, te] =
            taskletRange(row_end - row_begin, t, f.numTasklets);
        for (std::uint32_t m = row_begin + tb; m < row_begin + te;
             ++m) {
            std::uint64_t acc[pim::kMaxLimbs] = {};
            row(ad.data(), bd.data(), p.n, m, acc, words);
            std::uint32_t limbs[2 * pim::kMaxLimbs];
            for (std::uint32_t w = 0; w < words; ++w) {
                limbs[2 * w] = static_cast<std::uint32_t>(acc[w]);
                limbs[2 * w + 1] = static_cast<std::uint32_t>(acc[w] >> 32);
            }
            ts.instructions +=
                static_cast<std::uint64_t>(p.n) * inner_cost +
                p.accLimbs() + 5;
            f.mram.write(p.mramOut + static_cast<std::uint64_t>(
                                         m - row_begin) *
                                         acc_bytes,
                         reinterpret_cast<std::uint8_t *>(limbs),
                         acc_bytes);
            f.chargeDma(t, acc_bytes);
        }
    }
}

// ---------------------------------------------------------------------
// NTT product kernel.
// ---------------------------------------------------------------------

/** Mirror of dpuModMul30 (Barrett multiply, two cond subs). */
inline std::uint32_t
hostModMul30(std::uint32_t a, std::uint32_t b, std::uint32_t p,
             std::uint32_t mu)
{
    const std::uint64_t x = static_cast<std::uint64_t>(a) * b;
    const std::uint32_t xhi = static_cast<std::uint32_t>(x >> 29);
    const std::uint64_t est = static_cast<std::uint64_t>(xhi) * mu;
    const std::uint32_t qest = static_cast<std::uint32_t>(est >> 31);
    const std::uint64_t qp = static_cast<std::uint64_t>(qest) * p;
    std::uint32_t r = static_cast<std::uint32_t>(x - qp);
    for (int round = 0; round < 2; ++round) {
        const std::uint32_t d = r - p;
        r = r < p ? r : d;
    }
    return r;
}

inline std::uint32_t
hostModAdd30(std::uint32_t a, std::uint32_t b, std::uint32_t p)
{
    const std::uint32_t s = a + b;
    const std::uint32_t d = s - p;
    return s < p ? s : d;
}

inline std::uint32_t
hostModSub30(std::uint32_t a, std::uint32_t b, std::uint32_t p)
{
    const std::uint32_t d = a - b;
    const std::uint32_t dp = d + p;
    return a < b ? dp : d;
}

/** Mirror of nttForwardInPlace on a host array. */
inline void
hostNttForward(const NttKernelParams &kp, const std::uint32_t *psi,
               std::uint32_t *poly)
{
    std::uint32_t t = kp.n;
    for (std::uint32_t m = 1; m < kp.n; m <<= 1) {
        t >>= 1;
        for (std::uint32_t i = 0; i < m; ++i) {
            const std::uint32_t j1 = 2 * i * t;
            const std::uint32_t s = psi[m + i];
            for (std::uint32_t j = j1; j < j1 + t; ++j) {
                const std::uint32_t u = poly[j];
                const std::uint32_t v =
                    hostModMul30(poly[j + t], s, kp.p, kp.mu);
                poly[j] = hostModAdd30(u, v, kp.p);
                poly[j + t] = hostModSub30(u, v, kp.p);
            }
        }
    }
}

/** Mirror of nttInverseInPlace on a host array. */
inline void
hostNttInverse(const NttKernelParams &kp,
               const std::uint32_t *psi_inv, std::uint32_t *poly)
{
    std::uint32_t t = 1;
    for (std::uint32_t m = kp.n; m > 1; m >>= 1) {
        std::uint32_t j1 = 0;
        const std::uint32_t h = m >> 1;
        for (std::uint32_t i = 0; i < h; ++i) {
            const std::uint32_t s = psi_inv[h + i];
            for (std::uint32_t j = j1; j < j1 + t; ++j) {
                const std::uint32_t u = poly[j];
                const std::uint32_t v = poly[j + t];
                poly[j] = hostModAdd30(u, v, kp.p);
                poly[j + t] = hostModMul30(
                    hostModSub30(u, v, kp.p), s, kp.p, kp.mu);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (std::uint32_t i = 0; i < kp.n; ++i)
        poly[i] = hostModMul30(poly[i], kp.nInv, kp.p, kp.mu);
}

/** Probed unit costs of the NTT kernel: whole forward and inverse
 *  transforms (their loop structure depends only on n) plus one
 *  pointwise-product iteration. */
struct NttProbed
{
    std::once_flag once;
    std::uint64_t forward = 0;
    std::uint64_t inverse = 0;
    std::uint64_t pointwise = 0;
};

inline void
probeNtt(const pim::DpuConfig &cfg, const NttKernelParams &kp,
         NttProbed &out)
{
    const std::size_t poly_bytes =
        static_cast<std::size_t>(kp.n) * 4;
    out.forward = probeInstructions(
        cfg,
        [&](pim::TaskletCtx &ctx) {
            nttForwardInPlace(
                ctx, kp, 0, static_cast<std::uint32_t>(poly_bytes));
        },
        2 * poly_bytes);
    out.inverse = probeInstructions(
        cfg,
        [&](pim::TaskletCtx &ctx) {
            nttInverseInPlace(
                ctx, kp, 0, static_cast<std::uint32_t>(poly_bytes));
        },
        2 * poly_bytes);
    out.pointwise = probeInstructions(cfg, [&](pim::TaskletCtx &ctx) {
        const std::uint32_t prod =
            dpuModMul30(ctx, ctx.wramLoad32(0), ctx.wramLoad32(4),
                        kp.p, kp.mu);
        ctx.wramStore32(0, prod);
        ctx.charge(3);
    });
}

/** Fast body of the NTT product kernel, mirroring makeNttMulKernel. */
inline void
runFastNtt(pim::FastCtx &f, const NttKernelParams &kp,
           const NttProbed &cost)
{
    const std::uint32_t n = kp.n;
    const std::uint32_t poly_bytes = n * 4;
    PIMHE_ASSERT(2 * poly_bytes + f.numTasklets * 2 * poly_bytes <=
                     f.cfg.wramBytes,
                 "NTT working set exceeds WRAM; lower n");

    // Tasklet 0 stages the twiddle tables.
    for (std::uint32_t off = 0; off < poly_bytes; off += 2048) {
        const std::uint32_t bytes =
            std::min<std::uint32_t>(2048, poly_bytes - off);
        f.chargeDma(0, bytes);
        f.chargeDma(0, bytes);
    }

    std::vector<std::uint32_t> psi(n);
    std::vector<std::uint32_t> psi_inv(n);
    std::vector<std::uint32_t> a(n);
    std::vector<std::uint32_t> b(n);
    f.mram.read(kp.mramPsi,
                reinterpret_cast<std::uint8_t *>(psi.data()),
                poly_bytes);
    f.mram.read(kp.mramPsiInv,
                reinterpret_cast<std::uint8_t *>(psi_inv.data()),
                poly_bytes);

    for (unsigned t = 0; t < f.numTasklets; ++t) {
        pim::TaskletStats &ts = f.stats.tasklets[t];
        ts.instructions += 1; // barrier
        const auto [begin, end] =
            taskletRange(kp.count, t, f.numTasklets);
        for (std::uint32_t pair = begin; pair < end; ++pair) {
            const std::uint64_t off =
                static_cast<std::uint64_t>(pair) * poly_bytes;
            for (std::uint32_t o = 0; o < poly_bytes; o += 2048) {
                const std::uint32_t bytes =
                    std::min<std::uint32_t>(2048, poly_bytes - o);
                f.chargeDma(t, bytes);
                f.chargeDma(t, bytes);
            }
            f.mram.read(kp.mramA + off,
                        reinterpret_cast<std::uint8_t *>(a.data()),
                        poly_bytes);
            f.mram.read(kp.mramB + off,
                        reinterpret_cast<std::uint8_t *>(b.data()),
                        poly_bytes);

            hostNttForward(kp, psi.data(), a.data());
            hostNttForward(kp, psi.data(), b.data());
            for (std::uint32_t i = 0; i < n; ++i)
                a[i] = hostModMul30(a[i], b[i], kp.p, kp.mu);
            hostNttInverse(kp, psi_inv.data(), a.data());
            ts.instructions +=
                2 * cost.forward +
                static_cast<std::uint64_t>(n) * cost.pointwise +
                cost.inverse + 6;

            for (std::uint32_t o = 0; o < poly_bytes; o += 2048) {
                const std::uint32_t bytes =
                    std::min<std::uint32_t>(2048, poly_bytes - o);
                f.chargeDma(t, bytes);
            }
            f.mram.write(kp.mramOut + off,
                         reinterpret_cast<std::uint8_t *>(a.data()),
                         poly_bytes);
        }
    }
}

} // namespace fastpath

// ---------------------------------------------------------------------
// Compiled factories: interpreter body + fast body + semantic output
// regions, one per registered kernel family. Deliberately NOT named
// make*Kernel — the registry coverage scan treats that prefix as "new
// kernel family needing a registry row".
// ---------------------------------------------------------------------

namespace detail {

/** An elementwise CompiledKernel: `interpret` as the interpreter body,
 *  runFastElementwise as the fast body, its per-element instruction
 *  count probed from `op`. */
inline pim::CompiledKernel
compiledElementwise(const char *name, pim::Kernel interpret,
                    const VecKernelParams &p, bool multiply, ElementOp op)
{
    pim::CompiledKernel ck;
    ck.name = name;
    ck.interpret = std::move(interpret);
    ck.outputs = {{p.mramOut,
                   p.mramOut + static_cast<std::uint64_t>(p.elems) *
                                   p.elemBytes(),
                   "result"}};
    auto cost = std::make_shared<fastpath::ProbedCost>();
    ck.fast = [p, multiply, op, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            cost->perElement = fastpath::probePerElement(f.cfg, p, op);
        });
        fastpath::runFastElementwise(f, p, multiply, cost->perElement);
    };
    return ck;
}

} // namespace detail

/** Compiled elementwise modular add (also the in-place reduce round:
 *  pass p.mramOut == p.mramA). */
inline pim::CompiledKernel
compiledVecAddModQ(const VecKernelParams &p)
{
    return detail::compiledElementwise(
        p.mramOut == p.mramA ? "vec-add-modq-inplace" : "vec-add-modq",
        makeVecAddModQKernel(p), p, false, detail::addElement);
}

/** Compiled elementwise modular multiply. */
inline pim::CompiledKernel
compiledVecMulModQ(const VecKernelParams &p)
{
    return detail::compiledElementwise(
        "vec-mul-modq", makeVecMulModQKernel(p), p, true,
        detail::mulElement);
}

/** Compiled negacyclic convolution (plain or row-sharded). */
inline pim::CompiledKernel
compiledNegacyclicConv(const ConvKernelParams &p)
{
    const bool sharded = p.mramMeta != ConvKernelParams::kNoRowMeta;
    // Widest-shard row count, like convKernelFootprint: per-DPU shards
    // may be narrower, which only over-approximates the compare range
    // (untouched bytes are identical across the shadow pair).
    const std::uint32_t rows =
        sharded ? (p.rowEnd == 0 ? p.n : p.rowEnd) - p.rowBegin : p.n;
    pim::CompiledKernel ck;
    ck.name = sharded ? "negacyclic-conv-sharded" : "negacyclic-conv";
    ck.interpret = makeNegacyclicConvKernel(p);
    ck.outputs = {{p.mramOut,
                   p.mramOut + static_cast<std::uint64_t>(rows) *
                                   p.accLimbs() * 4,
                   "accumulators"}};
    auto cost = std::make_shared<fastpath::ProbedCost>();
    ck.fast = [p, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            cost->perElement = fastpath::probeConvInner(f.cfg, p);
        });
        fastpath::runFastConv(f, p, cost->perElement);
    };
    return ck;
}

/** Compiled NTT polynomial product. */
inline pim::CompiledKernel
compiledNttMul(const NttKernelParams &kp)
{
    pim::CompiledKernel ck;
    ck.name = "ntt-mul";
    ck.interpret = makeNttMulKernel(kp);
    ck.outputs = {{kp.mramOut,
                   kp.mramOut + static_cast<std::uint64_t>(kp.count) *
                                    kp.n * 4,
                   "result"}};
    auto cost = std::make_shared<fastpath::NttProbed>();
    ck.fast = [kp, cost](pim::FastCtx &f) {
        std::call_once(cost->once, [&] {
            fastpath::probeNtt(f.cfg, kp, *cost);
        });
        fastpath::runFastNtt(f, kp, *cost);
    };
    return ck;
}

} // namespace pimhe_kernels
} // namespace pimhe

#endif // PIMHE_PIMHE_FAST_KERNELS_H
