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

/** The limb sequence of dpuWideAddModQ: s = a + b; d = s - q;
 *  out = (carry | !borrow) ? d : s. Every native lane of
 *  hostWideAddModQ is tested against it. */
inline void
hostWideAddModQLimbs(const std::uint32_t *a, const std::uint32_t *b,
                     const std::uint32_t *q, std::uint32_t *out,
                     std::uint32_t limbs)
{
    std::uint32_t s[pim::kMaxLimbs];
    std::uint32_t d[pim::kMaxLimbs];
    const std::uint32_t carry = hostWideAdd(a, b, s, limbs);
    const std::uint32_t borrow = hostWideSub(s, q, d, limbs);
    const std::uint32_t take_d = carry | (borrow ^ 1u);
    for (std::uint32_t i = 0; i < limbs; ++i)
        out[i] = take_d != 0 ? d[i] : s[i];
}

using u128 = unsigned __int128;

/** sizeof(T) / 4 little-endian limbs as one machine value. */
template <typename T>
inline T
hostLoad(const std::uint32_t *p)
{
    T v = 0;
    for (unsigned i = 0; i < sizeof(T) / 4; ++i)
        v |= static_cast<T>(p[i]) << (32 * i);
    return v;
}

template <typename T>
inline void
hostStore(std::uint32_t *p, T v)
{
    for (unsigned i = 0; i < sizeof(T) / 4; ++i)
        p[i] = static_cast<std::uint32_t>(v >> (32 * i));
}

/** The limb sequence's select (carry out of the top word | no borrow
 *  from s - q picks the subtracted value) in one machine value T of
 *  the operand width, so the result is bit-identical on any input. */
template <typename T>
inline void
hostAddModQLane(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t *out)
{
    const T av = hostLoad<T>(a);
    const T qv = hostLoad<T>(q);
    const T s = av + hostLoad<T>(b);
    const bool carry = s < av;
    const bool borrow = s < qv;
    hostStore<T>(out, carry || !borrow ? T(s - qv) : s);
}

/** Mirror of dpuWideAddModQ: a native lane at 1, 2 and 4 limbs, the
 *  limb sequence otherwise. */
inline void
hostWideAddModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t *out,
                std::uint32_t limbs)
{
    switch (limbs) {
    case 1:
        return hostAddModQLane<std::uint32_t>(a, b, q, out);
    case 2:
        return hostAddModQLane<std::uint64_t>(a, b, q, out);
    case 4:
        return hostAddModQLane<u128>(a, b, q, out);
    default:
        return hostWideAddModQLimbs(a, b, q, out, limbs);
    }
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

/** The limb sequence of dpuWideMulModQ: the exact product, then
 *  hostPseudoMersenneReduce. Every native lane of hostWideMulModQ is
 *  tested against it. */
inline void
hostWideMulModQLimbs(const std::uint32_t *a, const std::uint32_t *b,
                     const std::uint32_t *q, std::uint32_t k,
                     std::uint32_t c, std::uint32_t *out,
                     std::uint32_t limbs)
{
    std::uint32_t prod[2 * pim::kMaxLimbs] = {};
    hostWideMul(a, b, prod, limbs);
    hostPseudoMersenneReduce(prod, k, c, q, out, limbs);
}

/** True when hostWideMulModQ runs a native lane at (limbs, k) rather
 *  than the limb sequence: always at 1 and 2 limbs; at 4 limbs only
 *  for 64 < k < 128, where every shift by k is one word plus 1..63
 *  bits. */
constexpr bool
hostMulLaneAdmits(std::uint32_t limbs, std::uint32_t k)
{
    return limbs == 1 || limbs == 2 || (limbs == 4 && k > 64 && k < 128);
}

/** One pseudo-Mersenne fold of a 4-word value in 64-bit words,
 *  truncated to 3 words like hostFoldOnce into limbs + 2 = 6 limbs:
 *  out = ((in mod 2^k) + (in >> k) * c) mod 2^192, for k = 64 + s
 *  with 0 < s < 64. The product is exact mod 2^192 for any c. */
inline void
hostFoldWords(const std::uint64_t in[4], unsigned s, std::uint64_t c,
              std::uint64_t out[3])
{
    const std::uint64_t h0 = (in[1] >> s) | (in[2] << (64 - s));
    const std::uint64_t h1 = (in[2] >> s) | (in[3] << (64 - s));
    const std::uint64_t h2 = in[3] >> s;
    const u128 p0 = static_cast<u128>(h0) * c;
    const u128 p1 = static_cast<u128>(h1) * c +
                    static_cast<std::uint64_t>(p0 >> 64);
    const std::uint64_t p2 =
        h2 * c + static_cast<std::uint64_t>(p1 >> 64);
    const std::uint64_t lo1 = in[1] & ((std::uint64_t{1} << s) - 1);
    const u128 s0 =
        static_cast<u128>(in[0]) + static_cast<std::uint64_t>(p0);
    const u128 s1 = static_cast<u128>(lo1) +
                    static_cast<std::uint64_t>(p1) +
                    static_cast<std::uint64_t>(s0 >> 64);
    out[0] = static_cast<std::uint64_t>(s0);
    out[1] = static_cast<std::uint64_t>(s1);
    out[2] = p2 + static_cast<std::uint64_t>(s1 >> 64);
}

/**
 * Mirror of dpuWideMulModQ: product then pseudo-Mersenne reduce.
 *
 * The limb sequence computes the exact product, three folds (each
 * truncated to the fold's limb budget) and two conditional
 * subtractions. The native lanes evaluate that SAME fold/truncate/
 * select sequence in machine words, so they are bit-identical on any
 * operands, reduced or not (hostMulLaneAdmits says which (limbs, k)
 * take a lane):
 *  - 1 limb: u64 values; every fold stays below 2^64 while
 *    k <= 32 and c <= 2^(k-1), which the DPU's own bound on c
 *    (c <= 2^(k/2)) implies, so the 3-limb budgets never bind;
 *  - 2 limbs: u128 values; the 4-limb budgets of folds 1 and 2 are
 *    the u128 wrap itself and fold 3's 3-limb budget is a mask;
 *  - 4 limbs: the exact 256-bit product in four u64 words, each fold
 *    in hostFoldWords (6-limb budget = 3 words; fold 3 stays below
 *    its 5-limb budget), then the two subtractions over 160 bits.
 */
inline void
hostWideMulModQ(const std::uint32_t *a, const std::uint32_t *b,
                const std::uint32_t *q, std::uint32_t k,
                std::uint32_t c, std::uint32_t *out,
                std::uint32_t limbs)
{
    if (limbs == 1) {
        const std::uint64_t mask = (1ull << k) - 1;
        std::uint64_t x = static_cast<std::uint64_t>(a[0]) * b[0];
        x = (x >> k) * c + (x & mask);
        x = (x >> k) * c + (x & mask);
        x = (x >> k) * c + (x & mask);
        for (int round = 0; round < 2; ++round)
            if (x >= q[0])
                x -= q[0];
        out[0] = static_cast<std::uint32_t>(x);
        return;
    }
    if (limbs == 2) {
        const std::uint64_t q64 = hostLoad<std::uint64_t>(q);
        const u128 mask = (static_cast<u128>(1) << k) - 1;
        const u128 word3 =
            (static_cast<u128>(1) << 96) - 1; // 3-limb budget
        u128 x = static_cast<u128>(hostLoad<std::uint64_t>(a)) *
                 hostLoad<std::uint64_t>(b);
        x = (x >> k) * c + (x & mask);
        x = (x >> k) * c + (x & mask);
        x = ((x >> k) * c + (x & mask)) & word3;
        for (int round = 0; round < 2; ++round)
            if (x >= q64)
                x -= q64;
        hostStore<std::uint64_t>(out, static_cast<std::uint64_t>(x));
        return;
    }
    if (hostMulLaneAdmits(limbs, k)) {
        const std::uint64_t a0 = hostLoad<std::uint64_t>(a);
        const std::uint64_t a1 = hostLoad<std::uint64_t>(a + 2);
        const std::uint64_t b0 = hostLoad<std::uint64_t>(b);
        const std::uint64_t b1 = hostLoad<std::uint64_t>(b + 2);
        const u128 p00 = static_cast<u128>(a0) * b0;
        const u128 p01 = static_cast<u128>(a0) * b1;
        const u128 p10 = static_cast<u128>(a1) * b0;
        const u128 p11 = static_cast<u128>(a1) * b1;
        const u128 m1 = (p00 >> 64) + static_cast<std::uint64_t>(p01) +
                        static_cast<std::uint64_t>(p10);
        const u128 m2 = (m1 >> 64) + (p01 >> 64) + (p10 >> 64) +
                        static_cast<std::uint64_t>(p11);
        const std::uint64_t x[4] = {
            static_cast<std::uint64_t>(p00),
            static_cast<std::uint64_t>(m1),
            static_cast<std::uint64_t>(m2),
            static_cast<std::uint64_t>(p11 >> 64) +
                static_cast<std::uint64_t>(m2 >> 64)};
        const unsigned s = k - 64;
        std::uint64_t y[4] = {};
        std::uint64_t z[4] = {};
        std::uint64_t w[3];
        hostFoldWords(x, s, c, y);
        hostFoldWords(y, s, c, z);
        // Fold 3's 5-limb budget never binds: z < 2^192, so
        // w < 2^(192-k) * c + 2^k < 2^159 + 2^127.
        hostFoldWords(z, s, c, w);
        const u128 q128 = hostLoad<u128>(q);
        u128 lo = w[0] | (static_cast<u128>(w[1]) << 64);
        std::uint64_t hi = w[2];
        for (int round = 0; round < 2; ++round) {
            if (hi != 0 || lo >= q128) {
                hi -= lo < q128 ? 1 : 0;
                lo -= q128;
            }
        }
        hostStore<u128>(out, lo);
        return;
    }
    hostWideMulModQLimbs(a, b, q, k, c, out, limbs);
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
