/**
 * @file
 * DPU kernels for homomorphic operations — the paper's contribution.
 *
 * Three kernels cover everything the paper offloads to PIM:
 *
 *  - vector add:  elementwise (a + b) mod q over flat coefficient
 *    arrays (homomorphic addition of ciphertext vectors);
 *  - vector mul:  elementwise (a * b) mod q (the per-coefficient
 *    building block of homomorphic multiplication), Karatsuba over
 *    32-bit chunks exactly as described in the paper;
 *  - negacyclic convolution: full polynomial product with signed
 *    double-width accumulators, used when whole BFV tensor products
 *    run on the PIM system.
 *
 * Every kernel is shape-deterministic: its instruction count depends
 * only on (elems, limbs, tasklets), which the analytic cost model in
 * cost_model.h exploits.
 */

#ifndef PIMHE_PIMHE_KERNELS_H
#define PIMHE_PIMHE_KERNELS_H

#include <array>
#include <cstdint>
#include <string>

#include "analysis/footprint.h"
#include "bfv/params.h"
#include "pim/dpu.h"
#include "pim/wide_ops.h"

namespace pimhe {
namespace pimhe_kernels {

/** Shared shape/layout parameters of the elementwise kernels. */
struct VecKernelParams
{
    std::uint64_t mramA = 0;   //!< MRAM byte offset of operand A
    std::uint64_t mramB = 0;   //!< MRAM byte offset of operand B
    std::uint64_t mramOut = 0; //!< MRAM byte offset of the result
    std::uint32_t elems = 0;   //!< elements on this DPU
    std::uint32_t limbs = 1;   //!< 32-bit limbs per element (1/2/4)
    std::uint32_t k = 0;       //!< modulus bit length (q = 2^k - c)
    std::uint32_t c = 0;       //!< pseudo-Mersenne fold constant
    std::array<std::uint32_t, 4> q{}; //!< modulus limbs

    std::uint32_t elemBytes() const { return limbs * 4; }
};

/**
 * The elementwise parameter block of modulus q over `elems` elements:
 * k and c of q = 2^k - c (which must be pseudo-Mersenne with a 32-bit
 * c), the q limbs, and the default layout of A, B and Out back to back
 * from offset 0, each array rounded up to the 8-byte DMA granule.
 * Callers that place their own regions overwrite the addresses.
 */
template <std::size_t N>
VecKernelParams
makeVecParams(const WideInt<N> &q, std::size_t elems)
{
    static_assert(N <= 4, "kernels support up to 128-bit widths");
    VecKernelParams kp;
    kp.elems = static_cast<std::uint32_t>(elems);
    kp.limbs = N;
    kp.k = static_cast<std::uint32_t>(q.bitLength());
    const WideInt<N> c = WideInt<N>::oneShl(kp.k) - q;
    PIMHE_ASSERT(c.fitsUint64() && c.toUint64() >> 32 == 0,
                 "modulus is not pseudo-Mersenne with 32-bit c");
    kp.c = static_cast<std::uint32_t>(c.toUint64());
    for (std::size_t l = 0; l < N; ++l)
        kp.q[l] = q.limb(l);
    const std::uint64_t arr = pim::sliceLayout(elems, 1, N * 4).stride;
    kp.mramB = arr;
    kp.mramOut = 2 * arr;
    return kp;
}

/** WRAM staging buffers per tasklet of the elementwise kernels: the
 *  A, B and OUT chunks. */
inline constexpr std::uint32_t kElementwiseBuffers = 3;

/**
 * Bytes of WRAM one tasklet may use per staging buffer. The
 * elementwise kernels keep kElementwiseBuffers buffers live at once
 * (A chunk, B chunk, OUT chunk). Each tasklet's stack
 * (analysis::kDefaultStackBytes, which the launch verifier charges)
 * shares the same WRAM, so it comes off the tasklet's share before
 * the three buffers split the rest.
 */
inline std::uint32_t
wramChunkBytes(const pim::DpuConfig &cfg, unsigned num_tasklets)
{
    const std::size_t share = cfg.wramBytes / num_tasklets;
    const std::size_t budget =
        share > analysis::kDefaultStackBytes
            ? (share - analysis::kDefaultStackBytes) / kElementwiseBuffers
            : 0;
    std::uint32_t bytes = 8;
    while (bytes * 2 <= budget && bytes * 2 <= 2048)
        bytes *= 2;
    return bytes;
}

/** Contiguous [begin, end) element range owned by one tasklet. */
inline std::pair<std::uint32_t, std::uint32_t>
taskletRange(std::uint32_t elems, unsigned tasklet, unsigned tasklets)
{
    const std::uint32_t base = elems / tasklets;
    const std::uint32_t extra = elems % tasklets;
    const std::uint32_t begin =
        tasklet * base + std::min<std::uint32_t>(tasklet, extra);
    const std::uint32_t count = base + (tasklet < extra ? 1 : 0);
    return {begin, begin + count};
}

/**
 * taskletRange with every boundary aligned to the 8-byte DMA
 * granularity: elements are partitioned in groups of
 * lcm(elem_bytes, 8) / elem_bytes, so one tasklet's chunked DMA —
 * whose tail transfer is rounded up to a multiple of 8 bytes — never
 * spills into the next tasklet's byte range. Without this, 4-byte
 * elements split at an odd index make adjacent tasklets DMA-write
 * overlapping MRAM words: benign under serialized simulation, a
 * write/write race on real hardware.
 */
inline std::pair<std::uint32_t, std::uint32_t>
alignedTaskletRange(std::uint32_t elems, std::uint32_t elem_bytes,
                    unsigned tasklet, unsigned tasklets)
{
    // Element sizes are limb multiples of 4 bytes, so the group size
    // is 2 for 4-byte elements and 1 otherwise.
    const std::uint32_t granule = elem_bytes % 8 == 0 ? 1 : 2;
    if (granule == 1)
        return taskletRange(elems, tasklet, tasklets);
    const std::uint32_t groups = (elems + granule - 1) / granule;
    const auto [gbegin, gend] =
        taskletRange(groups, tasklet, tasklets);
    return {std::min(gbegin * granule, elems),
            std::min(gend * granule, elems)};
}

namespace detail {

/** Signature of an elementwise kernel's modular op on one element:
 *  out = f(a, b). */
using ElementOp = void (*)(pim::TaskletCtx &, const VecKernelParams &,
                           const std::uint32_t *, const std::uint32_t *,
                           std::uint32_t *);

/**
 * One element of runElementwise: load its limbs of a and b from the
 * WRAM buffers at wa/wb, apply `op`, store the result at wo, and
 * charge the loop overhead. The fast path probes this same step for
 * its per-element instruction count.
 */
inline void
elementStep(pim::TaskletCtx &ctx, const VecKernelParams &p,
            std::uint32_t wa, std::uint32_t wb, std::uint32_t wo,
            ElementOp op)
{
    std::uint32_t a[pim::kMaxLimbs] = {};
    std::uint32_t b[pim::kMaxLimbs] = {};
    std::uint32_t out[pim::kMaxLimbs] = {};
    for (std::uint32_t l = 0; l < p.limbs; ++l) {
        a[l] = ctx.wramLoad32(wa + 4 * l);
        b[l] = ctx.wramLoad32(wb + 4 * l);
    }
    op(ctx, p, a, b, out);
    for (std::uint32_t l = 0; l < p.limbs; ++l)
        ctx.wramStore32(wo + 4 * l, out[l]);
    ctx.charge(3); // loop index/branch overhead
}

inline void
addElement(pim::TaskletCtx &ctx, const VecKernelParams &p,
           const std::uint32_t *a, const std::uint32_t *b,
           std::uint32_t *out)
{
    pim::dpuWideAddModQ(ctx, a, b, p.q.data(), out, p.limbs);
}

inline void
mulElement(pim::TaskletCtx &ctx, const VecKernelParams &p,
           const std::uint32_t *a, const std::uint32_t *b,
           std::uint32_t *out)
{
    pim::dpuWideMulModQ(ctx, a, b, p.q.data(), p.k, p.c, out, p.limbs);
}

/**
 * Shared chunked elementwise loop: DMA the A and B chunks into
 * WRAM, apply `op` per element, DMA the result back. Three WRAM
 * buffers per tasklet.
 */
inline void
runElementwise(pim::TaskletCtx &ctx, const VecKernelParams &p,
               ElementOp op)
{
    const std::uint32_t elem_bytes = p.elemBytes();
    const std::uint32_t chunk_bytes =
        wramChunkBytes(ctx.config(), ctx.numTasklets());
    const std::uint32_t chunk_elems =
        std::max<std::uint32_t>(1, chunk_bytes / elem_bytes);

    const std::uint32_t wa = ctx.id() * kElementwiseBuffers * chunk_bytes;
    const std::uint32_t wb = wa + chunk_bytes;
    const std::uint32_t wo = wb + chunk_bytes;

    const auto [begin, end] = alignedTaskletRange(
        p.elems, elem_bytes, ctx.id(), ctx.numTasklets());

    for (std::uint32_t e = begin; e < end; e += chunk_elems) {
        const std::uint32_t count =
            std::min<std::uint32_t>(chunk_elems, end - e);
        // DMA sizes must be 8-byte multiples; element sizes are 4,
        // 8 or 16 bytes, so round the tail up to 8.
        const std::uint32_t bytes = ((count * elem_bytes + 7) / 8) * 8;
        const std::uint64_t off = std::uint64_t(e) * elem_bytes;
        ctx.mramRead(p.mramA + off, wa, bytes);
        ctx.mramRead(p.mramB + off, wb, bytes);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t at = i * elem_bytes;
            elementStep(ctx, p, wa + at, wb + at, wo + at, op);
        }
        ctx.mramWrite(wo, p.mramOut + off, bytes);
        ctx.charge(5); // chunk loop overhead
    }
}

/**
 * Parametric per-tasklet access model of the chunked elementwise
 * kernels, shared by the add/mul/in-place-reduce footprints. Mirrors
 * runElementwise exactly: the A, B and OUT buffer slots at
 * id * kElementwiseBuffers * chunk in WRAM, and on MRAM the union of
 * every chunk DMA, which tiles [begin*eb, roundUp8(end*eb))
 * contiguously because alignedTaskletRange keeps begin*eb a multiple
 * of 8 and every non-tail chunk moves a multiple of 8 bytes.
 */
inline analysis::TaskletAccessFn
elementwiseAccessModel(const VecKernelParams &p,
                       const pim::DpuConfig &cfg)
{
    return [p, cfg](unsigned t, unsigned N) {
        std::vector<analysis::SymAccess> out;
        if (N == 0 || t >= N)
            return out;
        const std::uint32_t eb = p.elemBytes();
        const std::uint32_t chunk = wramChunkBytes(cfg, N);
        const auto [begin, end] =
            alignedTaskletRange(p.elems, eb, t, N);
        if (begin >= end)
            return out;
        const std::uint32_t chunk_elems =
            std::max<std::uint32_t>(1, chunk / eb);
        // Per-iteration WRAM span: the largest single chunk staged,
        // rounded to the DMA granule. When eb > chunk this honestly
        // exceeds the buffer stride (the real hazard the verifier
        // exists to catch); in the supported grid chunk >= 512 >= eb.
        const std::uint64_t span =
            (static_cast<std::uint64_t>(std::min<std::uint32_t>(
                 chunk_elems, end - begin)) *
                 eb +
             7) /
            8 * 8;
        const std::uint64_t wbase =
            static_cast<std::uint64_t>(t) * kElementwiseBuffers * chunk;
        static const char *const kSlot[kElementwiseBuffers] = {
            "A chunk", "B chunk", "OUT chunk"};
        for (unsigned i = 0; i < kElementwiseBuffers; ++i) {
            const std::uint64_t wb =
                wbase + static_cast<std::uint64_t>(i) * chunk;
            out.push_back({analysis::Space::Wram, 0, wb, wb + span,
                           true, kSlot[i]});
        }
        const std::uint64_t mb = static_cast<std::uint64_t>(begin) * eb;
        const std::uint64_t me =
            (static_cast<std::uint64_t>(end) * eb + 7) / 8 * 8;
        out.push_back({analysis::Space::Mram, 0, p.mramA + mb,
                       p.mramA + me, false, "operand A"});
        out.push_back({analysis::Space::Mram, 0, p.mramB + mb,
                       p.mramB + me, false, "operand B"});
        out.push_back({analysis::Space::Mram, 0, p.mramOut + mb,
                       p.mramOut + me, true, "result"});
        return out;
    };
}

} // namespace detail

/**
 * Elementwise modular addition kernel: out[i] = (a[i] + b[i]) mod q.
 * One add + (limbs-1) addc per element, exactly the paper's
 * construction of 64- and 128-bit addition from 32-bit instructions.
 */
inline pim::Kernel
makeVecAddModQKernel(VecKernelParams p)
{
    return [p](pim::TaskletCtx &ctx) {
        detail::runElementwise(ctx, p, detail::addElement);
    };
}

/**
 * Elementwise modular multiplication kernel:
 * out[i] = (a[i] * b[i]) mod q via Karatsuba over 32-bit chunks plus
 * pseudo-Mersenne reduction. On gen1 hardware every 32x32 product
 * expands to the mul_step sequence — the effect behind the paper's
 * Key Takeaway 2.
 */
inline pim::Kernel
makeVecMulModQKernel(VecKernelParams p)
{
    return [p](pim::TaskletCtx &ctx) {
        detail::runElementwise(ctx, p, detail::mulElement);
    };
}

namespace detail {

/**
 * Static resource footprint of the chunked elementwise kernels at a
 * planned tasklet count. Mirrors runElementwise exactly: three chunk
 * buffers per tasklet, flat MRAM arrays, chunked 8-byte-aligned DMA.
 */
inline analysis::KernelFootprint
elementwiseFootprint(std::string kernel, const VecKernelParams &p,
                     const pim::DpuConfig &cfg, unsigned tasklets)
{
    analysis::KernelFootprint fp;
    fp.kernel = std::move(kernel);
    fp.minTasklets = 1;
    fp.maxTasklets = cfg.maxTasklets;

    const std::uint32_t elem_bytes = p.elemBytes();
    const std::uint32_t chunk = wramChunkBytes(cfg, std::max(1u, tasklets));
    fp.wramBytesPerTasklet = kElementwiseBuffers * chunk;

    const std::uint64_t arr =
        (static_cast<std::uint64_t>(p.elems) * elem_bytes + 7) / 8 * 8;
    fp.mramRegions = {
        {"operand A", p.mramA, arr, analysis::Access::Read},
        {"operand B", p.mramB, arr, analysis::Access::Read},
        {"result", p.mramOut, arr, analysis::Access::Write},
    };

    // Every transfer is min(chunk_elems, tail) elements rounded up to
    // the 8-byte DMA granule; alignedTaskletRange keeps each element
    // offset a multiple of 8 bytes, so guaranteed address alignment
    // reduces to the base offsets'.
    const std::uint32_t chunk_elems =
        std::max<std::uint32_t>(1, chunk / elem_bytes);
    analysis::DmaPattern dma;
    dma.name = "chunk staging";
    dma.minBytes = 8;
    dma.maxBytes = (chunk_elems * elem_bytes + 7) / 8 * 8;
    dma.mramAlign = std::min({analysis::alignmentOf(p.mramA),
                              analysis::alignmentOf(p.mramB),
                              analysis::alignmentOf(p.mramOut)});
    dma.wramAlign = 8; // chunk is a power of two >= 8
    fp.dmaPatterns = {dma};
    fp.taskletAccess = elementwiseAccessModel(p, cfg);
    return fp;
}

} // namespace detail

/** Footprint of the add and mul kernels (one memory shape). */
inline analysis::KernelFootprint
vecKernelFootprint(const VecKernelParams &p, const pim::DpuConfig &cfg,
                   unsigned tasklets, bool multiply)
{
    return detail::elementwiseFootprint(
        multiply ? "vec-mul-modq" : "vec-add-modq", p, cfg, tasklets);
}

/**
 * Footprint of an in-place reduction round: the vector-add kernel run
 * with its output region aliased onto operand A (p.mramOut == p.mramA),
 * as issued by PimHeSystem::reduceResident to fold MRAM-resident
 * partials without any host round trip. The aliased pair is declared
 * as a single ReadWrite region so the verifier's cross-region clobber
 * check still applies between the accumulator and operand B — which a
 * correct round keeps disjoint by construction (the pair count never
 * exceeds the fold offset). The inherited access model evaluates with
 * mramOut == mramA, so the symbolic prover re-derives that claim for
 * every (t, N) instead of trusting this comment.
 */
inline analysis::KernelFootprint
reduceRoundFootprint(const VecKernelParams &p,
                     const pim::DpuConfig &cfg, unsigned tasklets)
{
    analysis::KernelFootprint fp = detail::elementwiseFootprint(
        "vec-add-modq-inplace", p, cfg, tasklets);
    const std::uint64_t arr = fp.mramRegions.front().bytes;
    fp.mramRegions = {
        {"accumulator (in-place)", p.mramA, arr,
         analysis::Access::ReadWrite},
        {"operand B", p.mramB, arr, analysis::Access::Read},
    };
    return fp;
}

/** Parameters of the negacyclic convolution kernel. */
struct ConvKernelParams
{
    std::uint64_t mramA = 0;  //!< operand A, n x limbs coefficients
    std::uint64_t mramB = 0;  //!< operand B
    std::uint64_t mramOut = 0;//!< result, n x accLimbs() accumulators
    std::uint32_t n = 0;      //!< ring degree
    std::uint32_t limbs = 1;  //!< coefficient limbs
    std::array<std::uint32_t, 4> q{};    //!< modulus limbs
    std::array<std::uint32_t, 4> halfQ{};//!< floor(q/2) limbs

    /** Sentinel for mramMeta: no row-shard metadata, the DPU computes
     *  all n output coefficients exactly as the original kernel did. */
    static constexpr std::uint64_t kNoRowMeta = ~0ull;

    /**
     * MRAM byte offset of an 8-byte row-shard metadata block
     * {uint32 rowBegin, uint32 rowEnd}, or kNoRowMeta. The same kernel
     * runs on every DPU of a launch, so per-DPU output ranges travel
     * through MRAM like any other per-DPU data: the host writes a
     * different block to each DPU and the kernel reads its own. The
     * DPU then computes coefficients [rowBegin, rowEnd) and writes
     * them compactly at mramOut + (m - rowBegin) * accBytes.
     */
    std::uint64_t mramMeta = kNoRowMeta;

    /**
     * Host-side mirror of the widest shard's row range, used only by
     * convKernelFootprint (a verified launch carries one footprint for
     * all DPUs, so it must bound the largest shard). Ignored when
     * mramMeta == kNoRowMeta; rowEnd == 0 means n.
     */
    std::uint32_t rowBegin = 0;
    std::uint32_t rowEnd = 0;

    /** Two's-complement accumulator limbs (pim::convAccLimbs). */
    std::uint32_t
    accLimbs() const
    {
        return static_cast<std::uint32_t>(pim::convAccLimbs(limbs));
    }
};

/**
 * The convolution parameter block of modulus q at ring degree n: the
 * q and floor(q/2) limbs, and operands A and B then the accumulators
 * back to back from offset 0, each operand rounded up to the 8-byte
 * DMA granule. Unsharded; callers that shard rows or place their own
 * regions overwrite those fields.
 */
template <std::size_t N>
ConvKernelParams
makeConvParams(const WideInt<N> &q, std::size_t n)
{
    static_assert(N <= 4, "kernels support up to 128-bit widths");
    ConvKernelParams kp;
    kp.n = static_cast<std::uint32_t>(n);
    kp.limbs = N;
    const WideInt<N> half = q.shr(1);
    for (std::size_t l = 0; l < N; ++l) {
        kp.q[l] = q.limb(l);
        kp.halfQ[l] = half.limb(l);
    }
    const std::uint64_t arr = pim::sliceLayout(n, 1, N * 4).stride;
    kp.mramB = arr;
    kp.mramOut = 2 * arr;
    return kp;
}

namespace detail {

/** make(q) over the standard modulus (standardParams) of a width
 *  picked at run time. */
template <typename Make>
auto
withStandardModulus(std::size_t limbs, Make make)
{
    if (limbs == 1)
        return make(standardParams<1>().q);
    if (limbs == 2)
        return make(standardParams<2>().q);
    PIMHE_ASSERT(limbs == 4, "no standard modulus is ", limbs,
                 " limbs wide");
    return make(standardParams<4>().q);
}

} // namespace detail

/**
 * makeVecParams and makeConvParams over the standard modulus of a
 * width (1, 2 or 4 limbs) chosen at run time, for callers that only
 * need a kernel of the right shape: the cost model's probes and the
 * benches.
 */
inline VecKernelParams
standardVecParams(std::size_t limbs, std::size_t elems)
{
    return detail::withStandardModulus(limbs, [elems](const auto &q) {
        return makeVecParams(q, elems);
    });
}

inline ConvKernelParams
standardConvParams(std::size_t limbs, std::size_t n)
{
    return detail::withStandardModulus(
        limbs, [n](const auto &q) { return makeConvParams(q, n); });
}

/**
 * Centre a reduced coefficient: if v > q/2 the magnitude is q - v and
 * the sign is negative. Branch-free. Returns the sign bit (1 =
 * negative); writes the magnitude.
 */
inline std::uint32_t
centreMagnitude(pim::TaskletCtx &ctx, const ConvKernelParams &p,
                const std::uint32_t *v, std::uint32_t *mag)
{
    // is_neg = (halfQ < v)  <=>  halfQ - v borrows... compute
    // v - halfQ and check no borrow and nonzero; simpler: borrow of
    // (halfQ - v) is 1 exactly when v > halfQ.
    std::uint32_t scratch[pim::kMaxLimbs];
    const std::uint32_t is_neg =
        pim::dpuWideSub(ctx, p.halfQ.data(), v, scratch, p.limbs);
    // qmv = q - v (valid when v != 0; v == 0 is never negative).
    std::uint32_t qmv[pim::kMaxLimbs];
    pim::dpuWideSub(ctx, p.q.data(), v, qmv, p.limbs);
    for (std::uint32_t l = 0; l < p.limbs; ++l)
        mag[l] = ctx.select(is_neg != 0, qmv[l], v[l]);
    return is_neg;
}

/**
 * acc += (negate ? -prod : prod), two's complement over acc_limbs
 * with prod sign-extended from prod_limbs (prod is an unsigned
 * magnitude below 2^(32*prod_limbs - 1)).
 */
inline void
accumulateSigned(pim::TaskletCtx &ctx, std::uint32_t *acc,
                 const std::uint32_t *prod, std::uint32_t prod_limbs,
                 std::uint32_t acc_limbs, std::uint32_t negate)
{
    // mask = negate ? ~0 : 0; term = prod ^ mask (+ negate), i.e. the
    // two's-complement negation folded into the addc chain.
    const std::uint32_t mask = ctx.sub(0, negate);
    ctx.setCarryFlag(negate & 1);
    for (std::uint32_t l = 0; l < acc_limbs; ++l) {
        const std::uint32_t pv = l < prod_limbs ? prod[l] : 0;
        acc[l] = ctx.addc(acc[l], ctx.xor_(pv, mask));
    }
}

/**
 * Negacyclic convolution kernel with centred operands:
 *
 *   out[m] = sum_{i+j == m} lift(a[i]) * lift(b[j])
 *          - sum_{i+j == m+n} lift(a[i]) * lift(b[j])
 *
 * over the integers, in two's-complement accLimbs()-limb values. The
 * host finishes the BFV scale-and-round. Both operand polynomials are
 * staged to WRAM once (they must fit); each tasklet owns a contiguous
 * slice of output coefficients.
 */
inline pim::Kernel
makeNegacyclicConvKernel(ConvKernelParams p)
{
    return [p](pim::TaskletCtx &ctx) {
        const bool sharded =
            p.mramMeta != ConvKernelParams::kNoRowMeta;
        const std::uint32_t elem_bytes = p.limbs * 4;
        const std::uint32_t poly_bytes = p.n * elem_bytes;
        const std::uint32_t acc_bytes = p.accLimbs() * 4;
        const std::uint32_t wa = 0;
        const std::uint32_t wb = poly_bytes;
        // Shared row-metadata slot (8 bytes, sharded mode only), then
        // one output staging slot per tasklet.
        const std::uint32_t wmeta = 2 * poly_bytes;
        const std::uint32_t wo = 2 * poly_bytes +
                                 (sharded ? 8u : 0u) +
                                 ctx.id() * acc_bytes;
        PIMHE_ASSERT(2 * poly_bytes + (sharded ? 8u : 0u) +
                             ctx.numTasklets() * acc_bytes <=
                         ctx.config().wramBytes,
                     "polynomials do not fit in WRAM; lower n");

        // Tasklet 0 stages both operands; the barrier orders the
        // staging writes before every tasklet's reads (on hardware it
        // is a real barrier_wait, here it advances the checker epoch).
        if (ctx.id() == 0) {
            for (std::uint32_t off = 0; off < poly_bytes; off += 2048) {
                const std::uint32_t bytes =
                    std::min<std::uint32_t>(2048, poly_bytes - off);
                ctx.mramRead(p.mramA + off, wa + off, bytes);
                ctx.mramRead(p.mramB + off, wb + off, bytes);
            }
            if (sharded)
                ctx.mramRead(p.mramMeta, wmeta, 8);
        }
        ctx.barrier();

        std::uint32_t row_begin = 0;
        std::uint32_t row_end = p.n;
        if (sharded) {
            row_begin = ctx.wramLoad32(wmeta);
            row_end = ctx.wramLoad32(wmeta + 4);
        }
        const auto [tbegin, tend] = taskletRange(
            row_end - row_begin, ctx.id(), ctx.numTasklets());
        const std::uint32_t begin = row_begin + tbegin;
        const std::uint32_t end = row_begin + tend;
        for (std::uint32_t m = begin; m < end; ++m) {
            std::uint32_t acc[2 * pim::kMaxLimbs] = {};
            for (std::uint32_t i = 0; i < p.n; ++i) {
                const bool wraps = i > m;
                const std::uint32_t j = wraps ? m + p.n - i : m - i;

                // Load and centre both coefficients.
                std::uint32_t av[pim::kMaxLimbs] = {};
                std::uint32_t bv[pim::kMaxLimbs] = {};
                for (std::uint32_t l = 0; l < p.limbs; ++l) {
                    av[l] = ctx.wramLoad32(wa + i * elem_bytes + 4 * l);
                    bv[l] = ctx.wramLoad32(wb + j * elem_bytes + 4 * l);
                }
                std::uint32_t am[pim::kMaxLimbs];
                std::uint32_t bm[pim::kMaxLimbs];
                const std::uint32_t sa =
                    centreMagnitude(ctx, p, av, am);
                const std::uint32_t sb =
                    centreMagnitude(ctx, p, bv, bm);

                // Unsigned product of magnitudes, then signed
                // accumulate with sign sa ^ sb (negacyclic wrap flips
                // it once more).
                std::uint32_t prod[2 * pim::kMaxLimbs] = {};
                pim::dpuWideMulKaratsuba(ctx, am, bm, prod, p.limbs);
                const std::uint32_t negate =
                    ctx.xor_(sa, sb) ^ (wraps ? 1u : 0u);
                accumulateSigned(ctx, acc, prod, 2 * p.limbs,
                                 p.accLimbs(), negate);
                ctx.charge(3); // inner loop overhead
            }
            for (std::uint32_t l = 0; l < p.accLimbs(); ++l)
                ctx.wramStore32(wo + 4 * l, acc[l]);
            ctx.mramWrite(wo,
                          p.mramOut +
                              std::uint64_t(m - row_begin) * acc_bytes,
                          acc_bytes);
            ctx.charge(5); // outer loop overhead
        }
    };
}

/**
 * Static resource footprint of the negacyclic convolution kernel.
 * WRAM holds both operand polynomials once (shared) plus one
 * accumulator staging slot per tasklet; maxTasklets is the layout's
 * own ceiling including the stack reserve, which the verifier checks
 * against the planned count.
 */
inline analysis::KernelFootprint
convKernelFootprint(const ConvKernelParams &p,
                    const pim::DpuConfig &cfg)
{
    const bool sharded = p.mramMeta != ConvKernelParams::kNoRowMeta;
    const std::uint32_t rows =
        sharded ? (p.rowEnd == 0 ? p.n : p.rowEnd) - p.rowBegin : p.n;

    analysis::KernelFootprint fp;
    fp.kernel = sharded ? "negacyclic-conv-sharded" : "negacyclic-conv";
    fp.minTasklets = 1;

    const std::uint64_t poly_bytes =
        static_cast<std::uint64_t>(p.n) * p.limbs * 4;
    const std::uint32_t acc_bytes = p.accLimbs() * 4;
    const std::uint32_t shared =
        static_cast<std::uint32_t>(2 * poly_bytes) + (sharded ? 8u : 0u);
    fp.wramSharedBytes = shared;
    fp.wramBytesPerTasklet = acc_bytes;

    const std::uint64_t per_tasklet =
        static_cast<std::uint64_t>(acc_bytes) + fp.stackBytesPerTasklet;
    const std::uint64_t avail =
        cfg.wramBytes > shared ? cfg.wramBytes - shared : 0;
    fp.maxTasklets = static_cast<unsigned>(
        std::min<std::uint64_t>(cfg.maxTasklets, avail / per_tasklet));

    fp.mramRegions = {
        {"operand A", p.mramA, poly_bytes, analysis::Access::Read},
        {"operand B", p.mramB, poly_bytes, analysis::Access::Read},
        {"accumulators", p.mramOut,
         static_cast<std::uint64_t>(rows) * acc_bytes,
         analysis::Access::Write},
    };
    if (sharded)
        fp.mramRegions.push_back({"row metadata", p.mramMeta, 8,
                                  analysis::Access::Read});

    // Operand staging runs in 2048-byte strides with a tail of
    // poly_bytes mod 2048; poly_bytes is a multiple of 8 for every
    // power-of-two degree, so the tail stays a legal transfer.
    analysis::DmaPattern stage;
    stage.name = "operand staging";
    stage.maxBytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(2048, poly_bytes));
    stage.minBytes = poly_bytes % 2048 == 0
                         ? stage.maxBytes
                         : static_cast<std::uint32_t>(poly_bytes % 2048);
    stage.mramAlign = std::min(analysis::alignmentOf(p.mramA),
                               analysis::alignmentOf(p.mramB));
    stage.wramAlign = 8;
    // One accumulator writeback per output coefficient (accLimbs() is
    // rounded to an even limb count precisely for this transfer).
    analysis::DmaPattern writeback;
    writeback.name = "accumulator writeback";
    writeback.minBytes = acc_bytes;
    writeback.maxBytes = acc_bytes;
    writeback.mramAlign = analysis::alignmentOf(p.mramOut);
    writeback.wramAlign = static_cast<std::uint32_t>(
        analysis::alignmentOf(2 * poly_bytes + (sharded ? 8u : 0u)));
    fp.dmaPatterns = {stage, writeback};
    if (sharded) {
        analysis::DmaPattern meta;
        meta.name = "row metadata read";
        meta.minBytes = 8;
        meta.maxBytes = 8;
        meta.mramAlign = analysis::alignmentOf(p.mramMeta);
        meta.wramAlign = static_cast<std::uint32_t>(
            analysis::alignmentOf(2 * poly_bytes));
        fp.dmaPatterns.push_back(meta);
    }

    // Parametric access model, mirroring the kernel body: epoch 0 is
    // tasklet 0 staging both operands (and the metadata block) into
    // shared WRAM; the barrier() separates it from epoch 1, where
    // every tasklet reads the shared area, owns one accumulator slot
    // and writes a contiguous run of output rows. Rows use the widest
    // shard, matching the declared region envelope.
    fp.taskletAccess = [p, poly_bytes, acc_bytes, shared, sharded,
                        rows](unsigned t, unsigned N) {
        std::vector<analysis::SymAccess> out;
        if (N == 0 || t >= N)
            return out;
        if (t == 0) {
            out.push_back({analysis::Space::Wram, 0, 0, shared, true,
                           "operand staging"});
            out.push_back({analysis::Space::Mram, 0, p.mramA,
                           p.mramA + poly_bytes, false, "operand A"});
            out.push_back({analysis::Space::Mram, 0, p.mramB,
                           p.mramB + poly_bytes, false, "operand B"});
            if (sharded)
                out.push_back({analysis::Space::Mram, 0, p.mramMeta,
                               p.mramMeta + 8, false, "row metadata"});
        }
        out.push_back({analysis::Space::Wram, 1, 0, shared, false,
                       "staged operands"});
        const std::uint64_t wo =
            shared + static_cast<std::uint64_t>(t) * acc_bytes;
        out.push_back({analysis::Space::Wram, 1, wo, wo + acc_bytes,
                       true, "accumulator slot"});
        const auto [tb, te] = taskletRange(rows, t, N);
        if (tb < te)
            out.push_back(
                {analysis::Space::Mram, 1,
                 p.mramOut + static_cast<std::uint64_t>(tb) * acc_bytes,
                 p.mramOut + static_cast<std::uint64_t>(te) * acc_bytes,
                 true, "result rows"});
        return out;
    };
    return fp;
}

} // namespace pimhe_kernels
} // namespace pimhe

#endif // PIMHE_PIMHE_KERNELS_H
