/**
 * @file
 * Central registry of every DPU kernel family the library ships.
 *
 * Each row pairs a make*Kernel factory with the launch plans its
 * footprint builder produces over the supported parameter grid (the
 * paper's three security levels for the elementwise kernels, the
 * WRAM-fit degree envelope for convolution, the ablation lengths for
 * NTT). It is the only list of shipped launch plans, and it exists so
 * coverage is a checkable property instead of a convention:
 *
 *  - tools/pim_prove runs every registered plan, at every tasklet
 *    count from 1 to its footprint's ceiling, through the two kernel
 *    checks of DpuSet's launch gate: the LaunchVerifier budgets and
 *    the symbolic race prover;
 *  - tests/test_kernel_registry.cpp greps src/pimhe for kernel
 *    factories and fails when one ships without a registry row — i.e.
 *    without a footprint builder and a parametric access model.
 *
 * Adding a kernel therefore means adding its factory, its footprint
 * builder (with taskletAccess), and one registry row; forgetting the
 * row is a test failure, forgetting the model is a prover failure.
 */

#ifndef PIMHE_PIMHE_KERNEL_REGISTRY_H
#define PIMHE_PIMHE_KERNEL_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "analysis/footprint.h"
#include "bfv/params.h"
#include "modular/mod64.h"
#include "pim/config.h"
#include "pimhe/fast_kernels.h"
#include "pimhe/kernels.h"
#include "pimhe/ntt_kernel.h"

namespace pimhe {
namespace pimhe_kernels {

/** One concrete launch plan of a kernel family: the footprint plus a
 *  human-readable parameter tag for diagnostics. */
struct KernelPlan
{
    analysis::KernelFootprint footprint;
    std::string params; //!< e.g. "27-bit, n=1024"
};

/** One registered kernel family. */
struct KernelFamily
{
    std::string factory; //!< make*Kernel function name (audited)
    std::string title;   //!< short description for reports
    /** All launch plans of this family over the supported grid, with
     *  footprints built for a launch of `tasklets` tasklets. */
    std::function<std::vector<KernelPlan>(const pim::DpuConfig &,
                                          unsigned tasklets)>
        plans;

    /**
     * Build this family's CompiledKernel (fast_kernels.h) for a
     * representative shape, proving a fast implementation exists and
     * is wired to the same factory. Families without one must carry a
     * non-empty fastWaiver explaining why they are interpreter-only;
     * tests/test_kernel_registry.cpp enforces the either/or, so "every
     * kernel has a fast path or an explicit waiver" is a checkable
     * property rather than a convention.
     */
    std::function<pim::CompiledKernel()> compiled;
    std::string fastWaiver; //!< reason a family is interpreter-only
};

/** NTT lengths of the ablation the NTT plans cover. */
inline constexpr std::uint32_t kNttLengths[] = {256, 1024, 2048};

namespace detail {

/** The standard level-N block (real modulus, so registry-built
 *  compiled kernels are runnable: the suppression audit executes
 *  them). */
template <std::size_t N>
VecKernelParams
registryVecParams()
{
    const auto params = standardParams<N>();
    return makeVecParams(params.q, params.n);
}

template <std::size_t N>
std::string
levelTag()
{
    return levelName(N == 1 ? SecurityLevel::Bits27
                     : N == 2 ? SecurityLevel::Bits54
                              : SecurityLevel::Bits109);
}

template <std::size_t N>
void
appendVecPlans(const pim::DpuConfig &cfg, unsigned tasklets,
               bool multiply, std::vector<KernelPlan> &out)
{
    const VecKernelParams kp = registryVecParams<N>();
    out.push_back({vecKernelFootprint(kp, cfg, tasklets, multiply),
                   levelTag<N>() + ", n=" + std::to_string(kp.elems)});
}

template <std::size_t N>
void
appendReducePlans(const pim::DpuConfig &cfg, unsigned tasklets,
                  std::vector<KernelPlan> &out)
{
    // One fold round of an 8-ciphertext tree reduction in the resident
    // layout: slices of n elements packed back to back, the upper half
    // added onto the lower in place (mramOut == mramA).
    VecKernelParams kp = registryVecParams<N>();
    const std::uint32_t n = kp.elems;
    const std::uint32_t hh = 4, pairs = 4;
    kp.mramB = hh * kp.mramB;
    kp.mramOut = 0;
    kp.elems = pairs * n;
    out.push_back(
        {reduceRoundFootprint(kp, cfg, tasklets),
         levelTag<N>() + ", 8->4 fold, n=" + std::to_string(n)});
}

template <std::size_t N>
void
appendConvPlans(const pim::DpuConfig &cfg, std::vector<KernelPlan> &out)
{
    const auto params = standardParams<N>();
    // Largest power-of-two degree whose WRAM layout admits >= 1
    // tasklet: the envelope the shipped reduced-degree tests stay in.
    for (std::uint32_t n = static_cast<std::uint32_t>(params.n); n >= 4;
         n /= 2) {
        const ConvKernelParams cp = makeConvParams(params.q, n);
        const auto plain = convKernelFootprint(cp, cfg);
        if (plain.maxTasklets < 1)
            continue;
        out.push_back({plain, levelTag<N>() + ", n=" +
                                  std::to_string(n) + ", 1 DPU"});

        // Sharded variant: shard 0 of a 4-DPU row split (the widest,
        // which bounds the whole launch's footprint).
        ConvKernelParams sp = cp;
        const auto [b0, e0] = analysis::rowShardRange(n, 4, 0);
        sp.rowBegin = b0;
        sp.rowEnd = e0;
        sp.mramMeta = sp.mramOut +
                      std::uint64_t(e0 - b0) * sp.accLimbs() * 4;
        out.push_back({convKernelFootprint(sp, cfg),
                       levelTag<N>() + ", n=" + std::to_string(n) +
                           ", 4-DPU shard"});
        break;
    }
}

inline void
appendNttPlans(const pim::DpuConfig &cfg, std::vector<KernelPlan> &out)
{
    for (const std::uint32_t n : kNttLengths) {
        const auto primes = findNttPrimes(30, 2ULL * n, 1);
        if (primes.empty())
            continue; // pim_prove's interval sweep fails the length
        const auto nkp = makeNttParams(
            static_cast<std::uint32_t>(primes.front()), n, /*count=*/4);
        out.push_back({nttKernelFootprint(nkp, cfg),
                       "n=" + std::to_string(n) + ", 4 pairs"});
    }
}

} // namespace detail

/** The registry: one row per shipped make*Kernel factory. */
inline const std::vector<KernelFamily> &
kernelRegistry()
{
    static const std::vector<KernelFamily> rows = {
        {"makeVecAddModQKernel", "elementwise modular add",
         [](const pim::DpuConfig &cfg, unsigned tasklets) {
             std::vector<KernelPlan> out;
             detail::appendVecPlans<1>(cfg, tasklets, false, out);
             detail::appendVecPlans<2>(cfg, tasklets, false, out);
             detail::appendVecPlans<4>(cfg, tasklets, false, out);
             detail::appendReducePlans<1>(cfg, tasklets, out);
             detail::appendReducePlans<2>(cfg, tasklets, out);
             detail::appendReducePlans<4>(cfg, tasklets, out);
             return out;
         },
         [] { return compiledVecAddModQ(detail::registryVecParams<2>()); },
         ""},
        {"makeVecMulModQKernel", "elementwise modular multiply",
         [](const pim::DpuConfig &cfg, unsigned tasklets) {
             std::vector<KernelPlan> out;
             detail::appendVecPlans<1>(cfg, tasklets, true, out);
             detail::appendVecPlans<2>(cfg, tasklets, true, out);
             detail::appendVecPlans<4>(cfg, tasklets, true, out);
             return out;
         },
         [] { return compiledVecMulModQ(detail::registryVecParams<2>()); },
         ""},
        {"makeNegacyclicConvKernel", "negacyclic convolution",
         [](const pim::DpuConfig &cfg, unsigned) {
             std::vector<KernelPlan> out;
             detail::appendConvPlans<1>(cfg, out);
             detail::appendConvPlans<2>(cfg, out);
             detail::appendConvPlans<4>(cfg, out);
             return out;
         },
         [] {
             return compiledNegacyclicConv(
                 makeConvParams(standardParams<2>().q, 64));
         },
         ""},
        {"makeNttMulKernel", "NTT polynomial product",
         [](const pim::DpuConfig &cfg, unsigned) {
             std::vector<KernelPlan> out;
             detail::appendNttPlans(cfg, out);
             return out;
         },
         [] {
             const auto primes = findNttPrimes(30, 2ULL * 256, 1);
             return compiledNttMul(makeNttParams(
                 static_cast<std::uint32_t>(primes.front()), 256, 4));
         },
         ""},
    };
    return rows;
}

} // namespace pimhe_kernels
} // namespace pimhe

#endif // PIMHE_PIMHE_KERNEL_REGISTRY_H
