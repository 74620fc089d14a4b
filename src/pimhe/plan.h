/**
 * @file
 * Bridge between the static plan certifier (analysis/noise.h,
 * analysis/plan_cost.h) and the concrete PIM-HE stack.
 *
 * The cost layer deliberately takes only plain numbers (CostSpec), so
 * its predictions are auditable and its tests need no simulator. This
 * header fills a CostSpec from reality:
 *
 *  - the kernel cycle fits are PimCostModel's memoised fits — the
 *    same ones its figure-model timings use, probed once per
 *    coefficient width out of the simulator, never hand-entered;
 *  - machine shape (DPU count, clock, bus rates, launch overhead,
 *    resident arena) comes from the live pim::SystemConfig;
 *  - the host baseline constants come from perf::CpuCalibration.
 *
 * The first probe of a coefficient width runs seven one-DPU launches
 * of the compiled kernels in Fast mode;
 * PimHeSystem::certifyPlan therefore orders noise and capacity checks
 * (pure arithmetic) strictly before it, so a rejected plan never
 * causes a simulated cycle, and the model's memo makes every later
 * certification probe-free.
 */

#ifndef PIMHE_PIMHE_PLAN_H
#define PIMHE_PIMHE_PLAN_H

#include <string>

#include "analysis/plan_cost.h"
#include "perf/calibration.h"
#include "pimhe/cost_model.h"
#include "pimhe/resident.h"

namespace pimhe {

/**
 * Everything in a CostSpec except the probed fits: geometry, machine
 * shape and host constants, as pure arithmetic. Enough for the
 * capacity obligations, which must run before any probe.
 */
inline analysis::CostSpec
costSpecShape(const pim::SystemConfig &cfg, std::size_t limbs,
              std::size_t n, std::size_t relin_digits,
              std::size_t num_dpus, std::string name)
{
    analysis::CostSpec spec;
    spec.name = std::move(name);
    spec.limbs = limbs;
    spec.n = n;
    spec.relinDigits = relin_digits;
    spec.numDpus = num_dpus;
    spec.clockMhz = cfg.dpu.clockMhz;
    spec.hostToDpuGbps = cfg.hostToDpuGbps;
    spec.dpuToHostGbps = cfg.dpuToHostGbps;
    spec.launchOverheadUs = cfg.launchOverheadUs;
    spec.residentArenaBytes = cfg.residentArenaBytes();
    const perf::CpuCalibration cal;
    const std::size_t w = perf::widthIndex(limbs);
    spec.hostAddNs = cal.addNs[w];
    spec.hostMulNs = cal.mulNs[w];
    spec.hostConvMacNs = cal.convMacNs[w];
    spec.hostThreads = cal.threads;
    spec.hostStreamGbps = cal.streamGbps;
    return spec;
}

/**
 * Fill a CostSpec from the model's memoised fits plus the live system
 * shape. `num_dpus` is the DPU-set size the plan will actually run on
 * (a PimHeSystem may allocate fewer DPUs than the config describes).
 * The first call per coefficient width runs 7 probe launches
 * (2 add, 2 mul, 3 convolution); later calls on the same model run
 * none. Call only for plans that already passed the arithmetic-only
 * noise and capacity checks.
 */
inline analysis::CostSpec
costSpecFor(const PimCostModel &model, std::size_t limbs,
            std::size_t n, std::size_t relin_digits,
            std::size_t num_dpus, std::string name)
{
    analysis::CostSpec spec =
        costSpecShape(model.config(), limbs, n, relin_digits,
                      num_dpus, std::move(name));
    spec.addCycles = model.elementwiseFit(perf::OpKind::VecAdd, limbs);
    spec.mulCycles = model.elementwiseFit(perf::OpKind::VecMul, limbs);
    spec.convCycles = model.convolutionFit(limbs);
    return spec;
}

/** Relinearisation digit count of a parameter set:
 *  l = ceil(bits(q) / w). */
template <std::size_t N, typename ParamsT>
std::size_t
relinDigitsOf(const ParamsT &params)
{
    const std::size_t w = params.relinBaseBits;
    return (params.q.bitLength() + w - 1) / w;
}

} // namespace pimhe

#endif // PIMHE_PIMHE_PLAN_H
