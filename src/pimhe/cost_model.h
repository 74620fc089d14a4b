/**
 * @file
 * Analytic PIM timing for paper-scale inputs, and the only prober of
 * the kernel cycle fits.
 *
 * Simulating 327,680 ciphertexts instruction-by-instruction is
 * intractable on a laptop, but every kernel in kernels.h is
 * shape-deterministic: its per-DPU cycle count is an exact linear (or,
 * for convolution, quadratic) function of the element count at a fixed
 * tasklet count. PimCostModel therefore
 *
 *  1. probes the real simulator at exact-tiling shapes — two for the
 *     elementwise kernels, three degrees for the convolution, whose
 *     fit carries a per-launch base term that never shards. Every
 *     probe is one probeCycles call on a compiled kernel; the fits run
 *     it in ExecMode::Fast, whose cycles equal the interpreter's by
 *     the fast path's bit-exactness contract (pinned at every probe
 *     shape by tests/test_cost_model.cpp);
 *  2. fits the exact coefficients once per (op, width) and memoises
 *     them (costSpecFor in plan.h reads the same memo, so the figure
 *     model and the plan certifier share one fit); and
 *  3. composes system-level time analytically (all DPUs run the same
 *     padded shape; the critical path is one DPU).
 *
 * Property tests validate the fit against interpreted simulations at
 * intermediate shapes (tests/test_cost_model.cpp).
 *
 * Transfer policy: vector operands are PIM-resident (computing where
 * the data lives is the PIM service model), matching the GPU model's
 * HBM-resident assumption; launch overhead is always charged.
 * elementwiseWithTransfersMs adds explicit host staging for ablations,
 * priced by pim::busMs like every other bus charge.
 */

#ifndef PIMHE_PIMHE_COST_MODEL_H
#define PIMHE_PIMHE_COST_MODEL_H

#include <array>
#include <map>
#include <tuple>

#include "analysis/plan_cost.h"
#include "perf/platform.h"
#include "pim/system.h"
#include "pimhe/fast_kernels.h"

namespace pimhe {

/**
 * PlatformModel implementation for the simulated UPMEM system.
 */
class PimCostModel : public perf::PlatformModel
{
  public:
    /**
     * @param cfg      System to model (defaults to the paper's).
     * @param tasklets Tasklets per DPU used by the kernels.
     */
    explicit
    PimCostModel(pim::SystemConfig cfg = pim::paperSystem(),
                 unsigned tasklets = 12)
        : cfg_(cfg), tasklets_(tasklets)
    {}

    std::string name() const override { return "PIM"; }

    const pim::SystemConfig &config() const { return cfg_; }
    unsigned tasklets() const { return tasklets_; }

    /** DPUs the op actually spreads over (dynamic utilisation). */
    std::size_t
    dpusUsed(std::size_t elems) const
    {
        // One DPU per at least one WRAM chunk of work keeps launch
        // efficiency; never exceed the system size.
        return std::max<std::size_t>(
            1, std::min<std::size_t>(cfg_.numDpus, elems));
    }

    perf::Breakdown
    elementwiseMs(perf::OpKind op, std::size_t limbs,
                  std::size_t elems,
                  std::size_t units = 1) const override
    {
        // Work is distributed at ciphertext granularity ("dynamic
        // utilisation of PIM cores" in the paper): each DPU owns
        // whole units, so per-DPU work — and thus execution time —
        // stays flat while units <= numDpus.
        std::size_t per_dpu;
        if (units > 1) {
            const std::size_t dpus =
                std::min<std::size_t>(cfg_.numDpus, units);
            const std::size_t units_per_dpu =
                (units + dpus - 1) / dpus;
            const std::size_t elems_per_unit =
                (elems + units - 1) / units;
            per_dpu = units_per_dpu * elems_per_unit;
        } else {
            per_dpu = pim::sliceLayout(elems, dpusUsed(elems), limbs * 4)
                          .perDpu;
        }
        perf::Breakdown b;
        b.computeMs = elementwiseFit(op, limbs).at(per_dpu) /
                      (cfg_.dpu.clockMhz * 1e3);
        b.overheadMs = cfg_.launchOverheadUs / 1e3;
        return b;
    }

    /** elementwiseMs plus host staging of operands and results. */
    perf::Breakdown
    elementwiseWithTransfersMs(perf::OpKind op, std::size_t limbs,
                               std::size_t elems) const
    {
        perf::Breakdown b = elementwiseMs(op, limbs, elems);
        const std::uint64_t bytes = elems * limbs * 4;
        const std::size_t dpus = dpusUsed(elems);
        b.transferMs =
            pim::busMs(2 * bytes, dpus, cfg_.hostToDpuGbps) +
            pim::busMs(bytes, dpus, cfg_.dpuToHostGbps);
        return b;
    }

    perf::Breakdown
    convolutionMs(std::size_t n, std::size_t limbs,
                  std::size_t count) const override
    {
        const std::size_t dpus =
            std::max<std::size_t>(
                1, std::min<std::size_t>(cfg_.numDpus, count));
        const std::size_t per_dpu = (count + dpus - 1) / dpus;
        const double cycles_per_pair =
            convolutionFit(limbs).shard(n, n);
        perf::Breakdown b;
        b.computeMs = static_cast<double>(per_dpu) * cycles_per_pair /
                      (cfg_.dpu.clockMhz * 1e3);
        b.overheadMs = cfg_.launchOverheadUs / 1e3;
        return b;
    }

    /**
     * Exact simulated cycles of one DPU running the elementwise
     * kernel on `elems` elements. The fits probe in Fast mode; the
     * validation tests keep the default, the interpreter, as their
     * oracle.
     */
    double
    simulateElementwiseCycles(
        perf::OpKind op, std::size_t limbs, std::size_t elems,
        pim::ExecMode mode = pim::ExecMode::Interpret) const
    {
        const pimhe_kernels::VecKernelParams kp =
            pimhe_kernels::standardVecParams(limbs, elems);
        return probeCycles(op == perf::OpKind::VecAdd
                               ? pimhe_kernels::compiledVecAddModQ(kp)
                               : pimhe_kernels::compiledVecMulModQ(kp),
                           mode);
    }

    /** Exact simulated cycles of one degree-n convolution pair. */
    double
    simulateConvolutionCycles(
        std::size_t n, std::size_t limbs,
        pim::ExecMode mode = pim::ExecMode::Interpret) const
    {
        return probeCycles(pimhe_kernels::compiledNegacyclicConv(
                               pimhe_kernels::standardConvParams(limbs, n)),
                           mode);
    }

    /** The two element counts elementwiseFit probes: exact multiples
     *  of the tasklet x chunk tiling, so the fit is exact there. */
    std::array<std::size_t, 2>
    elementwiseProbeElems(std::size_t limbs) const
    {
        const std::size_t chunk =
            pimhe_kernels::wramChunkBytes(cfg_.dpu, tasklets_) /
            (limbs * 4);
        const std::size_t e1 = static_cast<std::size_t>(tasklets_) * chunk * 2;
        return {e1, 2 * e1};
    }

    /** The three degrees convolutionFit probes. */
    std::array<std::size_t, 3>
    convolutionProbeDegrees() const
    {
        const std::size_t n1 = 4 * static_cast<std::size_t>(tasklets_);
        return {n1, 2 * n1, 4 * n1};
    }

  private:
    /** plan.h's CostSpec filler reads the memoised fits directly. */
    friend inline analysis::CostSpec
    costSpecFor(const PimCostModel &model, std::size_t limbs,
                std::size_t n, std::size_t relin_digits,
                std::size_t num_dpus, std::string name);

    /**
     * The one probe: cycles of one DPU running `kernel` at the model's
     * tasklet count in `mode`. Cycles depend on the shape only, so the
     * operands stay as fresh MRAM reads them, zero.
     */
    double
    probeCycles(const pim::CompiledKernel &kernel,
                pim::ExecMode mode) const
    {
        pim::Dpu dpu(cfg_.dpu);
        return dpu.run(tasklets_, kernel, mode).cycles;
    }

    /** Memoised cycles(elems) = base + slope*elems from the two
     *  elementwiseProbeElems shapes, probed on the compiled kernels. */
    analysis::LinearCycleFit
    elementwiseFit(perf::OpKind op, std::size_t limbs) const
    {
        const auto key = std::make_tuple(static_cast<int>(op), limbs);
        const auto it = vecFits_.find(key);
        if (it != vecFits_.end())
            return it->second;
        const auto [e1, e2] = elementwiseProbeElems(limbs);
        const double c1 =
            simulateElementwiseCycles(op, limbs, e1, pim::ExecMode::Fast);
        const double c2 =
            simulateElementwiseCycles(op, limbs, e2, pim::ExecMode::Fast);
        analysis::LinearCycleFit fit;
        fit.slope = (c2 - c1) / static_cast<double>(e2 - e1);
        fit.base = c1 - fit.slope * static_cast<double>(e1);
        vecFits_[key] = fit;
        return fit;
    }

    /**
     * Memoised cycles(n) = base + linear*n + quadratic*n^2 for one
     * convolution pair from three probe degrees. Three points are
     * required because the per-launch base must be separated from the
     * per-row work: a two-point fit folds startup into the linear
     * term, and the row-sharded prediction (analysis convMs) then
     * wrongly divides it by the DPU count — the drift the calibration
     * sweep flags.
     */
    analysis::QuadCycleFit
    convolutionFit(std::size_t limbs) const
    {
        const auto it = convFits_.find(limbs);
        if (it != convFits_.end())
            return it->second;
        const auto [n1, n2, n3] = convolutionProbeDegrees();
        const double c1 =
            simulateConvolutionCycles(n1, limbs, pim::ExecMode::Fast);
        const double c2 =
            simulateConvolutionCycles(n2, limbs, pim::ExecMode::Fast);
        const double c3 =
            simulateConvolutionCycles(n3, limbs, pim::ExecMode::Fast);
        const double a1 = static_cast<double>(n1);
        const double a2 = static_cast<double>(n2);
        const double a3 = static_cast<double>(n3);
        // Divided differences over the three samples.
        const double s1 = c2 - c1;
        const double s2 = c3 - c2;
        const double t1 = a2 - a1;
        const double t2 = a3 - a2;
        const double u1 = a2 * a2 - a1 * a1;
        const double u2 = a3 * a3 - a2 * a2;
        analysis::QuadCycleFit fit;
        fit.quadratic = (s2 * t1 - s1 * t2) / (u2 * t1 - u1 * t2);
        fit.linear = (s1 - fit.quadratic * u1) / t1;
        fit.base = c1 - fit.linear * a1 - fit.quadratic * a1 * a1;
        convFits_[limbs] = fit;
        return fit;
    }

    pim::SystemConfig cfg_;
    unsigned tasklets_;
    mutable std::map<std::tuple<int, std::size_t>,
                     analysis::LinearCycleFit>
        vecFits_;
    mutable std::map<std::size_t, analysis::QuadCycleFit> convFits_;
};

} // namespace pimhe

#endif // PIMHE_PIMHE_COST_MODEL_H
