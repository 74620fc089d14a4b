/**
 * @file
 * The four paper-shaped workloads of the end-to-end benchmark.
 *
 * Every workload drives the library only through its public API: the
 * client Encryptor/Decryptor, PimHeSystem::runPlan,
 * addCiphertextVectors, mulAsync/get/finishAsync and PimConvolver.
 * Keys and encryption run on a client context with the host RNS-NTT
 * convolver, as the paper's users would; plans run on a server context
 * whose multiplications go through a PimConvolver. So client crypto
 * never charges simulated PIM time, while relinearisation products
 * inside runPlan do.
 *
 * A workload is built from a seed alone: keys, user values and
 * operands all derive from it, and the library sees only the generated
 * ciphertexts and plans.
 */

#ifndef PIMHE_BENCH_E2E_WORKLOADS_H
#define PIMHE_BENCH_E2E_WORKLOADS_H

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bfv/encryptor.h"
#include "bfv/evaluator.h"
#include "ntt/rns.h"
#include "pimhe/orchestrator.h"
#include "spans.h"

namespace e2e {

constexpr std::size_t kLimbs = 4; //!< 109-bit q in 128-bit words
constexpr unsigned kTasklets = 12;

using Ct = pimhe::Ciphertext<kLimbs>;
using Context = pimhe::BfvContext<kLimbs>;
using System = pimhe::PimHeSystem<kLimbs>;

/**
 * The measured system: the paper's UPMEM model with the launch gates
 * on, the compiled fast path and three host threads. Set explicitly so
 * PIMHE_EXEC_MODE / PIMHE_HOST_THREADS cannot change what is measured;
 * with the async pipeline worker the process runs at most four
 * threads at once.
 */
inline pimhe::pim::SystemConfig
benchSystem()
{
    pimhe::pim::SystemConfig cfg = pimhe::pim::paperSystem();
    cfg.verifyBeforeLaunch = true;
    cfg.execMode = pimhe::pim::ExecMode::Fast;
    cfg.hostThreads = 3;
    return cfg;
}

/** Independent generator number `stream` of a benchmark seed. */
inline pimhe::Rng
seededRng(std::uint64_t seed, std::uint64_t stream)
{
    return pimhe::Rng(seed * 0x9E3779B97F4A7C15ULL + stream);
}

/**
 * PimConvolver wrapper that records a poly.convolve span per product.
 * It forwards everything else, so the plan runner's usage accounting
 * sees the PIM convolver unchanged.
 */
class TimedConvolver final : public pimhe::ExactConvolver<kLimbs>
{
  public:
    TimedConvolver(std::unique_ptr<pimhe::PimConvolver<kLimbs>> inner,
                   SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {}

    std::vector<pimhe::U256>
    convolveCentered(const pimhe::Polynomial<kLimbs> &a,
                     const pimhe::Polynomial<kLimbs> &b) const override
    {
        SpanRecorder::Scope span(rec_, "poly.convolve");
        return inner_->convolveCentered(a, b);
    }

    std::string name() const override { return inner_->name(); }

    pimhe::ConvolverUsage
    usage() const override
    {
        return inner_->usage();
    }

    const pimhe::pim::DpuSet &dpuSet() const { return inner_->dpuSet(); }

  private:
    std::unique_ptr<pimhe::PimConvolver<kLimbs>> inner_;
    SpanRecorder &rec_;
};

/** Keys and crypto of the paper's users, on the host. */
struct Client
{
    Client(const pimhe::BfvParams<kLimbs> &params, std::uint64_t seed)
        : keyRng(seededRng(seed, 1)), encRng(seededRng(seed, 2)),
          ctx(nttContext(params)), keygen(*ctx, keyRng),
          enc(*ctx, keygen.makePublicKey(), encRng),
          dec(*ctx, keygen.secretKey())
    {}

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    pimhe::Rng keyRng;
    pimhe::Rng encRng;
    std::unique_ptr<Context> ctx;
    pimhe::KeyGenerator<kLimbs> keygen;
    pimhe::Encryptor<kLimbs> enc;
    pimhe::Decryptor<kLimbs> dec;

  private:
    static std::unique_ptr<Context>
    nttContext(const pimhe::BfvParams<kLimbs> &params)
    {
        auto ctx = std::make_unique<Context>(params);
        ctx->setConvolver(
            std::make_unique<pimhe::RnsNttConvolver<kLimbs>>(ctx->ring()));
        return ctx;
    }
};

/** Uniform plaintext: one value below t per coefficient. */
inline pimhe::Plaintext
randomPlaintext(pimhe::Rng &rng, std::size_t n, std::uint64_t t)
{
    pimhe::Plaintext pt(n);
    for (auto &c : pt.coeffs)
        c = rng.uniform(t);
    return pt;
}

/** One closed-loop workload: a query is one client request. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Input ciphertexts one query sends to the server. */
    virtual std::size_t inputsPerQuery() const = 0;

    /**
     * Run one query and check its output; true when it matches.
     * `inject` flips one output coefficient before the check.
     */
    virtual bool query(SpanRecorder &rec, bool inject) = 0;

    /** Async op stream: modelled time is the pipeline makespan. */
    virtual bool pipelined() const { return false; }

    /** The system's DpuSet, then the convolver's when there is one. */
    virtual std::vector<const pimhe::pim::DpuSet *> dpuSets() const = 0;

    virtual const pimhe::ResidentCacheStats &residentStats() const = 0;

    /** One explicit certifyPlan; false for a workload with no plan. */
    virtual bool certify() { return false; }
};

/**
 * Fig. 2 statistics through runPlan: `users` clients each encrypt a
 * plaintext, the server sums them (mean) or also sums their squares
 * (variance), and the owner decrypts and checks against the plaintext
 * sums mod t. Mean packs one value per coefficient; variance encodes a
 * scalar in coefficient 0, as the paper's survey does.
 */
class StatsWorkload final : public Workload
{
  public:
    StatsWorkload(std::size_t degree, std::size_t users, std::size_t dpus,
                  std::size_t conv_dpus, bool variance,
                  std::uint64_t seed, SpanRecorder &rec)
        : params_(pimhe::standardParams<kLimbs>().withDegree(degree)),
          users_(users), variance_(variance), client_(params_, seed),
          dataRng_(seededRng(seed, 3)),
          server_(std::make_unique<Context>(params_))
    {
        if (conv_dpus > 0) {
            auto timed = std::make_unique<TimedConvolver>(
                std::make_unique<pimhe::PimConvolver<kLimbs>>(
                    server_->ring(), benchSystem(), kTasklets,
                    conv_dpus),
                rec);
            conv_ = timed.get();
            server_->setConvolver(std::move(timed));
        }
        sys_ = std::make_unique<System>(*server_, benchSystem(), dpus,
                                        kTasklets);
        if (variance_)
            rlk_ = client_.keygen.makeRelinKey();

        std::vector<pimhe::analysis::NodeId> xs, sq;
        for (std::size_t u = 0; u < users_; ++u)
            xs.push_back(plan_.input("user" + std::to_string(u)));
        if (variance_)
            for (const auto x : xs)
                sq.push_back(plan_.square(x));
        plan_.output(plan_.reduce(xs));
        if (variance_)
            plan_.output(plan_.reduce(sq));
    }

    std::size_t inputsPerQuery() const override { return users_; }

    bool
    query(SpanRecorder &rec, bool inject) override
    {
        const std::size_t n = params_.n;
        const std::uint64_t t = params_.t;
        std::vector<pimhe::Plaintext> pts;
        for (std::size_t u = 0; u < users_; ++u) {
            if (variance_) {
                pts.emplace_back(n);
                pts.back().coeffs[0] = dataRng_.uniform(t);
            } else {
                pts.push_back(randomPlaintext(dataRng_, n, t));
            }
        }

        std::vector<Ct> cts;
        for (const auto &pt : pts) {
            SpanRecorder::Scope span(rec, "bfv.encrypt");
            cts.push_back(client_.enc.encrypt(pt));
        }
        std::vector<Ct> outs;
        {
            SpanRecorder::Scope span(rec, "pimhe.run_plan");
            outs = sys_->runPlan(plan_, cts, {},
                                 variance_ ? &rlk_ : nullptr);
        }
        std::vector<pimhe::Plaintext> got;
        for (const Ct &ct : outs) {
            SpanRecorder::Scope span(rec, "bfv.decrypt");
            got.push_back(client_.dec.decrypt(ct));
        }
        if (got.size() != (variance_ ? 2u : 1u))
            return false;
        if (inject)
            got[0].coeffs[0] = (got[0].coeffs[0] + 1) % t;

        // Sum of the plaintexts, and for variance the sum of squares
        // of the scalar values (the negacyclic square of a constant).
        pimhe::Plaintext sum(n), sumsq(n);
        for (const auto &pt : pts) {
            for (std::size_t i = 0; i < n; ++i)
                sum.coeffs[i] = (sum.coeffs[i] + pt.coeffs[i]) % t;
            sumsq.coeffs[0] =
                (sumsq.coeffs[0] + pt.coeffs[0] * pt.coeffs[0]) % t;
        }
        return got[0] == sum && (!variance_ || got[1] == sumsq);
    }

    std::vector<const pimhe::pim::DpuSet *>
    dpuSets() const override
    {
        if (conv_ == nullptr)
            return {&sys_->dpuSet()};
        return {&sys_->dpuSet(), &conv_->dpuSet()};
    }

    const pimhe::ResidentCacheStats &
    residentStats() const override
    {
        return sys_->residentStats();
    }

    bool certify() override { return sys_->certifyPlan(plan_, "bench"); }

  private:
    pimhe::BfvParams<kLimbs> params_;
    std::size_t users_;
    bool variance_;
    Client client_;
    pimhe::Rng dataRng_;
    std::unique_ptr<Context> server_;
    const TimedConvolver *conv_ = nullptr; //!< owned by server_
    std::unique_ptr<System> sys_;
    pimhe::RelinKey<kLimbs> rlk_;
    pimhe::analysis::HeDag plan_;
};

/** Bit-exact equality of two ciphertexts. */
inline bool
sameCiphertext(const Ct &a, const Ct &b)
{
    static_assert(std::has_unique_object_representations_v<
                  pimhe::WideInt<kLimbs>>);
    if (a.size() != b.size())
        return false;
    for (std::size_t c = 0; c < a.size(); ++c) {
        const auto &x = a[c].coeffs();
        const auto &y = b[c].coeffs();
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) != 0)
            return false;
    }
    return true;
}

/**
 * Fig. 1 vector ops on pre-encrypted operands, checked bit-exact
 * against host results computed at set-up: one synchronous
 * addCiphertextVectors, or a stream of `ops` mulAsync calls harvested
 * with get() and closed with finishAsync().
 */
class VectorWorkload final : public Workload
{
  public:
    VectorWorkload(std::size_t ops, std::size_t pairs, bool async,
                   std::uint64_t seed)
        : params_(pimhe::standardParams<kLimbs>()), async_(async),
          client_(params_, seed),
          server_(std::make_unique<Context>(params_)),
          sys_(std::make_unique<System>(*server_, benchSystem(), 64,
                                        kTasklets))
    {
        // kFresh operands are fresh encryptions; every later one is the
        // homomorphic sum of an earlier one and a fresh one, which is
        // as valid a ciphertext and keeps set-up short.
        constexpr std::size_t kFresh = 16;
        pimhe::Rng rng = seededRng(seed, 3);
        const pimhe::Evaluator<kLimbs> ev(*server_);
        std::vector<Ct> cts;
        cts.reserve(2 * ops * pairs);
        for (std::size_t i = 0; i < 2 * ops * pairs; ++i)
            cts.push_back(i < kFresh
                              ? client_.enc.encrypt(randomPlaintext(
                                    rng, params_.n, params_.t))
                              : ev.add(cts[i - kFresh],
                                       cts[(i + 1) % kFresh]));

        const auto &red = server_->ring().reducer();
        lhs_.resize(ops);
        rhs_.resize(ops);
        ref_.resize(ops);
        for (std::size_t o = 0; o < ops; ++o) {
            for (std::size_t p = 0; p < pairs; ++p) {
                const Ct &a = cts[2 * (o * pairs + p)];
                const Ct &b = cts[2 * (o * pairs + p) + 1];
                lhs_[o].push_back(a);
                rhs_[o].push_back(b);
                if (!async_) {
                    ref_[o].push_back(ev.add(a, b));
                    continue;
                }
                Ct prod = a;
                for (std::size_t c = 0; c < a.size(); ++c)
                    for (std::size_t i = 0; i < params_.n; ++i)
                        prod[c][i] = red.mulMod(a[c][i], b[c][i]);
                ref_[o].push_back(std::move(prod));
            }
        }
    }

    std::size_t
    inputsPerQuery() const override
    {
        return 2 * lhs_.size() * lhs_.front().size();
    }

    bool pipelined() const override { return async_; }

    bool
    query(SpanRecorder &rec, bool inject) override
    {
        std::vector<std::vector<Ct>> got;
        if (!async_) {
            SpanRecorder::Scope span(rec, "pimhe.vec_add");
            got.push_back(sys_->addCiphertextVectors(lhs_[0], rhs_[0]));
        } else {
            std::vector<System::AsyncOp> ops;
            for (std::size_t o = 0; o < lhs_.size(); ++o) {
                SpanRecorder::Scope span(rec, "pimhe.submit");
                ops.push_back(sys_->mulAsync(lhs_[o], rhs_[o]));
            }
            for (auto &op : ops) {
                SpanRecorder::Scope span(rec, "pimhe.harvest");
                got.push_back(op.get());
            }
            SpanRecorder::Scope span(rec, "pimhe.finish");
            sys_->finishAsync();
        }
        if (got.size() != ref_.size() || got[0].empty())
            return false;
        if (inject) {
            auto &coeff = got[0][0][0][0];
            coeff.setLimb(0, coeff.limb(0) ^ 1u);
        }
        for (std::size_t o = 0; o < ref_.size(); ++o) {
            if (got[o].size() != ref_[o].size())
                return false;
            for (std::size_t i = 0; i < ref_[o].size(); ++i)
                if (!sameCiphertext(got[o][i], ref_[o][i]))
                    return false;
        }
        return true;
    }

    std::vector<const pimhe::pim::DpuSet *>
    dpuSets() const override
    {
        return {&sys_->dpuSet()};
    }

    const pimhe::ResidentCacheStats &
    residentStats() const override
    {
        return sys_->residentStats();
    }

  private:
    pimhe::BfvParams<kLimbs> params_;
    bool async_;
    Client client_;
    std::unique_ptr<Context> server_;
    std::unique_ptr<System> sys_;
    std::vector<std::vector<Ct>> lhs_, rhs_, ref_;
};

/** The benchmark's workloads by name; nullptr for an unknown name. */
inline std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             SpanRecorder &rec)
{
    if (name == "mean")
        return std::make_unique<StatsWorkload>(4096, 16, 64, 0, false,
                                               seed, rec);
    if (name == "variance")
        return std::make_unique<StatsWorkload>(512, 2, 16, 16, true,
                                               seed, rec);
    if (name == "vec_add")
        return std::make_unique<VectorWorkload>(1, 64, false, seed);
    if (name == "vec_mul_stream")
        return std::make_unique<VectorWorkload>(8, 16, true, seed);
    return nullptr;
}

} // namespace e2e

#endif // PIMHE_BENCH_E2E_WORKLOADS_H
