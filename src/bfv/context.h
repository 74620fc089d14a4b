/**
 * @file
 * Shared BFV context: parameters plus derived ring machinery.
 */

#ifndef PIMHE_BFV_CONTEXT_H
#define PIMHE_BFV_CONTEXT_H

#include <memory>

#include "bfv/params.h"
#include "poly/convolver.h"
#include "poly/ring.h"

namespace pimhe {

/**
 * Owns everything derived from a BfvParams set: the ring context, the
 * plaintext scaling factor and the exact-convolution engine used for
 * homomorphic multiplication.
 *
 * The convolver defaults to schoolbook (the algorithm the paper runs on
 * PIM threads); callers may install an RnsNttConvolver to model the
 * SEAL-like baseline.
 */
template <std::size_t N>
class BfvContext
{
  public:
    using Coeff = WideInt<N>;
    using Poly = Polynomial<N>;

    explicit
    BfvContext(BfvParams<N> params)
        : params_(params), ring_(params.n, params.q),
          delta_(params.delta()),
          convolver_(std::make_unique<SchoolbookConvolver<N>>(ring_))
    {
        params_.validate();
    }

    const BfvParams<N> &params() const { return params_; }
    const RingContext<N> &ring() const { return ring_; }
    const Coeff &delta() const { return delta_; }
    std::uint64_t plainModulus() const { return params_.t; }

    /** Replace the multiplication engine (e.g. with RNS+NTT). */
    void
    setConvolver(std::unique_ptr<ExactConvolver<N>> conv)
    {
        PIMHE_ASSERT(conv != nullptr, "null convolver");
        convolver_ = std::move(conv);
    }

    const ExactConvolver<N> &convolver() const { return *convolver_; }

    /**
     * Negacyclic product in R_q through the installed convolver.
     * Identical to ring().mulSchoolbook() but benefits from an NTT
     * engine when one is installed.
     */
    Poly
    mulModQ(const Poly &a, const Poly &b) const
    {
        using u128 = unsigned __int128;
        const auto low128 = [](const U256 &v) {
            u128 w = 0;
            for (std::size_t l = 4; l-- > 0;)
                w = (w << 32) | v.limb(l);
            return w;
        };
        const auto tensor = convolver_->convolveCentered(a, b);
        const U256 q_wide = ring_.modulus().template convert<8>();
        const u128 q = low128(q_wide);
        const bool q_fits = q_wide.bitLength() <= 128;
        Poly out(ring_.degree());
        for (std::size_t i = 0; i < tensor.size(); ++i) {
            const bool neg = signed256::isNegative(tensor[i]);
            const U256 mag = signed256::magnitude(tensor[i]);
            // A magnitude below 2^128 (keygen's products with s,
            // mulPlain's with a sparse plaintext, and every product at
            // N <= 2) takes the native 128-bit remainder, a wider one
            // long division.
            Coeff r;
            if (q_fits && mag.bitLength() <= 128) {
                u128 rem = low128(mag) % q;
                for (std::size_t l = 0; l < N; ++l, rem >>= 32)
                    r.setLimb(l, static_cast<std::uint32_t>(rem));
            } else {
                r = mod(mag, q_wide).template convert<N>();
            }
            out[i] = neg ? ring_.reducer().negMod(r) : r;
        }
        return out;
    }

  private:
    BfvParams<N> params_;
    RingContext<N> ring_;
    Coeff delta_;
    std::unique_ptr<ExactConvolver<N>> convolver_;
};

} // namespace pimhe

#endif // PIMHE_BFV_CONTEXT_H
