/**
 * @file
 * Homomorphic evaluation: the operations the paper offloads to PIM.
 *
 * Addition is componentwise polynomial addition in R_q. Multiplication
 * is the BFV tensor product: the three cross products are computed
 * over the integers (via the context's ExactConvolver), scaled by t/q
 * with rounding, and reduced back into R_q; relinearisation folds the
 * resulting 3-component ciphertext back to 2 components using the
 * relinearisation key.
 */

#ifndef PIMHE_BFV_EVALUATOR_H
#define PIMHE_BFV_EVALUATOR_H

#include "bfv/ciphertext.h"
#include "bfv/keys.h"

namespace pimhe {

/** Homomorphic operations over BFV ciphertexts. */
template <std::size_t N>
class Evaluator
{
  public:
    explicit
    Evaluator(const BfvContext<N> &ctx)
        : ctx_(ctx)
    {}

    /** ct_a + ct_b, componentwise in R_q. */
    Ciphertext<N>
    add(const Ciphertext<N> &a, const Ciphertext<N> &b) const
    {
        const auto &ring = ctx_.ring();
        const std::size_t sz = std::max(a.size(), b.size());
        Ciphertext<N> out;
        for (std::size_t i = 0; i < sz; ++i) {
            if (i >= a.size())
                out.comps.push_back(b[i]);
            else if (i >= b.size())
                out.comps.push_back(a[i]);
            else
                out.comps.push_back(ring.add(a[i], b[i]));
        }
        return out;
    }

    /**
     * Full BFV multiplication of two 2-component ciphertexts; result
     * has 3 components (call relinearize() to shrink it).
     */
    Ciphertext<N>
    multiply(const Ciphertext<N> &a, const Ciphertext<N> &b) const
    {
        PIMHE_ASSERT(a.size() == 2 && b.size() == 2,
                     "multiply expects fresh/relinearised ciphertexts");
        const auto &conv = ctx_.convolver();

        // Tensor product over Z with centred lifts.
        const auto d0 = conv.convolveCentered(a[0], b[0]);
        auto d1 = conv.convolveCentered(a[0], b[1]);
        const auto d1b = conv.convolveCentered(a[1], b[0]);
        const auto d2 = conv.convolveCentered(a[1], b[1]);
        for (std::size_t i = 0; i < d1.size(); ++i)
            d1[i] += d1b[i]; // two's-complement add

        Ciphertext<N> out;
        out.comps.push_back(scaleRound(d0));
        out.comps.push_back(scaleRound(d1));
        out.comps.push_back(scaleRound(d2));
        return out;
    }

    /** Homomorphic square (saves one convolution vs multiply). */
    Ciphertext<N>
    square(const Ciphertext<N> &a) const
    {
        PIMHE_ASSERT(a.size() == 2, "square expects a 2-component ct");
        const auto &conv = ctx_.convolver();
        const auto d0 = conv.convolveCentered(a[0], a[0]);
        auto d1 = conv.convolveCentered(a[0], a[1]);
        for (auto &c : d1)
            c += c;
        const auto d2 = conv.convolveCentered(a[1], a[1]);

        Ciphertext<N> out;
        out.comps.push_back(scaleRound(d0));
        out.comps.push_back(scaleRound(d1));
        out.comps.push_back(scaleRound(d2));
        return out;
    }

    /**
     * Fold a 3-component ciphertext to 2 components using the
     * relinearisation key (base-2^w digit decomposition of c2).
     */
    Ciphertext<N>
    relinearize(const Ciphertext<N> &ct, const RelinKey<N> &rlk) const
    {
        PIMHE_ASSERT(ct.size() == 3, "relinearize expects 3 components");
        PIMHE_ASSERT(!rlk.empty(), "empty relinearisation key");
        const auto &ring = ctx_.ring();
        const std::size_t w = rlk.baseBits;
        const std::size_t n = ring.degree();

        Ciphertext<N> out;
        out.comps.push_back(ct[0]);
        out.comps.push_back(ct[1]);

        // Decompose c2 into digits d_j with coefficients < 2^w:
        // c2 = sum_j d_j * 2^(w j).
        const WideInt<N> mask =
            WideInt<N>::oneShl(w) - WideInt<N>(1ULL);
        for (std::size_t j = 0; j < rlk.digits.size(); ++j) {
            Polynomial<N> digit(n);
            for (std::size_t i = 0; i < n; ++i)
                digit[i] = ct[2][i].shr(w * j) & mask;
            out[0] = ring.add(
                out[0], ctx_.mulModQ(rlk.digits[j].first, digit));
            out[1] = ring.add(
                out[1], ctx_.mulModQ(rlk.digits[j].second, digit));
        }
        return out;
    }

    /** multiply() followed by relinearize(). */
    Ciphertext<N>
    multiplyRelin(const Ciphertext<N> &a, const Ciphertext<N> &b,
                  const RelinKey<N> &rlk) const
    {
        return relinearize(multiply(a, b), rlk);
    }

    /**
     * Multiply a ciphertext by a plaintext polynomial: every
     * component is convolved with the (unscaled) plaintext in R_q.
     * Far cheaper than ciphertext-ciphertext multiplication — no
     * tensor product, no relinearisation — and the noise grows only
     * by a factor ~ t * n.
     */
    Ciphertext<N>
    mulPlain(const Ciphertext<N> &a, const Plaintext &pt) const
    {
        const auto &ring = ctx_.ring();
        PIMHE_ASSERT(pt.size() == ring.degree(),
                     "plaintext degree mismatch");
        Polynomial<N> m(ring.degree());
        for (std::size_t i = 0; i < ring.degree(); ++i)
            m[i] = WideInt<N>(pt.coeffs[i] % ctx_.plainModulus());
        Ciphertext<N> out;
        for (const auto &comp : a.comps)
            out.comps.push_back(ctx_.mulModQ(comp, m));
        return out;
    }

  private:
    /**
     * round(t * c / q) mod q for every signed 256-bit tensor
     * coefficient c.
     */
    Polynomial<N>
    scaleRound(const std::vector<U256> &tensor) const
    {
        const auto &ring = ctx_.ring();
        const U256 q_wide = ring.modulus().template convert<8>();
        const U256 half_q = q_wide.shr(1);
        const U256 t_wide(ctx_.plainModulus());

        Polynomial<N> out(tensor.size());
        for (std::size_t i = 0; i < tensor.size(); ++i) {
            const bool neg = signed256::isNegative(tensor[i]);
            const U256 mag = signed256::magnitude(tensor[i]);
            // round(t * mag / q), then negate mod q if needed.
            const U256 tm =
                mag.mulFull(t_wide).convert<8>();
            const U256 rounded = divmod(tm + half_q, q_wide).first;
            const U256 reduced = mod(rounded, q_wide);
            const WideInt<N> r = reduced.convert<N>();
            out[i] = neg ? ring.reducer().negMod(r) : r;
        }
        return out;
    }

    const BfvContext<N> &ctx_;
};

} // namespace pimhe

#endif // PIMHE_BFV_EVALUATOR_H
