#include "ntt.h"

#include "common/logging.h"

namespace pimhe {

namespace {

std::size_t
bitReverse(std::size_t x, int bits)
{
    std::size_t r = 0;
    for (int i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

/** The constructor's checks, run before any member uses p. */
std::uint64_t
checkedNttPrime(std::uint64_t p, std::size_t n)
{
    PIMHE_ASSERT(n >= 2 && (n & (n - 1)) == 0,
                 "NTT length must be a power of two");
    PIMHE_ASSERT(p < (1ULL << 62),
                 "prime too wide for the lazy butterflies (4p >= 2^64)");
    PIMHE_ASSERT((p - 1) % (2 * n) == 0,
                 "prime does not support negacyclic NTT of length ", n);
    return p;
}

} // namespace

NttTable::NttTable(std::uint64_t p, std::size_t n)
    : p_(checkedNttPrime(p, n)), n_(n), mont_(p)
{
    const ShoupOperand psi(primitiveRoot(p, 2 * n), p);
    const ShoupOperand psi_inv(invMod64(psi.w, p), p);

    int log_n = 0;
    while ((1ULL << log_n) < n)
        ++log_n;

    psiRev_.resize(n);
    psiInvRev_.resize(n);
    std::uint64_t power = 1;
    std::uint64_t power_inv = 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = bitReverse(i, log_n);
        psiRev_[r] = ShoupOperand(power, p);
        psiInvRev_[r] = ShoupOperand(power_inv, p);
        power = mulShoup(power, psi, p);
        power_inv = mulShoup(power_inv, psi_inv, p);
    }

    const std::uint64_t n_inv = invMod64(n, p);
    nInv_ = ShoupOperand(n_inv, p);
    nInvMont_ = ShoupOperand(mulShoup(mont_.toMont(1), nInv_, p), p);
}

void
NttTable::forward(std::vector<std::uint64_t> &a) const
{
    PIMHE_ASSERT(a.size() == n_, "operand length mismatch");
    const std::uint64_t p = p_;
    const std::uint64_t two_p = 2 * p;
    std::size_t t = n_;
    for (std::size_t m = 1; m < n_; m <<= 1) {
        t >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const ShoupOperand s = psiRev_[m + i];
            std::uint64_t *x = a.data() + 2 * i * t;
            std::uint64_t *y = x + t;
            for (std::size_t j = 0; j < t; ++j) {
                // x, y in [0, 4p) -> x', y' in [0, 4p).
                const std::uint64_t u = x[j] >= two_p ? x[j] - two_p : x[j];
                const std::uint64_t v = mulShoupLazy(y[j], s, p);
                x[j] = u + v;
                y[j] = u - v + two_p;
            }
        }
    }
    for (auto &x : a) {
        if (x >= two_p)
            x -= two_p;
        if (x >= p)
            x -= p;
    }
}

void
NttTable::inverse(std::vector<std::uint64_t> &a) const
{
    inverseScaled(a, nInv_);
}

void
NttTable::inverseScaled(std::vector<std::uint64_t> &a,
                        const ShoupOperand &scale) const
{
    PIMHE_ASSERT(a.size() == n_, "operand length mismatch");
    const std::uint64_t p = p_;
    const std::uint64_t two_p = 2 * p;
    std::size_t t = 1;
    for (std::size_t m = n_; m > 1; m >>= 1) {
        const std::size_t h = m >> 1;
        for (std::size_t i = 0; i < h; ++i) {
            const ShoupOperand s = psiInvRev_[h + i];
            std::uint64_t *x = a.data() + 2 * i * t;
            std::uint64_t *y = x + t;
            for (std::size_t j = 0; j < t; ++j) {
                // x, y in [0, 2p) -> x', y' in [0, 2p).
                const std::uint64_t u = x[j];
                const std::uint64_t v = y[j];
                const std::uint64_t sum = u + v;
                x[j] = sum >= two_p ? sum - two_p : sum;
                y[j] = mulShoupLazy(u - v + two_p, s, p);
            }
        }
        t <<= 1;
    }
    for (auto &x : a)
        x = mulShoup(x, scale, p);
}

std::vector<std::uint64_t>
NttTable::multiply(std::vector<std::uint64_t> a,
                   std::vector<std::uint64_t> b) const
{
    forward(a);
    forward(b);
    // REDC leaves a_i * b_i * 2^-64; nInvMont_ scales it back.
    for (std::size_t i = 0; i < n_; ++i)
        a[i] = mont_.mulMont(a[i], b[i]);
    inverseScaled(a, nInvMont_);
    return a;
}

} // namespace pimhe
