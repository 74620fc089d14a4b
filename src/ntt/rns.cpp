#include "rns.h"

#include <algorithm>

#include "common/logging.h"

namespace pimhe {

namespace {

std::array<std::uint64_t, 4>
toWords(const U256 &x)
{
    std::array<std::uint64_t, 4> w{};
    for (std::size_t l = 0; l < w.size(); ++l)
        w[l] = x.limb(2 * l) |
               static_cast<std::uint64_t>(x.limb(2 * l + 1)) << 32;
    return w;
}

} // namespace

RnsBasis::RnsBasis(std::vector<std::uint64_t> primes)
    : primes_(std::move(primes))
{
    PIMHE_ASSERT(!primes_.empty(), "empty RNS basis");
    std::size_t product_bits = 0;
    for (const std::uint64_t p : primes_) {
        PIMHE_ASSERT(isPrime64(p), "basis element ", p, " is not prime");
        PIMHE_ASSERT(p < (1ULL << 62), "basis prime ", p,
                     " is wider than 62 bits");
        std::uint64_t v = p;
        while (v) {
            ++product_bits;
            v >>= 1;
        }
    }
    PIMHE_ASSERT(product_bits <= U256::numBits,
                 "basis product exceeds 256 bits");
    for (std::size_t i = 0; i < primes_.size(); ++i)
        for (std::size_t j = i + 1; j < primes_.size(); ++j)
            PIMHE_ASSERT(primes_[i] != primes_[j],
                         "duplicate prime in basis");

    product_ = U256(1ULL);
    for (const std::uint64_t p : primes_)
        product_ = product_.mulFull(U256(p)).convert<8>();
    productWords_ = toWords(product_);

    consts_.resize(primes_.size());
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const std::uint64_t p = primes_[i];
        PrimeConstants &c = consts_[i];
        c.wordShift = ShoupOperand(
            static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(1) << 64) % p),
            p);
        c.one = ShoupOperand(1, p);
        c.hat = toWords(divmod(product_, U256(p)).first);
        c.hatInv = ShoupOperand(invMod64(residue(c.hat, i), p), p);
    }
}

RnsBasis
RnsBasis::forExactConvolution(std::size_t n, std::size_t min_product_bits,
                              int bits)
{
    const std::size_t count =
        (min_product_bits + static_cast<std::size_t>(bits) - 1) /
        static_cast<std::size_t>(bits);
    return RnsBasis(findNttPrimes(bits, 2 * n, std::max<std::size_t>(
                                                  count, 1)));
}

std::vector<std::uint64_t>
RnsBasis::decompose(const U256 &x) const
{
    const auto words = toWords(x);
    std::vector<std::uint64_t> out(primes_.size());
    for (std::size_t i = 0; i < primes_.size(); ++i)
        out[i] = residue(words, i);
    return out;
}

U256
RnsBasis::recombine(std::span<const std::uint64_t> residues) const
{
    PIMHE_ASSERT(residues.size() == primes_.size(),
                 "residue count mismatch");
    // acc = sum of w_i * (P / p_i) with w_i < p_i, so acc < k * P,
    // which fits five words; at most k - 1 subtractions of P then
    // leave the unique value below P.
    std::array<std::uint64_t, 5> acc{};
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const PrimeConstants &c = consts_[i];
        const std::uint64_t w =
            mulShoup(residues[i], c.hatInv, primes_[i]);
        std::uint64_t carry = 0;
        for (std::size_t l = 0; l < 4; ++l) {
            const unsigned __int128 cur =
                static_cast<unsigned __int128>(w) * c.hat[l] + acc[l] +
                carry;
            acc[l] = static_cast<std::uint64_t>(cur);
            carry = static_cast<std::uint64_t>(cur >> 64);
        }
        acc[4] += carry;
    }
    const auto below_p = [&] {
        if (acc[4] != 0)
            return false;
        for (std::size_t l = 4; l-- > 0;)
            if (acc[l] != productWords_[l])
                return acc[l] < productWords_[l];
        return false;
    };
    while (!below_p()) {
        std::uint64_t borrow = 0;
        for (std::size_t l = 0; l < 4; ++l) {
            const std::uint64_t d = acc[l] - productWords_[l];
            const std::uint64_t b1 = acc[l] < productWords_[l];
            acc[l] = d - borrow;
            borrow = b1 | (d < borrow);
        }
        acc[4] -= borrow;
    }
    U256 out;
    for (std::size_t l = 0; l < 4; ++l) {
        out.setLimb(2 * l, static_cast<std::uint32_t>(acc[l]));
        out.setLimb(2 * l + 1, static_cast<std::uint32_t>(acc[l] >> 32));
    }
    return out;
}

} // namespace pimhe
