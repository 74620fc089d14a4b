#include "rns.h"

#include <algorithm>

#include "common/logging.h"

namespace pimhe {

namespace {

using u128 = unsigned __int128;
using Words = RnsBasis::Words;

Words
toWords(const U256 &x)
{
    Words w{};
    for (std::size_t l = 0; l < w.size(); ++l)
        w[l] = x.limb(2 * l) |
               static_cast<std::uint64_t>(x.limb(2 * l + 1)) << 32;
    return w;
}

U256
fromWords(const Words &w)
{
    U256 out;
    for (std::size_t l = 0; l < w.size(); ++l) {
        out.setLimb(2 * l, static_cast<std::uint32_t>(w[l]));
        out.setLimb(2 * l + 1, static_cast<std::uint32_t>(w[l] >> 32));
    }
    return out;
}

/** a > b over the low `count` words. */
bool
greaterWords(const Words &a, const Words &b, std::size_t count)
{
    for (std::size_t l = count; l-- > 0;)
        if (a[l] != b[l])
            return a[l] > b[l];
    return false;
}

/** a - b over the low `count` words, for a >= b. */
Words
subWords(const Words &a, const Words &b, std::size_t count)
{
    Words d{};
    std::uint64_t borrow = 0;
    for (std::size_t l = 0; l < count; ++l) {
        const std::uint64_t t = a[l] - b[l];
        d[l] = t - borrow;
        borrow = (a[l] < b[l]) | (t < borrow);
    }
    return d;
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
    halfProductWords_ = toWords(product_.shr(1));
    productWordCount_ = (product_.bitLength() + 63) / 64;

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

RnsBasis::Words
RnsBasis::recombineWords(std::span<const std::uint64_t> residues) const
{
    PIMHE_ASSERT(residues.size() == primes_.size(),
                 "residue count mismatch");
    // acc = sum of w_i * (P / p_i) with w_i < p_i, so acc < k * P,
    // which fits one word more than P; at most k - 1 subtractions of
    // P then leave the unique value below P.
    const std::size_t words = productWordCount_;
    std::array<std::uint64_t, 5> acc{};
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const PrimeConstants &c = consts_[i];
        const std::uint64_t w =
            mulShoup(residues[i], c.hatInv, primes_[i]);
        std::uint64_t carry = 0;
        for (std::size_t l = 0; l < words; ++l) {
            const u128 cur = static_cast<u128>(w) * c.hat[l] + acc[l] +
                             carry;
            acc[l] = static_cast<std::uint64_t>(cur);
            carry = static_cast<std::uint64_t>(cur >> 64);
        }
        acc[words] += carry;
    }
    const auto below_p = [&] {
        if (acc[words] != 0)
            return false;
        for (std::size_t l = words; l-- > 0;)
            if (acc[l] != productWords_[l])
                return acc[l] < productWords_[l];
        return false;
    };
    while (!below_p()) {
        std::uint64_t borrow = 0;
        for (std::size_t l = 0; l < words; ++l) {
            const std::uint64_t d = acc[l] - productWords_[l];
            const std::uint64_t b1 = acc[l] < productWords_[l];
            acc[l] = d - borrow;
            borrow = b1 | (d < borrow);
        }
        acc[words] -= borrow;
    }
    Words out{};
    std::copy_n(acc.begin(), words, out.begin());
    return out;
}

U256
RnsBasis::recombine(std::span<const std::uint64_t> residues) const
{
    return fromWords(recombineWords(residues));
}

RnsBasis::Words
RnsBasis::recombineSigned(std::span<const std::uint64_t> residues,
                         bool &negative) const
{
    const Words v = recombineWords(residues);
    negative = greaterWords(v, halfProductWords_, productWordCount_);
    return negative ? subWords(productWords_, v, productWordCount_) : v;
}

std::vector<U256>
RnsBasis::recombineCentered(const RnsResidues &r) const
{
    PIMHE_ASSERT(r.size() == primes_.size(), "residue count mismatch");
    std::vector<U256> out(r.front().size());
    std::vector<std::uint64_t> residues(primes_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (std::size_t pi = 0; pi < residues.size(); ++pi)
            residues[pi] = r[pi][i];
        bool neg = false;
        const Words mag = recombineSigned(residues, neg);
        out[i] = signed256::fromSignMagnitude(fromWords(mag), neg);
    }
    return out;
}

namespace {

U256
toU256(u128 v)
{
    return fromWords({static_cast<std::uint64_t>(v),
                      static_cast<std::uint64_t>(v >> 64)});
}

u128
toU128(const U256 &v)
{
    const Words w = toWords(v);
    return static_cast<u128>(w[1]) << 64 | w[0];
}

/** The fewest 62-bit NTT primes (step 2n) whose product exceeds
 *  2 * n * floor(q/2). */
RnsBasis
residentBasis(std::size_t n, u128 q)
{
    PIMHE_ASSERT(n <= (std::size_t(1) << 30), "degree ", n,
                 " is above 2^30");
    const U256 bound = U256(2ULL * n) * toU256(q >> 1);
    for (std::size_t count = 1;; ++count) {
        RnsBasis basis(findNttPrimes(62, 2 * n, count));
        if (basis.product() > bound)
            return basis;
    }
}

} // namespace

NttResidentCore::NttResidentCore(std::size_t n, u128 q)
    : basis_(residentBasis(n, q)), q_(q)
{
    const U256 q_wide = toU256(q);
    qBits_ = static_cast<unsigned>(q_wide.bitLength());
    qMu_ = divmod(U256::oneShl(qBits_ + 62), q_wide).first.toUint64();
    const std::vector<std::uint64_t> &primes = basis_.primes();
    for (const std::uint64_t p : primes)
        tables_.emplace_back(p, n);

    // Garner's constants: the inverses, the digits of floor(P/2) and
    // the radixes mod q.
    U256 half = basis_.product().shr(1);
    U256 radix(1ULL);
    for (std::size_t m = 0; m < primes.size(); ++m) {
        std::vector<ShoupOperand> &inv = garnerInv_.emplace_back();
        for (std::size_t l = 0; l < m; ++l)
            inv.emplace_back(invMod64(primes[l] % primes[m], primes[m]),
                             primes[m]);
        const auto [rest, digit] = divmod(half, U256(primes[m]));
        halfDigits_.push_back(digit.toUint64());
        half = rest;
        radixModQ_.push_back(toU128(mod(radix, q_wide)));
        radix = radix * U256(primes[m]);
    }
    productModQ_ = toU128(mod(basis_.product(), q_wide));

    // recombineModQ reduces sum a_m * (radix_m mod q), a_m < p_m, in
    // one Barrett step, so the sum must stay below 2^(k + 62). Two
    // primes always do. A third is added only when p_0 * p_1 <=
    // 2n * floor(q/2) < n * 2^k, and p_2 = 1 mod 2n leaves
    // 2^62 - p_2 >= 2n - 1, so (p_2 - 1) * (q - 1) + p_0 * p_1 stays
    // below 2^(k + 62) too.
    U256 garner_max;
    for (std::size_t m = 0; m < primes.size(); ++m)
        garner_max += U256(primes[m] - 1) * toU256(radixModQ_[m]);
    PIMHE_ASSERT(garner_max.bitLength() <= qBits_ + 62,
                 "Garner sum of ", primes.size(),
                 " primes leaves the Barrett window of a ", qBits_,
                 "-bit q");
}

NttResidentCore::Operand
NttResidentCore::transformTernary(std::span<const std::int8_t> x) const
{
    RnsResidues r(basis_.size(), std::vector<std::uint64_t>(x.size()));
    for (std::size_t i = 0; i < x.size(); ++i) {
        PIMHE_ASSERT(x[i] >= -1 && x[i] <= 1, "value ", int(x[i]),
                     " at ", i, " is not ternary");
        for (std::size_t pi = 0; pi < r.size(); ++pi)
            r[pi][i] = x[i] < 0 ? basis_.primes()[pi] - 1
                                : static_cast<std::uint64_t>(x[i]);
    }
    return forward(std::move(r), true);
}

NttResidentCore::Operand
NttResidentCore::forward(RnsResidues r, bool small) const
{
    PIMHE_ASSERT(r.size() == tables_.size(), "residue count mismatch");
    for (std::size_t pi = 0; pi < r.size(); ++pi)
        tables_[pi].forward(r[pi]);
    return {std::move(r), small};
}

std::size_t
NttResidentCore::keep(RnsResidues r, bool small)
{
    const Operand f = forward(std::move(r), small);
    Fixed fixed;
    fixed.small = small;
    for (std::size_t pi = 0; pi < f.values.size(); ++pi) {
        const std::uint64_t p = basis_.primes()[pi];
        std::vector<ShoupOperand> &w = fixed.values.emplace_back();
        w.reserve(f.values[pi].size());
        for (const std::uint64_t v : f.values[pi])
            w.emplace_back(v, p);
    }
    fixed_.push_back(std::move(fixed));
    return fixed_.size() - 1;
}

void
NttResidentCore::multiplyAddModQ(const Operand &x, std::size_t j,
                                 std::span<u128> acc) const
{
    PIMHE_ASSERT(j < fixed_.size(), "no fixed polynomial ", j);
    const Fixed &f = fixed_[j];
    // A small factor against a reduced one gives at most
    // n * floor(q/2) per coefficient: the basis bound.
    PIMHE_ASSERT(x.small || f.small,
                 "product of a reduced operand and a reduced factor "
                 "exceeds the basis bound");
    PIMHE_ASSERT(acc.size() == x.values.front().size(),
                 "accumulator has ", acc.size(), " coefficients, not ",
                 x.values.front().size());
    RnsResidues y = x.values;
    for (std::size_t pi = 0; pi < y.size(); ++pi) {
        const std::uint64_t p = basis_.primes()[pi];
        const std::vector<ShoupOperand> &w = f.values[pi];
        std::vector<std::uint64_t> &v = y[pi];
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = mulShoup(v[i], w[i], p);
        tables_[pi].inverse(v);
    }
    std::array<std::uint64_t, 4> residues{};
    const std::span<const std::uint64_t> r(residues.data(), y.size());
    for (std::size_t i = 0; i < acc.size(); ++i) {
        for (std::size_t pi = 0; pi < y.size(); ++pi)
            residues[pi] = y[pi][i];
        acc[i] = addModQ(acc[i], recombineModQ(r));
    }
}

u128
NttResidentCore::recombineModQ(std::span<const std::uint64_t> residues)
    const
{
    const std::vector<std::uint64_t> &primes = basis_.primes();
    const std::size_t k = primes.size();
    PIMHE_ASSERT(residues.size() == k, "residue count mismatch");
    // Digit m is ((r_m - a_0) / p_0 - a_1) / p_1 ... mod p_m. Every
    // prime lies in (2^61, 2^62), so a_l < 2 * p_m and each
    // r + 2 * p_m - a_l stays in (0, 3 * p_m), inside a word.
    std::array<std::uint64_t, 4> a{};
    for (std::size_t m = 0; m < k; ++m) {
        const std::uint64_t p = primes[m];
        std::uint64_t d = residues[m];
        for (std::size_t l = 0; l < m; ++l)
            d = mulShoup(d + 2 * p - a[l], garnerInv_[m][l], p);
        a[m] = d;
    }
    // The digits order values as they order words, most significant
    // first; above floor(P/2) the value stands for itself minus P.
    std::size_t top = k - 1;
    while (top > 0 && a[top] == halfDigits_[top])
        --top;
    const bool negative = a[top] > halfDigits_[top];

    // sum a_m * (radix_m mod q), inside the one-word Barrett window
    // (checked at construction).
    Words s{a[0], 0, 0, 0};
    for (std::size_t m = 1; m < k; ++m) {
        const u128 c = radixModQ_[m];
        const u128 lo = static_cast<u128>(a[m]) *
                            static_cast<std::uint64_t>(c) + s[0];
        const u128 mid = static_cast<u128>(a[m]) *
                             static_cast<std::uint64_t>(c >> 64) +
                         s[1] + (lo >> 64);
        s[0] = static_cast<std::uint64_t>(lo);
        s[1] = static_cast<std::uint64_t>(mid);
        s[2] += static_cast<std::uint64_t>(mid >> 64);
    }
    const u128 r = reduce(s);
    if (!negative)
        return r;
    return r >= productModQ_ ? r - productModQ_ : r + (q_ - productModQ_);
}

u128
NttResidentCore::liftModQ(std::int64_t v) const
{
    // |v| in unsigned arithmetic, defined for INT64_MIN too.
    u128 mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                     : static_cast<std::uint64_t>(v);
    if (mag >= q_)
        mag %= q_;
    return v < 0 && mag != 0 ? q_ - mag : mag;
}

std::uint64_t
NttResidentCore::scaleRound(u128 v, std::uint64_t t) const
{
    // t * v + floor(q/2) over three words.
    const u128 lo = static_cast<u128>(t) * static_cast<std::uint64_t>(v) +
                    static_cast<std::uint64_t>(q_ >> 1);
    const u128 mid = static_cast<u128>(t) *
                         static_cast<std::uint64_t>(v >> 64) +
                     static_cast<std::uint64_t>(q_ >> 65) + (lo >> 64);
    const Words x{static_cast<std::uint64_t>(lo),
                  static_cast<std::uint64_t>(mid),
                  static_cast<std::uint64_t>(mid >> 64), 0};
    std::uint64_t quotient = 0;
    reduce(x, &quotient);
    return quotient % t;
}

u128
NttResidentCore::reduce(const Words &x, std::uint64_t *quotient) const
{
    // Barrett with a one-word quotient: t = floor(x / 2^(k-1)) < 2^63
    // and qhat = floor(t * mu / 2^63) undershoots floor(x / q) by at
    // most 2 (x < 2^(k + 62)).
    const unsigned shift = qBits_ - 1;
    const u128 window =
        shift < 64 ? (static_cast<u128>(x[1]) << 64 | x[0]) >> shift
                   : (static_cast<u128>(x[2]) << 64 | x[1]) >> (shift - 64);
    const auto t = static_cast<std::uint64_t>(window);
    const auto qhat = static_cast<std::uint64_t>(
        (static_cast<u128>(t) * qMu_) >> 63);
    // r = x - qhat * q over three words; r < 3q.
    const u128 lo = static_cast<u128>(qhat) * static_cast<std::uint64_t>(q_);
    const u128 hi = static_cast<u128>(qhat) *
                    static_cast<std::uint64_t>(q_ >> 64);
    const u128 mid = (lo >> 64) + static_cast<std::uint64_t>(hi);
    const u128 prod_low = mid << 64 | static_cast<std::uint64_t>(lo);
    const std::uint64_t prod_top =
        static_cast<std::uint64_t>(hi >> 64) +
        static_cast<std::uint64_t>(mid >> 64);
    const u128 x_low = static_cast<u128>(x[1]) << 64 | x[0];
    u128 r = x_low - prod_low;
    std::uint64_t top = x[2] - prod_top - (x_low < prod_low);
    std::uint64_t more = 0;
    for (; top != 0 || r >= q_; ++more) {
        top -= r < q_;
        r -= q_;
    }
    if (quotient != nullptr)
        *quotient = qhat + more;
    return r;
}

} // namespace pimhe
