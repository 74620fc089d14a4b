/**
 * @file
 * BFV parameter sets.
 *
 * The paper evaluates three security levels tied to the polynomial
 * modulus degree: 27-bit coefficients with n=1024, 54-bit with n=2048
 * and 109-bit with n=4096, represented in 32-, 64- and 128-bit
 * integers respectively (the UPMEM DPU natively supports 32-bit adds).
 * The limb count N of every type in src/bfv mirrors that choice.
 */

#ifndef PIMHE_BFV_PARAMS_H
#define PIMHE_BFV_PARAMS_H

#include <cstdint>
#include <string>

#include "bigint/wide_int.h"
#include "common/logging.h"

namespace pimhe {

/** The paper's three security levels. */
enum class SecurityLevel
{
    Bits27,  //!< n=1024,  27-bit q, 32-bit coefficients  (N=1)
    Bits54,  //!< n=2048,  54-bit q, 64-bit coefficients  (N=2)
    Bits109, //!< n=4096, 109-bit q, 128-bit coefficients (N=4)
};

/** Limb width used to represent coefficients for a security level. */
constexpr std::size_t
limbsFor(SecurityLevel level)
{
    switch (level) {
      case SecurityLevel::Bits27:
        return 1;
      case SecurityLevel::Bits54:
        return 2;
      case SecurityLevel::Bits109:
        return 4;
    }
    return 4;
}

/** Short human-readable label ("32-bit", ...) for reports. */
inline std::string
levelName(SecurityLevel level)
{
    switch (level) {
      case SecurityLevel::Bits27:
        return "32-bit (27-bit q, n=1024)";
      case SecurityLevel::Bits54:
        return "64-bit (54-bit q, n=2048)";
      case SecurityLevel::Bits109:
        return "128-bit (109-bit q, n=4096)";
    }
    return "?";
}

/**
 * Complete parameter set for one BFV instantiation.
 *
 * @tparam N Coefficient limb count (1, 2 or 4 for the paper's sets).
 */
template <std::size_t N>
struct BfvParams
{
    std::size_t n;            //!< ring degree (power of two)
    WideInt<N> q;             //!< ciphertext modulus
    std::uint64_t t;          //!< plaintext modulus
    int noiseEta;             //!< centred-binomial noise parameter
    std::size_t relinBaseBits;//!< digit width for relinearisation keys

    /** floor(q / t), the plaintext scaling factor Delta. */
    WideInt<N>
    delta() const
    {
        return divmod(q, WideInt<N>(t)).first;
    }

    /** Sanity-check structural requirements. */
    void
    validate() const
    {
        PIMHE_ASSERT(n >= 4 && (n & (n - 1)) == 0,
                     "degree must be a power of two");
        PIMHE_ASSERT(t >= 2, "plaintext modulus too small");
        PIMHE_ASSERT(WideInt<N>(t) < q,
                     "plaintext modulus must be below q");
        // Decryption rounds t * v + floor(q/2) < (t + 1) * q through a
        // Barrett step whose window is 2^62 * q (NttResidentCore).
        PIMHE_ASSERT(t < (1ULL << 62),
                     "plaintext modulus must be below 2^62");
        PIMHE_ASSERT(relinBaseBits >= 1 && relinBaseBits <= 32,
                     "relin digit width out of range");
    }

    /**
     * Reduced-degree copy for fast functional tests: same moduli, ring
     * degree lowered to `degree`. Security is irrelevant in tests; the
     * arithmetic paths exercised are identical.
     */
    BfvParams
    withDegree(std::size_t degree) const
    {
        BfvParams p = *this;
        p.n = degree;
        return p;
    }
};

/**
 * The paper's default parameter set for each level. The moduli are
 * NTT-friendly primes (q == 1 mod 2n) of exactly 27, 54 and 109 bits so
 * the same sets also drive the SEAL-like baseline.
 */
template <std::size_t N>
BfvParams<N> standardParams();

template <>
inline BfvParams<1>
standardParams<1>()
{
    // 27-bit prime, 1 mod 2048: 134215681 = 2^27 - 2047.
    BfvParams<1> p{1024, U32(134215681ULL), 17, 1, 8};
    p.validate();
    return p;
}

template <>
inline BfvParams<2>
standardParams<2>()
{
    // 54-bit prime, 1 mod 4096: 18014398509404161 = 2^54 - 77823.
    // t = 257 keeps one homomorphic multiplication inside the noise
    // budget at full degree (t = 65537 would not at 54-bit q).
    BfvParams<2> p{2048, U64(18014398509404161ULL), 257, 3, 8};
    p.validate();
    return p;
}

template <>
inline BfvParams<4>
standardParams<4>()
{
    // 109-bit prime, 1 mod 8192:
    // 649037107316853453566312040923137 = 2^109 - 229375.
    BfvParams<4> p{
        4096,
        U128::fromDecimalString("649037107316853453566312040923137"),
        65537, 3, 16};
    p.validate();
    return p;
}

/** Parameter set for a security level (fixes N = limbsFor(level)). */
template <SecurityLevel L>
auto
paramsFor()
{
    return standardParams<limbsFor(L)>();
}

} // namespace pimhe

#endif // PIMHE_BFV_PARAMS_H
