/**
 * @file
 * Small bit-manipulation helpers used by indexing schemes, the TAD set
 * layout codec, and the compressors.
 */

#ifndef DICE_COMMON_BITOPS_HPP
#define DICE_COMMON_BITOPS_HPP

#include <bit>
#include <cassert>
#include <cstdint>

namespace dice
{

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(v); v must be non-zero. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    return static_cast<std::uint32_t>(std::bit_width(v)) - 1;
}

/** Ceiling of log2(v); v must be non-zero. */
constexpr std::uint32_t
ceilLog2(std::uint64_t v)
{
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Number of set bits in @p v. */
constexpr std::uint32_t
popcount64(std::uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<std::uint32_t>(__builtin_popcountll(v));
#else
    std::uint32_t n = 0;
    for (; v != 0; v &= v - 1)
        ++n;
    return n;
#endif
}

/**
 * Extract bits [hi:lo] (inclusive, hi >= lo) of @p v, right-justified.
 */
constexpr std::uint64_t
bits(std::uint64_t v, std::uint32_t hi, std::uint32_t lo)
{
    const std::uint32_t n_bits = hi - lo + 1;
    const std::uint64_t mask =
        n_bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n_bits) - 1);
    return (v >> lo) & mask;
}

/** Extract the single bit @p pos of @p v. */
constexpr std::uint64_t
bit(std::uint64_t v, std::uint32_t pos)
{
    return (v >> pos) & 1;
}

/**
 * Insert the low @p n_bits of @p field into @p v at bit position @p lo,
 * returning the updated word.
 */
constexpr std::uint64_t
insertBits(std::uint64_t v, std::uint32_t lo, std::uint32_t n_bits,
           std::uint64_t field)
{
    const std::uint64_t mask =
        n_bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n_bits) - 1);
    return (v & ~(mask << lo)) | ((field & mask) << lo);
}

/** Sign-extend the low @p n_bits of @p v to a signed 64-bit value. */
constexpr std::int64_t
signExtend(std::uint64_t v, std::uint32_t n_bits)
{
    assert(n_bits >= 1 && n_bits <= 64);
    if (n_bits == 64)
        return static_cast<std::int64_t>(v);
    const std::uint64_t sign = std::uint64_t{1} << (n_bits - 1);
    const std::uint64_t mask = (std::uint64_t{1} << n_bits) - 1;
    v &= mask;
    return static_cast<std::int64_t>((v ^ sign) - sign);
}

/**
 * True iff signed value @p v is representable in @p n_bits two's
 * complement bits.
 */
constexpr bool
fitsSigned(std::int64_t v, std::uint32_t n_bits)
{
    if (n_bits >= 64)
        return true;
    const std::int64_t lim = std::int64_t{1} << (n_bits - 1);
    return v >= -lim && v < lim;
}

/** True iff unsigned value @p v is representable in @p n_bits. */
constexpr bool
fitsUnsigned(std::uint64_t v, std::uint32_t n_bits)
{
    if (n_bits >= 64)
        return true;
    return v < (std::uint64_t{1} << n_bits);
}

/**
 * Exact unsigned division by a run-time constant d in [1, 2^32).
 *
 * A power-of-two d is a shift and a mask. Otherwise a dividend below
 * 2^32 takes its quotient and remainder from multiply-highs by the
 * precomputed reciprocal M = ceil(2^64 / d) (Lemire, Kaser & Kurz,
 * "Faster remainder by direct computation", 2019), which is exact for
 * every 32-bit dividend and divisor; a wider dividend takes the
 * hardware divide. Either way the results equal n / d and n % d.
 */
class Reciprocal
{
  public:
    explicit constexpr Reciprocal(std::uint32_t d)
        : d_(d), shift_(isPowerOfTwo(d) ? floorLog2(d) : kNotPow2),
          m_(~std::uint64_t{0} / (d > 1 ? d : 2) + 1)
    {
        assert(d != 0);
    }

    constexpr std::uint32_t divisor() const { return d_; }

    /** Quotient and remainder of one division. */
    struct QuotRem
    {
        std::uint64_t quot;
        std::uint32_t rem;
    };

    constexpr QuotRem
    divmod(std::uint64_t n) const
    {
        if (shift_ != kNotPow2)
            return {n >> shift_, static_cast<std::uint32_t>(n & (d_ - 1))};
        if ((n >> 32) == 0) {
            const std::uint64_t low = m_ * n;
            return {mulHigh(m_, n),
                    static_cast<std::uint32_t>(mulHigh(low, d_))};
        }
        return {n / d_, static_cast<std::uint32_t>(n % d_)};
    }

  private:
    static constexpr std::uint32_t kNotPow2 = 64;

    static constexpr std::uint64_t
    mulHigh(std::uint64_t a, std::uint64_t b)
    {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(a) * b) >> 64);
    }

    std::uint32_t d_;
    std::uint32_t shift_;
    std::uint64_t m_;
};

} // namespace dice

#endif // DICE_COMMON_BITOPS_HPP
