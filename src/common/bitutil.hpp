/**
 * @file
 * Bit-manipulation helpers used across the ISA model and the QUETZAL
 * count-ALU / encoder hardware models.
 */
#ifndef QUETZAL_COMMON_BITUTIL_HPP
#define QUETZAL_COMMON_BITUTIL_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace quetzal {

/** Number of consecutive set bits starting at bit 0 of @p value. */
inline int
countTrailingOnes(std::uint64_t value)
{
    return std::countr_one(value);
}

/** Number of consecutive clear bits starting at bit 0 of @p value. */
inline int
countTrailingZeros(std::uint64_t value)
{
    return std::countr_zero(value);
}

/** Population count. */
inline int
popCount(std::uint64_t value)
{
    return std::popcount(value);
}

/**
 * Extract @p len bits starting at bit @p first (little-endian bit order).
 * @pre len <= 64 and first + len <= 64.
 */
inline std::uint64_t
bits(std::uint64_t value, unsigned first, unsigned len)
{
    if (len == 0)
        return 0;
    if (len >= 64)
        return value >> first;
    return (value >> first) & ((std::uint64_t{1} << len) - 1);
}

/**
 * Insert @p field into @p value at bit position @p first with width
 * @p len, returning the combined word.
 */
inline std::uint64_t
insertBits(std::uint64_t value, unsigned first, unsigned len,
           std::uint64_t field)
{
    const std::uint64_t mask =
        (len >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << len) - 1))
        << first;
    return (value & ~mask) | ((field << first) & mask);
}

/** True when @p value is a power of two (and non-zero). */
inline bool
isPowerOf2(std::uint64_t value)
{
    return std::has_single_bit(value);
}

/** log2 of a power-of-two value. */
inline unsigned
floorLog2(std::uint64_t value)
{
    return 63u - static_cast<unsigned>(std::countl_zero(value | 1));
}

/** Round @p value up to the next multiple of @p align (power of two). */
inline std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Integer ceiling division. */
inline std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** The little-endian integer in the first @p count (<= 8) bytes. */
inline std::uint64_t
loadLittleEndian(const unsigned char *src, std::size_t count)
{
    std::uint64_t value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, src, count);
    } else {
        for (std::size_t i = 0; i < count; ++i)
            value |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    }
    return value;
}

} // namespace quetzal

#endif // QUETZAL_COMMON_BITUTIL_HPP
