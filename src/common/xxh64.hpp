/**
 * @file
 * XXH64, written from the published xxHash specification
 * (github.com/Cyan4973/xxHash, doc/xxhash_spec.md) as a streaming
 * hasher: update() any number of times, then digest(). The digest does
 * not depend on how the input is split across update() calls. The read
 * store checksums its files with it (docs/STORE.md).
 */
#ifndef QUETZAL_COMMON_XXH64_HPP
#define QUETZAL_COMMON_XXH64_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bitutil.hpp"

namespace quetzal {

class Xxh64
{
  public:
    explicit Xxh64(std::uint64_t seed = 0)
        : seed_(seed),
          acc_{seed + kPrime1 + kPrime2, seed + kPrime2, seed,
               seed - kPrime1}
    {
    }

    void
    update(const void *data, std::size_t bytes)
    {
        const auto *in = static_cast<const unsigned char *>(data);
        total_ += bytes;
        if (bytes < kStripe - buffered_) {
            std::memcpy(buffer_ + buffered_, in, bytes);
            buffered_ += bytes;
            return;
        }
        // Local accumulators: the input bytes may alias the members,
        // which would force a store and reload per lane.
        std::uint64_t acc[4] = {acc_[0], acc_[1], acc_[2], acc_[3]};
        if (buffered_ > 0) {
            const std::size_t fill = kStripe - buffered_;
            std::memcpy(buffer_ + buffered_, in, fill);
            consume(acc, buffer_);
            in += fill;
            bytes -= fill;
            buffered_ = 0;
        }
        for (; bytes >= kStripe; in += kStripe, bytes -= kStripe)
            consume(acc, in);
        std::memcpy(acc_, acc, sizeof acc);
        std::memcpy(buffer_, in, bytes);
        buffered_ = bytes;
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t hash;
        if (total_ >= kStripe) {
            hash = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) +
                   std::rotl(acc_[2], 12) + std::rotl(acc_[3], 18);
            for (const std::uint64_t acc : acc_)
                hash = (hash ^ round(0, acc)) * kPrime1 + kPrime4;
        } else {
            hash = seed_ + kPrime5;
        }
        hash += total_;

        const unsigned char *tail = buffer_;
        std::size_t left = buffered_;
        for (; left >= 8; tail += 8, left -= 8) {
            hash ^= round(0, loadLittleEndian(tail, 8));
            hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
        }
        if (left >= 4) {
            hash ^= loadLittleEndian(tail, 4) * kPrime1;
            hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
            tail += 4;
            left -= 4;
        }
        for (; left > 0; ++tail, --left) {
            hash ^= *tail * kPrime5;
            hash = std::rotl(hash, 11) * kPrime1;
        }

        hash ^= hash >> 33;
        hash *= kPrime2;
        hash ^= hash >> 29;
        hash *= kPrime3;
        hash ^= hash >> 32;
        return hash;
    }

  private:
    static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
    static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
    static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
    static constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
    static constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;
    static constexpr std::size_t kStripe = 32;

    static std::uint64_t
    round(std::uint64_t acc, std::uint64_t lane)
    {
        return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
    }

    static void
    consume(std::uint64_t (&acc)[4], const unsigned char *stripe)
    {
        for (unsigned lane = 0; lane < 4; ++lane)
            acc[lane] =
                round(acc[lane], loadLittleEndian(stripe + 8 * lane, 8));
    }

    std::uint64_t seed_;
    std::uint64_t acc_[4];
    unsigned char buffer_[kStripe] = {};
    std::size_t buffered_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace quetzal

#endif // QUETZAL_COMMON_XXH64_HPP
