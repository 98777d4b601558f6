#include "util/crc32.hh"

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace ref;

/** Byte-at-a-time CRC-32, the oracle for the sliced implementation. */
std::uint32_t
bytewiseCrc32(const unsigned char *bytes, std::size_t size)
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit)
            value = (value >> 1) ^ ((value & 1u) ? 0xedb88320u : 0u);
        table[i] = value;
    }
    std::uint32_t crc = ~0u;
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xffu];
    return ~crc;
}

TEST(Crc32, KnownVectors)
{
    // The standard CRC-32/ISO-HDLC check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
    EXPECT_EQ(crc32("abc"), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data =
        "the journal frames every record with this checksum";
    const std::uint32_t oneShot = crc32(data);
    for (std::size_t split = 0; split <= data.size(); ++split) {
        const std::uint32_t first =
            crc32(data.data(), split);
        const std::uint32_t both =
            crc32(data.data() + split, data.size() - split, first);
        EXPECT_EQ(both, oneShot) << "split at " << split;
    }
}

TEST(Crc32, DetectsSingleBitFlips)
{
    std::string data = "sensitive payload bytes";
    const std::uint32_t good = crc32(data);
    for (std::size_t byte = 0; byte < data.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            data[byte] ^= static_cast<char>(1 << bit);
            EXPECT_NE(crc32(data), good)
                << "missed flip at byte " << byte << " bit " << bit;
            data[byte] ^= static_cast<char>(1 << bit);
        }
    }
}

TEST(Crc32, SlicedMatchesBytewiseReference)
{
    // Every length 0..4096 at every start alignment 0..7, so both
    // the 8-byte steps and each tail length meet unaligned loads.
    for (const std::uint32_t seed : {1u, 7u, 2026u}) {
        std::mt19937 rng(seed);
        std::vector<unsigned char> buffer(4096 + 8);
        for (auto &byte : buffer)
            byte = static_cast<unsigned char>(rng());
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t size = 0; size <= 4096; ++size) {
                const unsigned char *start = buffer.data() + offset;
                ASSERT_EQ(crc32(start, size),
                          bytewiseCrc32(start, size))
                    << "seed " << seed << " offset " << offset
                    << " size " << size;
            }
        }
    }
}

} // namespace
