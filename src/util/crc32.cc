#include "crc32.hh"

#include <array>
#include <bit>
#include <cstring>

namespace ref {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: tables[0]
 * is the classic byte table, and tables[k][i] is the CRC of byte i
 * followed by k zero bytes, so one 8-byte step is eight independent
 * lookups.
 */
constexpr Tables
makeTables()
{
    Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t value = i;
        for (int bit = 0; bit < 8; ++bit) {
            value = (value >> 1) ^
                    ((value & 1u) ? 0xedb88320u : 0u);
        }
        tables[0][i] = value;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}

constexpr Tables kTables = makeTables();

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint32_t crc = ~seed;
    // The 8-byte step folds the CRC into the low word as loaded
    // little-endian; other hosts take the bytewise loop throughout.
    if constexpr (std::endian::native == std::endian::little) {
        for (; size >= 8; size -= 8, bytes += 8) {
            std::uint32_t lo = 0;
            std::uint32_t hi = 0;
            std::memcpy(&lo, bytes, 4);
            std::memcpy(&hi, bytes + 4, 4);
            lo ^= crc;
            crc = kTables[7][lo & 0xffu] ^
                  kTables[6][(lo >> 8) & 0xffu] ^
                  kTables[5][(lo >> 16) & 0xffu] ^
                  kTables[4][lo >> 24] ^
                  kTables[3][hi & 0xffu] ^
                  kTables[2][(hi >> 8) & 0xffu] ^
                  kTables[1][(hi >> 16) & 0xffu] ^
                  kTables[0][hi >> 24];
        }
    }
    for (; size > 0; --size, ++bytes)
        crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xffu];
    return ~crc;
}

} // namespace ref
