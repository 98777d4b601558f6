/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
 * ranges, the checksum framing every durable record in the repository
 * (svc journal frames, svc snapshots, sim profile disk-cache cells).
 * Table-driven (slicing-by-8 on little-endian hosts, bytewise
 * elsewhere; the output is the same), incremental:
 * crc32(b, crc32(a)) == crc32(a + b).
 */

#ifndef REF_UTIL_CRC32_HH
#define REF_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ref {

/**
 * CRC-32 of @p size bytes at @p data, continuing from @p seed (pass
 * the previous call's return value to checksum a split buffer).
 * The empty range maps to 0.
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Convenience overload for string-ish payloads. */
inline std::uint32_t
crc32(std::string_view bytes, std::uint32_t seed = 0)
{
    return crc32(bytes.data(), bytes.size(), seed);
}

} // namespace ref

#endif // REF_UTIL_CRC32_HH
