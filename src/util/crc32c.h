/**
 * @file
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected form
 * 0x82F63B78) over byte streams: the SSE4.2 `crc32` instruction where
 * the CPU has it, else a table generated at compile time. Used as the
 * packet payload checksum of the reliable transport: unlike a word
 * sum, a CRC detects reordered words and offsetting-pair corruptions,
 * and CRC32C specifically guarantees detection of any single burst
 * error up to 32 bits.
 */

#ifndef CT_UTIL_CRC32C_H
#define CT_UTIL_CRC32C_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace ct::util {

namespace detail {

constexpr std::array<std::uint32_t, 256>
makeCrc32cTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
        t[i] = crc;
    }
    return t;
}

inline constexpr std::array<std::uint32_t, 256> crc32cTable =
    makeCrc32cTable();

} // namespace detail

/** Portable table-driven form of crc32cUpdate(). */
inline std::uint32_t
crc32cUpdateTable(std::uint32_t state, const void *data,
                  std::size_t byte_count)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < byte_count; ++i)
        state = (state >> 8) ^
                detail::crc32cTable[(state ^ bytes[i]) & 0xFFu];
    return state;
}

/** True if this host runs crc32cUpdateHardware(). */
bool crc32cHasHardware();

/**
 * The SSE4.2 `crc32` instruction form of crc32cUpdate(); call only
 * where crc32cHasHardware() holds. Same results as the table form.
 */
std::uint32_t crc32cUpdateHardware(std::uint32_t state,
                                   const void *data,
                                   std::size_t byte_count);

/**
 * Fold @p byte_count bytes of @p data into a running CRC state: the
 * hardware form where the CPU has it (checked once), else the table.
 */
std::uint32_t crc32cUpdate(std::uint32_t state, const void *data,
                           std::size_t byte_count);

/** CRC32C of one buffer (init and final xor handled internally). */
inline std::uint32_t
crc32c(const void *data, std::size_t byte_count)
{
    return crc32cUpdate(0xFFFFFFFFu, data, byte_count) ^ 0xFFFFFFFFu;
}

} // namespace ct::util

#endif // CT_UTIL_CRC32C_H
