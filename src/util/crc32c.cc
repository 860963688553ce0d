#include "crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ct::util {

#if defined(__x86_64__)

bool
crc32cHasHardware()
{
    static const bool has =
        (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2"));
    return has;
}

__attribute__((target("sse4.2"))) std::uint32_t
crc32cUpdateHardware(std::uint32_t state, const void *data,
                     std::size_t byte_count)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t crc = state;
    for (; byte_count >= 8; byte_count -= 8, bytes += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, 8);
        crc = _mm_crc32_u64(crc, word);
    }
    auto tail = static_cast<std::uint32_t>(crc);
    for (; byte_count > 0; --byte_count, ++bytes)
        tail = _mm_crc32_u8(tail, *bytes);
    return tail;
}

#else

bool
crc32cHasHardware()
{
    return false;
}

std::uint32_t
crc32cUpdateHardware(std::uint32_t state, const void *data,
                     std::size_t byte_count)
{
    return crc32cUpdateTable(state, data, byte_count);
}

#endif

std::uint32_t
crc32cUpdate(std::uint32_t state, const void *data,
             std::size_t byte_count)
{
    if (crc32cHasHardware())
        return crc32cUpdateHardware(state, data, byte_count);
    return crc32cUpdateTable(state, data, byte_count);
}

} // namespace ct::util
