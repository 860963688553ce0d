#include "digest.h"

#include <cstdio>
#include <cstring>

#include "util/crc32c.h"

namespace perfbench {

void
Digest::add(const SimValues &v)
{
    unsigned char bytes[32];
    std::memcpy(bytes, &v.simMBps, 8);
    std::memcpy(bytes + 8, &v.modelMBps, 8);
    std::memcpy(bytes + 16, &v.makespanCycles, 8);
    std::memcpy(bytes + 24, &v.corruptWords, 8);
    state = ct::util::crc32cUpdate(state, bytes, sizeof bytes);
}

std::uint32_t
Digest::value() const
{
    return state ^ 0xFFFFFFFFu;
}

std::string
Digest::hex() const
{
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", value());
    return buf;
}

} // namespace perfbench
