#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/crc32c.h"
#include "util/rng.h"

namespace {

using namespace ct::util;

TEST(Crc32c, CheckValue)
{
    // The standard CRC-32C check value (RFC 3720 appendix B.4).
    const char *digits = "123456789";
    EXPECT_EQ(crc32c(digits, std::strlen(digits)), 0xE3069283u);
    EXPECT_EQ(crc32cUpdateTable(0xFFFFFFFFu, digits, 9) ^ 0xFFFFFFFFu,
              0xE3069283u);
}

TEST(Crc32c, EmptyBufferKeepsState)
{
    EXPECT_EQ(crc32cUpdate(0x12345678u, nullptr, 0), 0x12345678u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, HardwareMatchesTableOnEveryLength)
{
    if (!crc32cHasHardware())
        GTEST_SKIP() << "no SSE4.2 crc32 on this host";
    Rng rng(1995);
    std::vector<unsigned char> buffer(1024 + 8);
    for (unsigned char &byte : buffer)
        byte = static_cast<unsigned char>(rng.next());
    for (std::size_t length = 0; length <= 1024; ++length) {
        // Vary the start so the 8-byte loads run unaligned too.
        const unsigned char *start = buffer.data() + length % 8;
        auto state = static_cast<std::uint32_t>(rng.next());
        ASSERT_EQ(crc32cUpdateHardware(state, start, length),
                  crc32cUpdateTable(state, start, length))
            << "length " << length;
    }
    EXPECT_EQ(crc32cUpdateHardware(0xFFFFFFFFu, "123456789", 9) ^
                  0xFFFFFFFFu,
              0xE3069283u);
}

TEST(Crc32c, DispatchMatchesTable)
{
    Rng rng(2718);
    std::vector<unsigned char> buffer(777);
    for (unsigned char &byte : buffer)
        byte = static_cast<unsigned char>(rng.next());
    EXPECT_EQ(crc32cUpdate(0xFFFFFFFFu, buffer.data(), buffer.size()),
              crc32cUpdateTable(0xFFFFFFFFu, buffer.data(),
                                buffer.size()));
}

} // namespace
