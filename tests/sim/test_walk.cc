#include <gtest/gtest.h>

#include "sim/walk.h"

namespace {

using namespace ct::sim;

TEST(PatternWalk, ContiguousAddresses)
{
    NodeRam ram(4096);
    auto w = contiguousWalk(128);
    EXPECT_EQ(w.elementAddr(ram, 0), 128u);
    EXPECT_EQ(w.elementAddr(ram, 5), 128u + 40u);
    EXPECT_FALSE(w.pattern.isIndexed());
}

TEST(PatternWalk, StridedAddresses)
{
    NodeRam ram(65536);
    auto w = stridedWalk(0, 16);
    EXPECT_EQ(w.elementAddr(ram, 0), 0u);
    EXPECT_EQ(w.elementAddr(ram, 3), 3u * 16u * 8u);
}

TEST(PatternWalk, StrideOneDegeneratesToContiguous)
{
    NodeRam ram(4096);
    auto w = stridedWalk(64, 1);
    EXPECT_TRUE(w.pattern.isContiguous());
    EXPECT_EQ(w.elementAddr(ram, 2), 64u + 16u);
}

TEST(PatternWalk, IndexedFollowsIndexArray)
{
    NodeRam ram(4096);
    Addr idx = 1024;
    ram.writeWord(idx + 0, 7);
    ram.writeWord(idx + 8, 0);
    ram.writeWord(idx + 16, 3);
    auto w = indexedWalk(0, idx);
    EXPECT_TRUE(w.pattern.isIndexed());
    EXPECT_EQ(w.elementAddr(ram, 0), 56u);
    EXPECT_EQ(w.elementAddr(ram, 1), 0u);
    EXPECT_EQ(w.elementAddr(ram, 2), 24u);
}

TEST(PatternWalk, IndexAddr)
{
    auto w = indexedWalk(0, 512);
    EXPECT_EQ(w.indexAddr(0), 512u);
    EXPECT_EQ(w.indexAddr(9), 512u + 72u);
}

TEST(PatternWalkDeath, FixedHasNoAddress)
{
    NodeRam ram(64);
    PatternWalk w{0, ct::core::AccessPattern::fixed(), 0};
    EXPECT_EXIT((void)w.elementAddr(ram, 0),
                testing::ExitedWithCode(1), "fixed pattern");
}

} // namespace
