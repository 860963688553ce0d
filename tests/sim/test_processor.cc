#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/machine.h"
#include "sim/processor.h"

namespace {

using namespace ct::sim;
using P = ct::core::AccessPattern;

/** A small node with T3D-like memory for kernel tests. */
struct Fixture
{
    Node node;

    Fixture() : node(t3dNodeConfig()) {}
};

TEST(Processor, CopyMovesData)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr src = ram.alloc(1024);
    Addr dst = ram.alloc(1024);
    for (int i = 0; i < 128; ++i)
        ram.writeWord(src + 8 * i, 1000 + i);
    Cycles elapsed = f.node.processor().copy(
        contiguousWalk(src), contiguousWalk(dst), 0, 128, 0);
    EXPECT_GT(elapsed, 0u);
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(ram.readWord(dst + 8 * i), 1000u + i);
}

TEST(Processor, CopyRespectsRange)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr src = ram.alloc(1024);
    Addr dst = ram.alloc(1024);
    for (int i = 0; i < 128; ++i)
        ram.writeWord(src + 8 * i, i + 1);
    f.node.processor().copy(contiguousWalk(src), contiguousWalk(dst),
                            10, 20, 0);
    EXPECT_EQ(ram.readWord(dst + 8 * 9), 0u);
    EXPECT_EQ(ram.readWord(dst + 8 * 10), 11u);
    EXPECT_EQ(ram.readWord(dst + 8 * 29), 30u);
    EXPECT_EQ(ram.readWord(dst + 8 * 30), 0u);
}

TEST(Processor, Copy2IndependentOffsets)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr src = ram.alloc(1024);
    Addr dst = ram.alloc(1024);
    for (int i = 0; i < 16; ++i)
        ram.writeWord(src + 8 * i, 100 + i);
    f.node.processor().copy2(contiguousWalk(src), 4,
                             contiguousWalk(dst), 0, 8, 0);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ram.readWord(dst + 8 * i), 104u + i);
}

TEST(Processor, StridedCopySlowerThanContiguous)
{
    Fixture strided_fixture;
    Fixture contig_fixture;
    const std::uint64_t n = 2048;

    NodeRam &r1 = contig_fixture.node.ram();
    Addr s1 = r1.alloc(n * 8), d1 = r1.alloc(n * 8);
    Cycles contiguous = contig_fixture.node.processor().copy(
        contiguousWalk(s1), contiguousWalk(d1), 0, n, 0);

    NodeRam &r2 = strided_fixture.node.ram();
    Addr s2 = r2.alloc(n * 64 * 8), d2 = r2.alloc(n * 8);
    Cycles strided = strided_fixture.node.processor().copy(
        stridedWalk(s2, 64), contiguousWalk(d2), 0, n, 0);

    EXPECT_GT(strided, contiguous);
}

TEST(Processor, GatherToPortCollectsWords)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr src = ram.alloc(4096);
    for (int i = 0; i < 32; ++i)
        ram.writeWord(src + 8 * i * 4, 77 + i); // stride 4
    std::vector<std::uint64_t> out;
    Cycles elapsed = f.node.processor().gatherToPort(
        stridedWalk(src, 4), 0, 32, 0, out);
    EXPECT_GT(elapsed, 0u);
    ASSERT_EQ(out.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], 77u + i);
}

TEST(Processor, ScatterFromPortStoresWords)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr dst = ram.alloc(4096);
    std::vector<std::uint64_t> in{5, 6, 7, 8};
    f.node.processor().scatterFromPort(stridedWalk(dst, 2), 10, 4, 0,
                                       in.data());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ram.readWord(dst + (10 + i) * 2 * 8), 5u + i);
}

TEST(Processor, ComputeRemoteAddrsMatchesWalk)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr idx = ram.alloc(256);
    for (int i = 0; i < 8; ++i)
        ram.writeWord(idx + 8 * i, 7 - i);
    auto walk = indexedWalk(0x8000, idx);
    std::vector<Addr> addrs;
    f.node.processor().computeRemoteAddrs(walk, 2, 4, 0, addrs);
    ASSERT_EQ(addrs.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(addrs[static_cast<std::size_t>(i)],
                  walk.elementAddr(ram, 2 + i));
}

TEST(Processor, IndexedCopyUsesIndexArrays)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    const std::uint64_t n = 64;
    Addr src = ram.alloc(n * 8);
    Addr dst = ram.alloc(n * 8);
    Addr sidx = ram.alloc(n * 8);
    Addr didx = ram.alloc(n * 8);
    for (std::uint64_t i = 0; i < n; ++i) {
        ram.writeWord(src + 8 * i, 1000 + i);
        ram.writeWord(sidx + 8 * i, n - 1 - i); // reverse gather
        ram.writeWord(didx + 8 * i, i);
    }
    f.node.processor().copy(indexedWalk(src, sidx),
                            indexedWalk(dst, didx), 0, n, 0);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(ram.readWord(dst + 8 * i), 1000 + (n - 1 - i));
}

TEST(Processor, FenceCoversWriteQueue)
{
    Fixture f;
    NodeRam &ram = f.node.ram();
    Addr src = ram.alloc(65536);
    Addr dst = ram.alloc(65536);
    Cycles elapsed = f.node.processor().copy(
        contiguousWalk(src), contiguousWalk(dst), 0, 512, 0);
    Cycles wait = f.node.processor().fence(elapsed);
    // Fencing twice is idempotent.
    EXPECT_EQ(f.node.processor().fence(elapsed + wait), 0u);
}

// The whole-cycle loop overhead carries its fraction across chunked
// kernel calls. Expected totals were taken from the floor-based carry
// that the integral shortcut and the truncating carry replaced.
Cycles
chunkedGatherCycles(double loop_cycles_per_elem)
{
    NodeConfig cfg = t3dNodeConfig();
    cfg.processor.loopCyclesPerElem = loop_cycles_per_elem;
    Node node(cfg);
    Addr src = node.ram().alloc(4096);
    std::vector<std::uint64_t> words;
    Cycles now = 0;
    for (std::uint64_t first = 0; first < 500; first += 7)
        now += node.processor().gatherToPort(contiguousWalk(src), first,
                                             7, now, words);
    return now;
}

TEST(Processor, LoopOverheadCarriesAcrossChunks)
{
    EXPECT_EQ(chunkedGatherCycles(0.0), 3946u);
    EXPECT_EQ(chunkedGatherCycles(1.37), 4636u);
    EXPECT_EQ(chunkedGatherCycles(2.0), 4954u);
    EXPECT_EQ(chunkedGatherCycles(0.1), 3996u);
}

TEST(ProcessorDeath, RejectsNegativeOrInfiniteLoopCost)
{
    for (double bad : {-1.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        ProcessorConfig cfg;
        cfg.loopCyclesPerElem = bad;
        Node node(t3dNodeConfig());
        EXPECT_EXIT(Processor(cfg, node.memory(), node.ram()),
                    testing::ExitedWithCode(1), "loopCyclesPerElem");
    }
}

} // namespace
