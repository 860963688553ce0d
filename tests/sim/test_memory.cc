#include <gtest/gtest.h>

#include "sim/machine.h"
#include "sim/memory.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace {

using namespace ct::sim;

TEST(MemorySystem, CacheHitIsFast)
{
    MemorySystem mem(t3dNodeConfig().memory);
    Cycles miss = mem.load(0, 0);
    Cycles hit = mem.load(8, miss);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, mem.config().cacheHitCycles);
}

TEST(MemorySystem, StoreIsCheapThroughWriteQueue)
{
    MemorySystem mem(t3dNodeConfig().memory);
    Cycles cost = mem.store(0, 0);
    EXPECT_LE(cost, mem.config().storeIssueCycles + 1);
}

TEST(MemorySystem, EngineWriteInvalidatesCache)
{
    MemorySystem mem(t3dNodeConfig().memory);
    mem.load(128, 0);
    EXPECT_TRUE(mem.cache().contains(128));
    mem.engineWrite(128, 8, 100);
    EXPECT_FALSE(mem.cache().contains(128));
}

TEST(MemorySystem, EngineReadReturnsServiceTime)
{
    MemorySystem mem(t3dNodeConfig().memory);
    EXPECT_GT(mem.engineRead(0, 512, 0), 0u);
}

TEST(MemorySystem, FenceDrainsWrites)
{
    MemorySystem mem(t3dNodeConfig().memory);
    Cycles now = 0;
    for (int i = 0; i < 32; ++i)
        now += mem.store(4096 + 8 * i, now);
    Cycles wait = mem.fence(now);
    EXPECT_EQ(mem.fence(now + wait), 0u);
}

TEST(MemorySystem, PipelinedLoadsBypassCache)
{
    MemorySystem mem(paragonNodeConfig().memory);
    mem.load(0, 0);
    // pfld does not allocate a line.
    EXPECT_FALSE(mem.cache().contains(0));
    // The cached path (streaming = false) does.
    mem.load(4096, 100, BusMaster::Processor, false);
    EXPECT_TRUE(mem.cache().contains(4096));
}

TEST(MemorySystem, SequentialLoadsFasterThanRandomOnT3d)
{
    auto run = [&](bool sequential) {
        MemorySystem mem(t3dNodeConfig().memory);
        Cycles now = 0;
        for (int i = 0; i < 512; ++i) {
            Addr a = sequential
                         ? static_cast<Addr>(8 * i)
                         : static_cast<Addr>((i * 7919) % 4096) * 512;
            now += mem.load(a, now);
        }
        return now;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(MemorySystem, SynchronizeResetsStreams)
{
    MemorySystem mem(t3dNodeConfig().memory);
    Cycles now = 0;
    for (int i = 0; i < 64; ++i)
        now += mem.load(32 * i, now);
    mem.synchronize(); // must not crash and resets prefetch state
    now += mem.load(32 * 64, now);
    SUCCEED();
}

TEST(MemorySystemDeath, MismatchedReadAheadLine)
{
    MemoryConfig cfg = t3dNodeConfig().memory;
    cfg.readAhead.lineBytes = 64;
    EXPECT_EXIT(MemorySystem{cfg}, testing::ExitedWithCode(1),
                "must match");
}

// Golden cycle stream: a seeded mix of every MemorySystem entry point
// is folded, return value by return value, into one CRC32C together
// with the final component counters. The expected values were taken
// from the out-of-line, deque-based memory system that the inlined
// fast path replaced, so any change to a simulated cycle or counter
// anywhere in the stream shows up as a different CRC.

class CycleStream
{
  public:
    void
    add(std::uint64_t value)
    {
        state = ct::util::crc32cUpdate(state, &value, sizeof value);
    }

    std::uint32_t value() const { return state ^ 0xFFFFFFFFu; }

  private:
    std::uint32_t state = 0xFFFFFFFFu;
};

std::uint32_t
goldenStreamCrc(const MemoryConfig &cfg, std::uint64_t seed)
{
    MemorySystem mem(cfg);
    ct::util::Rng rng(seed);
    CycleStream crc;
    const BusMaster masters[] = {BusMaster::Processor,
                                 BusMaster::CoProcessor, BusMaster::Dma,
                                 BusMaster::NetworkInterface};
    Cycles now = 0;
    Addr cursor = 0;
    for (int i = 0; i < 20000; ++i) {
        // Mostly sequential and short-stride word streams (cache and
        // row hits, write-queue coalescing) with random jumps across
        // 256 KiB (misses, row and bank changes).
        std::uint64_t step = rng.nextBelow(16);
        if (step == 0)
            cursor = rng.nextBelow(1u << 18) & ~7ull;
        else if (step < 4)
            cursor += 8 * rng.nextBelow(64);
        else
            cursor += 8;
        cursor &= (1u << 18) - 1;
        BusMaster master = masters[rng.nextBelow(8) == 0
                                       ? rng.nextBelow(4)
                                       : 0];
        Cycles cost = 0;
        std::uint64_t op = rng.nextBelow(100);
        if (op < 40) {
            cost = mem.load(cursor, now, master, rng.nextBelow(4) != 0);
        } else if (op < 85) {
            cost = mem.store(cursor, now, master);
        } else if (op < 91) {
            Bytes bytes = 8 * (1 + rng.nextBelow(512));
            cost = mem.engineRead(cursor, bytes, now, master);
        } else if (op < 97) {
            Bytes bytes = 8 * (1 + rng.nextBelow(512));
            cost = mem.engineWrite(cursor, bytes, now, master);
        } else if (op < 99) {
            cost = mem.fence(now);
        } else {
            mem.synchronize();
        }
        crc.add(cost);
        // Mostly the caller waits for the visible cycles; sometimes
        // it issues the next access early (overlapped masters), so
        // the bus, banks and lanes see contention.
        now += rng.nextBelow(8) == 0 ? rng.nextBelow(4)
                                     : cost + rng.nextBelow(4);
    }

    const CacheStats &c = mem.cache().stats();
    for (std::uint64_t v : {c.loadHits, c.loadMisses, c.storeHits,
                            c.storeMisses, c.writeBacks,
                            c.invalidations})
        crc.add(v);
    const DramStats &d = mem.dram().stats();
    for (std::uint64_t v :
         {d.reads, d.writes, d.rowHits, d.rowMisses, d.busyCycles})
        crc.add(v);
    const WriteBufferStats &w = mem.writeBuffer().stats();
    for (std::uint64_t v :
         {w.stores, w.coalesced, w.fullStalls, w.stallCycles})
        crc.add(v);
    const ReadAheadStats &r = mem.readAhead().stats();
    for (std::uint64_t v :
         {r.streamHits, r.streamMisses, r.prefetchesIssued})
        crc.add(v);
    const BusStats &b = mem.bus().stats();
    for (std::uint64_t v : {b.transactions, b.ownerSwitches,
                            b.busyCycles, b.waitCycles})
        crc.add(v);
    crc.add(now);
    return crc.value();
}

MemoryConfig
ablationMemoryConfig()
{
    MemoryConfig cfg = t3dNodeConfig().memory;
    cfg.cache.writePolicy = WritePolicy::WriteBack;
    cfg.cache.allocateOnWriteMiss = true;
    cfg.writeBuffer.entries = 0;
    cfg.dram.banks = 3;
    return cfg;
}

MemoryConfig
unbufferedMemoryConfig()
{
    MemoryConfig cfg = paragonNodeConfig().memory;
    cfg.writeBuffer.entries = 0;
    cfg.dram.banks = 6;
    return cfg;
}

TEST(MemorySystemGolden, T3dCycleStream)
{
    EXPECT_EQ(goldenStreamCrc(t3dNodeConfig().memory, 1995), 0x571ec37cu);
    EXPECT_EQ(goldenStreamCrc(t3dNodeConfig().memory, 2718), 0x51c5a22au);
}

TEST(MemorySystemGolden, ParagonCycleStream)
{
    EXPECT_EQ(goldenStreamCrc(paragonNodeConfig().memory, 1995), 0xf09833adu);
    EXPECT_EQ(goldenStreamCrc(paragonNodeConfig().memory, 2718), 0xdb42a437u);
}

TEST(MemorySystemGolden, WriteBackAblationCycleStream)
{
    EXPECT_EQ(goldenStreamCrc(ablationMemoryConfig(), 1995), 0x224f8546u);
    EXPECT_EQ(goldenStreamCrc(ablationMemoryConfig(), 2718), 0x82601b33u);
}

TEST(MemorySystemGolden, UnbufferedWriteThroughCycleStream)
{
    EXPECT_EQ(goldenStreamCrc(unbufferedMemoryConfig(), 1995), 0x5e149531u);
    EXPECT_EQ(goldenStreamCrc(unbufferedMemoryConfig(), 2718), 0xb78cbd27u);
}

} // namespace
