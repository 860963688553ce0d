/**
 * @file
 * Reference-model fuzz tests: the optimized tag-store cache and the
 * occupancy-based DRAM are checked against trivially-correct
 * reference implementations on random access streams, and the
 * ring-buffer write queue, load pipeline and flat-state DRAM against
 * the straightforward deque- and per-bank-vector models they
 * replaced, which must agree on every returned cycle and counter.
 * The block-backed NodeRam and its page-run paths are checked the
 * same way against the hash-map page store it replaced, which must
 * agree on every read value and page counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/node_ram.h"
#include "sim/prefetch.h"
#include "sim/write_buffer.h"
#include "util/rng.h"

namespace {

using namespace ct::sim;

/** Obviously-correct LRU set-associative cache. */
class ReferenceCache
{
  public:
    ReferenceCache(Bytes size, Bytes line, unsigned assoc)
        : lineBytes(line), sets(size / line / assoc), ways(assoc)
    {
    }

    /** Returns true on hit; inserts on miss. */
    bool
    access(Addr addr)
    {
        Addr tag = addr / lineBytes;
        std::size_t set = static_cast<std::size_t>(tag) % sets;
        auto &lru = contents[set];
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (*it == tag) {
                lru.erase(it);
                lru.push_front(tag);
                return true;
            }
        }
        lru.push_front(tag);
        if (lru.size() > ways)
            lru.pop_back();
        return false;
    }

  private:
    Bytes lineBytes;
    std::size_t sets;
    unsigned ways;
    std::map<std::size_t, std::list<Addr>> contents;
};

class CacheFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(CacheFuzz, LoadsMatchReferenceLru)
{
    ct::util::Rng rng(GetParam());
    unsigned assoc = 1u << rng.nextBelow(4); // 1..8 ways
    CacheConfig cfg{4096, 32, assoc, WritePolicy::WriteThrough,
                    false};
    Cache cache(cfg);
    ReferenceCache ref(4096, 32, assoc);

    // A mix of sequential runs and random jumps over 4x the cache.
    Addr cursor = 0;
    for (int i = 0; i < 4000; ++i) {
        if (rng.nextBelow(8) == 0)
            cursor = rng.nextBelow(16384) & ~7ull;
        else
            cursor = (cursor + 8) % 16384;
        bool hit = cache.load(cursor).hit;
        bool ref_hit = ref.access(cursor);
        ASSERT_EQ(hit, ref_hit)
            << "step " << i << " addr " << cursor << " assoc "
            << assoc;
    }
}

TEST_P(CacheFuzz, WriteThroughStoresTouchMemoryEveryTime)
{
    ct::util::Rng rng(GetParam() + 100);
    CacheConfig cfg{4096, 32, 2, WritePolicy::WriteThrough, false};
    Cache cache(cfg);
    for (int i = 0; i < 1000; ++i) {
        Addr addr = rng.nextBelow(16384) & ~7ull;
        EXPECT_TRUE(cache.store(addr).toMemory);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz,
                         testing::Range<std::uint64_t>(1, 9));

class DramFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(DramFuzz, CompletionsAreCausalAndMonotonePerLane)
{
    ct::util::Rng rng(GetParam());
    DramConfig cfg;
    cfg.rowBytes = 512;
    cfg.banks = 4;
    cfg.bankSpanBytes = 1024;
    cfg.rowHitCycles = 3;
    cfg.rowMissCycles = 11;
    cfg.writeHitCycles = 5;
    cfg.writeMissCycles = 9;
    Dram dram(cfg);

    Cycles now = 0;
    Cycles last_complete = 0;
    for (int i = 0; i < 3000; ++i) {
        now += rng.nextBelow(6);
        Addr addr = rng.nextBelow(1 << 20) & ~7ull;
        Bytes bytes = 8u << rng.nextBelow(4);
        bool write = rng.nextBelow(2) == 1;
        auto access = dram.access(addr, bytes, write, now);
        // Causality: service starts no earlier than the request.
        ASSERT_GE(access.start, now);
        ASSERT_GT(access.complete, access.start);
        // The demand lane's data phase is totally ordered.
        ASSERT_GE(access.complete, last_complete);
        last_complete = access.complete;
    }
}

TEST_P(DramFuzz, RowHitsNeverSlowerThanMisses)
{
    ct::util::Rng rng(GetParam() + 50);
    DramConfig cfg;
    cfg.rowHitCycles = 3;
    cfg.rowMissCycles = 11;
    Dram dram(cfg);
    for (int i = 0; i < 500; ++i) {
        // Keep addr and addr+8 within one row.
        Addr row = rng.nextBelow(1 << 9) * cfg.rowBytes;
        Addr addr = row + rng.nextBelow(cfg.rowBytes / 8 - 1) * 8;
        auto first = dram.access(addr, 8, false, 1u << 30);
        auto second =
            dram.access(addr + 8, 8, false, first.complete);
        ASSERT_TRUE(second.rowHit);
        ASSERT_LE(second.complete - second.start,
                  first.complete - first.start);
    }
}

TEST_P(DramFuzz, StatsBalance)
{
    ct::util::Rng rng(GetParam() + 77);
    Dram dram(DramConfig{});
    std::uint64_t reads = 0, writes = 0;
    for (int i = 0; i < 400; ++i) {
        bool write = rng.nextBelow(2) == 1;
        dram.access(rng.nextBelow(1 << 16) & ~7ull, 8, write, 0);
        ++(write ? writes : reads);
    }
    EXPECT_EQ(dram.stats().reads, reads);
    EXPECT_EQ(dram.stats().writes, writes);
    EXPECT_EQ(dram.stats().rowHits + dram.stats().rowMisses,
              reads + writes);
}

/**
 * The DRAM model written the plain way: per-bank vectors, a division
 * and modulo for bank selection, and every request walked row by row.
 */
class ReferenceDram
{
  public:
    explicit ReferenceDram(const DramConfig &config)
        : cfg(config), openRow(static_cast<std::size_t>(cfg.banks), 0),
          rowOpen(static_cast<std::size_t>(cfg.banks), false),
          bankBusyUntil(static_cast<std::size_t>(cfg.banks), 0)
    {
    }

    DramAccess
    access(Addr addr, Bytes bytes, bool is_write, Cycles now)
    {
        return serve(addr, bytes, is_write, now, demandBusyUntil);
    }

    DramAccess
    accessBackground(Addr addr, Bytes bytes, bool is_write, Cycles now)
    {
        return serve(addr, bytes, is_write, now, backgroundBusyUntil);
    }

    void closeRows() { std::fill(rowOpen.begin(), rowOpen.end(), false); }

    const DramStats &stats() const { return counters; }

  private:
    std::size_t
    bankOf(Addr addr) const
    {
        return static_cast<std::size_t>(
            (addr / cfg.bankSpanBytes) % static_cast<Addr>(cfg.banks));
    }

    Addr rowOf(Addr addr) const { return alignDown(addr, cfg.rowBytes); }

    Cycles
    serveWithinRow(Addr addr, bool is_write)
    {
        std::size_t bank = bankOf(addr);
        Addr row = rowOf(addr);
        if (rowOpen[bank] && openRow[bank] == row) {
            ++counters.rowHits;
            return is_write ? cfg.writeHitCycles : cfg.rowHitCycles;
        }
        ++counters.rowMisses;
        openRow[bank] = row;
        rowOpen[bank] = true;
        return is_write ? cfg.writeMissCycles : cfg.rowMissCycles;
    }

    DramAccess
    serve(Addr addr, Bytes bytes, bool is_write, Cycles now,
          Cycles &lane_busy)
    {
        ++(is_write ? counters.writes : counters.reads);
        std::size_t bank = bankOf(addr);
        DramAccess result;
        result.rowHit = rowOpen[bank] && openRow[bank] == rowOf(addr);
        Cycles start = std::max(now, bankBusyUntil[bank]);
        Cycles activation = 0;
        Cycles data = 0;
        Addr cursor = addr;
        Bytes remaining = bytes;
        while (remaining > 0) {
            Addr row_end = rowOf(cursor) + cfg.rowBytes;
            Bytes chunk = std::min<Bytes>(remaining, row_end - cursor);
            activation += serveWithinRow(cursor, is_write);
            Bytes beats = (chunk + cfg.beatBytes - 1) / cfg.beatBytes;
            data += beats * cfg.burstBeatCycles;
            cursor += chunk;
            remaining -= chunk;
        }
        Cycles complete = std::max(start + activation, lane_busy) + data;
        bankBusyUntil[bank] = complete;
        lane_busy = complete;
        result.start = start;
        result.complete = complete;
        counters.busyCycles += activation + data;
        return result;
    }

    DramConfig cfg;
    DramStats counters;
    std::vector<Addr> openRow;
    std::vector<bool> rowOpen;
    std::vector<Cycles> bankBusyUntil;
    Cycles demandBusyUntil = 0;
    Cycles backgroundBusyUntil = 0;
};

void
expectSameDramStats(const DramStats &got, const DramStats &want)
{
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
    EXPECT_EQ(got.busyCycles, want.busyCycles);
}

/** Seeded DRAM geometry: power-of-two and odd bank counts alike. */
DramConfig
fuzzDramConfig(ct::util::Rng &rng)
{
    const int bank_counts[] = {1, 2, 3, 4, 6, 8};
    DramConfig cfg;
    cfg.rowBytes = 128u << rng.nextBelow(4);
    cfg.banks = bank_counts[rng.nextBelow(6)];
    cfg.bankSpanBytes = cfg.rowBytes << rng.nextBelow(3);
    cfg.rowHitCycles = 1 + rng.nextBelow(8);
    cfg.rowMissCycles = cfg.rowHitCycles + rng.nextBelow(16);
    cfg.writeHitCycles = 1 + rng.nextBelow(8);
    cfg.writeMissCycles = cfg.writeHitCycles + rng.nextBelow(16);
    cfg.beatBytes = 8u << rng.nextBelow(2);
    cfg.burstBeatCycles = 1 + rng.nextBelow(2);
    return cfg;
}

TEST_P(DramFuzz, MatchesReferenceAcrossBanksAndRowCrossings)
{
    ct::util::Rng rng(GetParam() + 900);
    DramConfig cfg = fuzzDramConfig(rng);
    Dram dram(cfg);
    ReferenceDram ref(cfg);

    Cycles now = 0;
    Addr cursor = 0;
    for (int i = 0; i < 4000; ++i) {
        // Word streams (single-row fast path), random jumps (bank and
        // row changes) and line- to page-sized requests at arbitrary
        // word offsets, many of which straddle one or more rows.
        if (rng.nextBelow(4) == 0)
            cursor = rng.nextBelow(1u << 20) & ~7ull;
        else
            cursor += 8;
        Bytes bytes = rng.nextBelow(3) == 0
                          ? 8 * (1 + rng.nextBelow(cfg.rowBytes / 2))
                          : 8;
        bool write = rng.nextBelow(2) == 1;
        bool background = rng.nextBelow(3) == 0;
        now += rng.nextBelow(12);
        if (rng.nextBelow(200) == 0) {
            dram.closeRows();
            ref.closeRows();
        }
        DramAccess got = background
                             ? dram.accessBackground(cursor, bytes,
                                                     write, now)
                             : dram.access(cursor, bytes, write, now);
        DramAccess want = background
                              ? ref.accessBackground(cursor, bytes,
                                                     write, now)
                              : ref.access(cursor, bytes, write, now);
        ASSERT_EQ(got.start, want.start) << "step " << i;
        ASSERT_EQ(got.complete, want.complete) << "step " << i;
        ASSERT_EQ(got.rowHit, want.rowHit) << "step " << i;
    }
    expectSameDramStats(dram.stats(), ref.stats());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramFuzz,
                         testing::Range<std::uint64_t>(1, 7));

/**
 * The write queue as a std::deque with a per-entry issued flag and a
 * full rescan for the unissued count on every enqueue.
 */
class ReferenceWriteBuffer
{
  public:
    ReferenceWriteBuffer(const WriteBufferConfig &config,
                         ReferenceDram &dram)
        : cfg(config), dram(dram)
    {
    }

    Cycles
    store(Addr addr, Bytes bytes, Cycles now)
    {
        ++counters.stores;
        retire(now);
        Addr line = alignDown(addr, cfg.lineBytes);
        if (cfg.entries == 0) {
            Cycles cost =
                dram.accessBackground(addr, bytes, true, now).complete -
                now;
            counters.stallCycles += cost;
            return cost;
        }
        if (cfg.coalesce && !queue.empty() && !queue.back().issued &&
            queue.back().line == line) {
            ++counters.coalesced;
            queue.back().bytes += bytes;
            return 0;
        }
        Cycles stall = 0;
        if (queue.size() >= cfg.entries) {
            ++counters.fullStalls;
            issueBatch(now);
            stall = queue.front().completesAt > now
                        ? queue.front().completesAt - now
                        : 0;
            counters.stallCycles += stall;
            now += stall;
            queue.pop_front();
            retire(now);
        }
        queue.push_back({line, addr, bytes, false, 0});
        unsigned unissued = 0;
        for (const auto &e : queue)
            unissued += !e.issued;
        if (unissued >= std::max(1u, cfg.drainBatch))
            issueBatch(now);
        return stall;
    }

    Cycles
    drainTime(Cycles now)
    {
        issueBatch(now);
        if (queue.empty() || queue.back().completesAt <= now)
            return 0;
        return queue.back().completesAt - now;
    }

    std::size_t
    occupancy(Cycles now) const
    {
        std::size_t count = 0;
        for (const auto &e : queue)
            count += !e.issued || e.completesAt > now;
        return count;
    }

    const WriteBufferStats &stats() const { return counters; }

  private:
    struct Entry
    {
        Addr line;
        Addr addr;
        Bytes bytes;
        bool issued;
        Cycles completesAt;
    };

    void
    retire(Cycles now)
    {
        while (!queue.empty() && queue.front().issued &&
               queue.front().completesAt <= now)
            queue.pop_front();
    }

    void
    issueBatch(Cycles now)
    {
        for (auto &entry : queue) {
            if (entry.issued)
                continue;
            entry.completesAt =
                dram.accessBackground(entry.addr, entry.bytes, true, now)
                    .complete;
            entry.issued = true;
        }
    }

    WriteBufferConfig cfg;
    ReferenceDram &dram;
    WriteBufferStats counters;
    std::deque<Entry> queue;
};

class WriteBufferFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(WriteBufferFuzz, RingMatchesDequeReference)
{
    ct::util::Rng rng(GetParam());
    const unsigned entry_counts[] = {0, 1, 2, 3, 4, 6, 8};
    const unsigned batches[] = {0, 1, 2, 4, 7};
    WriteBufferConfig cfg;
    cfg.entries = entry_counts[rng.nextBelow(7)];
    cfg.coalesce = rng.nextBelow(4) != 0;
    cfg.lineBytes = 32u << rng.nextBelow(2);
    cfg.drainBatch = batches[rng.nextBelow(5)];
    DramConfig dram_cfg = fuzzDramConfig(rng);
    Dram dram(dram_cfg);
    ReferenceDram ref_dram(dram_cfg);
    WriteBuffer wbq(cfg, dram);
    ReferenceWriteBuffer ref(cfg, ref_dram);

    Cycles now = 0;
    Addr cursor = 0;
    for (int i = 0; i < 6000; ++i) {
        std::uint64_t op = rng.nextBelow(100);
        if (op < 3) {
            Cycles got = wbq.drainTime(now);
            ASSERT_EQ(got, ref.drainTime(now)) << "drain, step " << i;
            now += rng.nextBelow(2) ? got : 0;
        } else if (op < 10) {
            ASSERT_EQ(wbq.occupancy(now), ref.occupancy(now))
                << "occupancy, step " << i;
        } else {
            // Same-line runs (coalescing), strides and random jumps.
            std::uint64_t step = rng.nextBelow(8);
            if (step == 0)
                cursor = rng.nextBelow(1u << 18) & ~7ull;
            else
                cursor += step < 5 ? 8 : 8 * rng.nextBelow(32);
            Cycles got = wbq.store(cursor, 8, now);
            ASSERT_EQ(got, ref.store(cursor, 8, now))
                << "store, step " << i;
            // The issuing processor usually absorbs the stall, but
            // may also be modeled as racing ahead of it.
            now += (rng.nextBelow(4) ? got : 0) + rng.nextBelow(6);
        }
    }
    const WriteBufferStats &got = wbq.stats();
    const WriteBufferStats &want = ref.stats();
    EXPECT_EQ(got.stores, want.stores);
    EXPECT_EQ(got.coalesced, want.coalesced);
    EXPECT_EQ(got.fullStalls, want.fullStalls);
    EXPECT_EQ(got.stallCycles, want.stallCycles);
    expectSameDramStats(dram.stats(), ref_dram.stats());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteBufferFuzz,
                         testing::Range<std::uint64_t>(1, 25));

/** The load pipeline as a std::deque of completion times. */
class ReferenceLoadPipeline
{
  public:
    explicit ReferenceLoadPipeline(const LoadPipelineConfig &config)
        : cfg(config)
    {
    }

    Cycles
    load(Cycles completes_at, Cycles now)
    {
        completes_at += cfg.pipeLatency;
        if (!cfg.enabled)
            return completes_at > now ? completes_at - now : 0;
        Cycles stall = 0;
        while (!outstanding.empty() && outstanding.front() <= now)
            outstanding.pop_front();
        if (outstanding.size() >= cfg.depth) {
            stall = outstanding.front() - now;
            outstanding.pop_front();
        }
        outstanding.push_back(completes_at);
        return stall;
    }

    Cycles
    drainTime(Cycles now) const
    {
        if (outstanding.empty() || outstanding.back() <= now)
            return 0;
        return outstanding.back() - now;
    }

    void reset() { outstanding.clear(); }

  private:
    LoadPipelineConfig cfg;
    std::deque<Cycles> outstanding;
};

class LoadPipelineFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(LoadPipelineFuzz, RingMatchesDequeReference)
{
    ct::util::Rng rng(GetParam());
    LoadPipelineConfig cfg;
    cfg.enabled = rng.nextBelow(5) != 0;
    cfg.depth = 1 + static_cast<unsigned>(rng.nextBelow(6));
    cfg.pipeLatency = rng.nextBelow(4);
    LoadPipeline pipe(cfg);
    ReferenceLoadPipeline ref(cfg);

    Cycles now = 0;
    for (int i = 0; i < 6000; ++i) {
        std::uint64_t op = rng.nextBelow(100);
        if (op < 4) {
            ASSERT_EQ(pipe.drainTime(now), ref.drainTime(now))
                << "drain, step " << i;
        } else if (op < 6) {
            pipe.reset();
            ref.reset();
        } else {
            // Completion times are not monotone: a row hit issued
            // after a row miss finishes first.
            Cycles completes = now + rng.nextBelow(40);
            Cycles got = pipe.load(completes, now);
            ASSERT_EQ(got, ref.load(completes, now)) << "load, step " << i;
            now += (rng.nextBelow(4) ? got : 0) + rng.nextBelow(5);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoadPipelineFuzz,
                         testing::Range<std::uint64_t>(1, 25));

/**
 * The sparse hash-map page store NodeRam replaced: one heap page per
 * std::unordered_map entry, a FIFO recycle queue and per-page pin
 * flags. Word accesses go byte-range-wise through the page map (the
 * original's translation cache is only a cache and is left out).
 */
class ReferenceNodeRam
{
  public:
    explicit ReferenceNodeRam(Bytes alloc_skew_bytes)
        : allocSkew(alloc_skew_bytes)
    {
    }

    Addr
    alloc(Bytes bytes, Bytes align)
    {
        Addr base = (next + align - 1) & ~(static_cast<Addr>(align) - 1);
        next = base + bytes + allocSkew;
        return base;
    }

    void
    reset()
    {
        next = 0;
        pages.clear();
        recycleQueue.clear();
        pinnedRanges.clear();
    }

    std::uint64_t
    readWord(Addr addr) const
    {
        std::uint64_t value = 0;
        auto *dst = reinterpret_cast<std::uint8_t *>(&value);
        for (Bytes b = 0; b < 8; ++b) {
            auto it = pages.find((addr + b) / kPageBytes);
            dst[b] = it == pages.end()
                         ? 0
                         : it->second.data[(addr + b) % kPageBytes];
        }
        return value;
    }

    void
    writeWord(Addr addr, std::uint64_t value)
    {
        const auto *src = reinterpret_cast<const std::uint8_t *>(&value);
        for (Bytes b = 0; b < 8; ++b)
            touchPage((addr + b) / kPageBytes)[(addr + b) % kPageBytes] =
                src[b];
    }

    void
    setResidencyLimit(std::size_t max_pages)
    {
        residencyLimit = max_pages;
        if (residencyLimit)
            evictToLimit();
    }

    void
    pinRange(Addr addr, Bytes bytes)
    {
        if (bytes == 0)
            return;
        Addr first = addr / kPageBytes;
        Addr last = (addr + bytes - 1) / kPageBytes;
        pinnedRanges.emplace_back(first, last);
        for (Addr page = first; page <= last; ++page) {
            auto it = pages.find(page);
            if (it != pages.end())
                it->second.pinned = true;
        }
    }

    std::size_t residentPages() const { return pages.size(); }
    std::size_t peakResidentPages() const { return peakResident; }
    std::uint64_t recycledPages() const { return recycled; }

  private:
    static constexpr Bytes kPageBytes = 4096;

    struct Page
    {
        std::unique_ptr<std::uint8_t[]> data;
        bool pinned = false;
    };

    bool
    isPinned(Addr page_index) const
    {
        for (const auto &[first, last] : pinnedRanges)
            if (page_index >= first && page_index <= last)
                return true;
        return false;
    }

    std::uint8_t *
    touchPage(Addr page_index)
    {
        auto [it, inserted] = pages.try_emplace(page_index);
        if (inserted) {
            it->second.data = std::make_unique<std::uint8_t[]>(kPageBytes);
            it->second.pinned = isPinned(page_index);
            if (!it->second.pinned)
                recycleQueue.push_back(page_index);
            if (residencyLimit)
                evictToLimit();
            peakResident = std::max(peakResident, pages.size());
            it = pages.find(page_index);
        }
        return it->second.data.get();
    }

    void
    evictToLimit()
    {
        while (pages.size() > residencyLimit && !recycleQueue.empty()) {
            Addr victim = recycleQueue.front();
            recycleQueue.pop_front();
            auto it = pages.find(victim);
            if (it == pages.end() || it->second.pinned)
                continue;
            pages.erase(it);
            ++recycled;
        }
    }

    std::unordered_map<Addr, Page> pages;
    std::deque<Addr> recycleQueue;
    std::vector<std::pair<Addr, Addr>> pinnedRanges;
    Bytes allocSkew;
    Addr next = 0;
    std::size_t residencyLimit = 0;
    std::size_t peakResident = 0;
    std::uint64_t recycled = 0;
};

class NodeRamFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(NodeRamFuzz, MatchesHashMapReference)
{
    ct::util::Rng rng(GetParam());
    constexpr Bytes page = NodeRam::pageBytes();
    // Not a whole number of pages: the last page is partly outside.
    const Bytes capacity = (std::uint64_t{5} << 20) + 1000;
    const Bytes skew = rng.nextBelow(2) ? 1056 : 0;
    NodeRam ram(capacity, skew);
    ReferenceNodeRam ref(skew);

    // Addresses cluster on a few hot pages and their edges, so that
    // words straddle pages and pages are revisited and recycled.
    auto random_addr = [&](Bytes span) -> Addr {
        Addr limit = capacity - span;
        Addr addr;
        switch (rng.nextBelow(4)) {
          case 0:
            addr = rng.nextBelow(limit + 1);
            break;
          case 1: // near a page edge
            addr = (1 + rng.nextBelow(capacity / page - 1)) * page -
                   rng.nextBelow(16);
            break;
          default: // the first 40 pages
            addr = rng.nextBelow(40 * page);
            break;
        }
        return std::min<Addr>(addr, limit);
    };
    auto check_counters = [&](int step) {
        ASSERT_EQ(ram.residentPages(), ref.residentPages()) << step;
        ASSERT_EQ(ram.peakResidentPages(), ref.peakResidentPages())
            << step;
        ASSERT_EQ(ram.recycledPages(), ref.recycledPages()) << step;
    };

    int pins = 0;
    Bytes allocated = 0;
    std::uint64_t stamp = GetParam() << 32;
    for (int step = 0; step < 6000; ++step) {
        std::uint64_t op = rng.nextBelow(100);
        if (op < 30) {
            Addr addr = random_addr(8);
            ram.writeWord(addr, ++stamp);
            ref.writeWord(addr, stamp);
        } else if (op < 55) {
            Addr addr = random_addr(8);
            ASSERT_EQ(ram.readWord(addr), ref.readWord(addr))
                << "step " << step << " addr " << addr;
        } else if (op < 62) {
            // Contiguous page-run fill, possibly misaligned.
            std::uint64_t count = rng.nextBelow(1500);
            Addr addr = random_addr(count * 8);
            std::uint64_t base = ++stamp;
            ram.fillWords(addr, count,
                          [base](std::uint64_t i) { return base ^ i; });
            for (std::uint64_t i = 0; i < count; ++i)
                ref.writeWord(addr + i * 8, base ^ i);
        } else if (op < 67) {
            std::vector<std::uint64_t> words(rng.nextBelow(1200));
            for (std::uint64_t &w : words)
                w = ++stamp;
            Addr addr = random_addr(words.size() * 8);
            ram.writeWords(addr, words.data(), words.size());
            for (std::size_t i = 0; i < words.size(); ++i)
                ref.writeWord(addr + i * 8, words[i]);
        } else if (op < 76) {
            // Two word runs compared: exact mismatch counts.
            std::uint64_t count = rng.nextBelow(1500);
            Addr a = random_addr(count * 8);
            Addr b = random_addr(count * 8);
            std::uint64_t want = 0;
            for (std::uint64_t i = 0; i < count; ++i)
                want += ref.readWord(a + i * 8) != ref.readWord(b + i * 8);
            ASSERT_EQ(countMismatchedWords(ram, a, ram, b, count), want)
                << "step " << step;
        } else if (op < 80) {
            // A strided burst through a page window: reads only, as a
            // reader's window must not span writes.
            const PageReader reader(ram);
            std::uint64_t stride = 8 * (1 + rng.nextBelow(40));
            std::uint64_t count = 1 + rng.nextBelow(300);
            Addr addr = random_addr(stride * count);
            for (std::uint64_t i = 0; i < count; ++i)
                ASSERT_EQ(reader.readWord(addr + i * stride),
                          ref.readWord(addr + i * stride))
                    << "step " << step;
        } else if (op < 88) {
            PageWriter writer(ram);
            std::uint64_t stride = 8 * (1 + rng.nextBelow(40));
            std::uint64_t count = 1 + rng.nextBelow(300);
            Addr addr = random_addr(stride * count);
            for (std::uint64_t i = 0; i < count; ++i) {
                writer.writeWord(addr + i * stride, ++stamp);
                ref.writeWord(addr + i * stride, stamp);
            }
        } else if (op < 92) {
            Bytes bytes = rng.nextBelow(64 * 1024);
            Bytes align = Bytes{1} << rng.nextBelow(13);
            if (allocated + bytes + align + skew < capacity / 2) {
                ASSERT_EQ(ram.alloc(bytes, align), ref.alloc(bytes, align));
                allocated += bytes + align + skew;
            }
        } else if (op < 94) {
            // Few and small pins, so any residency limit below still
            // leaves room for the working page.
            if (pins < 3) {
                Bytes bytes = rng.nextBelow(page + 1);
                Addr addr = random_addr(bytes);
                ram.pinRange(addr, bytes);
                ref.pinRange(addr, bytes);
                ++pins;
            }
        } else if (op < 98) {
            const std::size_t limits[] = {0, 0, 8, 9, 16, 64};
            std::size_t limit = limits[rng.nextBelow(std::size(limits))];
            ram.setResidencyLimit(limit);
            ref.setResidencyLimit(limit);
        } else {
            ram.reset();
            ref.reset();
            pins = 0;
            allocated = 0;
        }
        check_counters(step);
    }
    // Every word of the hot region reads back the same at the end.
    for (Addr addr = 0; addr < 40 * page; addr += 8)
        ASSERT_EQ(ram.readWord(addr), ref.readWord(addr)) << addr;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeRamFuzz,
                         testing::Range<std::uint64_t>(1, 25));

} // namespace
