/**
 * @file
 * Write-back queue (WBQ) model. On the T3D, stores bypass the cache
 * (write-around) and enter a small coalescing queue drained to DRAM in
 * the background; the processor only stalls when the queue is full.
 * This is the mechanism that makes strided *stores* much faster than
 * strided *loads* on that machine (paper §3.5.1, Figure 4).
 */

#ifndef CT_SIM_WRITE_BUFFER_H
#define CT_SIM_WRITE_BUFFER_H

#include <algorithm>
#include <vector>

#include "sim/dram.h"

namespace ct::sim {

/** Sizing of the write queue. */
struct WriteBufferConfig
{
    /** Number of outstanding entries; 0 disables the queue entirely
     *  (every store stalls for its DRAM write). */
    unsigned entries = 6;
    /** Merge stores to the same line into one DRAM burst. */
    bool coalesce = true;
    Bytes lineBytes = 32;
    /**
     * Entries drained per DRAM turn. Draining in batches keeps row
     * locality among the buffered stores instead of ping-ponging the
     * open row between the read stream and single drained words.
     */
    unsigned drainBatch = 4;
};

/** Counters for tests and reports. */
struct WriteBufferStats
{
    std::uint64_t stores = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t fullStalls = 0;
    Cycles stallCycles = 0;
};

/**
 * Occupancy-based write queue. Entries carry a completion time
 * assigned on enqueue (drains are serialized on the DRAM write port);
 * store() returns the stall the issuing processor observes.
 *
 * The queue is a fixed ring of `entries` slots. Issued entries always
 * form a prefix of the queue and unissued ones the suffix (a batch
 * issues every unissued entry), so one counter tracks the split.
 * store() is inline: a coalescing or non-full store touches only the
 * ring's ends.
 */
class WriteBuffer
{
  public:
    WriteBuffer(const WriteBufferConfig &config, Dram &dram);

    /**
     * Issue a word store at time @p now.
     * @return processor-visible stall cycles (0 in the common case).
     */
    Cycles
    store(Addr addr, Bytes bytes, Cycles now)
    {
        ++counters.stores;
        retire(now);

        if (cfg.entries == 0)
            return storeUnbuffered(addr, bytes, now);

        // Coalesce into the youngest entry when it targets the same
        // line and it has not been sent to memory yet: the merged
        // word rides along in the same burst.
        Addr line = alignDown(addr, cfg.lineBytes);
        if (cfg.coalesce && unissued > 0 && back().line == line) {
            ++counters.coalesced;
            back().bytes += bytes;
            return 0;
        }

        Cycles stall = 0;
        if (count == cfg.entries) {
            stall = stallForSlot(now);
            now += stall;
        }

        std::size_t tail = head + count;
        ring[tail >= ring.size() ? tail - ring.size() : tail] = {
            line, addr, bytes, 0};
        ++count;
        if (++unissued >= std::max(1u, cfg.drainBatch))
            issueBatch(now);
        return stall;
    }

    /** Cycles from @p now until the queue fully drains (fence);
     *  forces any buffered entries out to memory. */
    Cycles drainTime(Cycles now);

    /** Pending (not yet drained) entries at time @p now. */
    std::size_t occupancy(Cycles now) const;

    const WriteBufferStats &stats() const { return counters; }

  private:
    struct Entry
    {
        Addr line;
        Addr addr;
        Bytes bytes;
        /** DRAM completion time; meaningful once issued. */
        Cycles completesAt;
    };

    Entry &at(std::size_t i)
    {
        std::size_t slot = head + i;
        return ring[slot >= ring.size() ? slot - ring.size() : slot];
    }
    const Entry &at(std::size_t i) const
    {
        return const_cast<WriteBuffer *>(this)->at(i);
    }
    Entry &back() { return at(count - 1); }

    void
    popFront()
    {
        if (++head == ring.size())
            head = 0;
        --count;
    }

    /** Drop issued entries whose drain completed by @p now. */
    void
    retire(Cycles now)
    {
        while (count > unissued && ring[head].completesAt <= now)
            popFront();
    }

    /** No queue: the store stalls for the full DRAM write. */
    Cycles storeUnbuffered(Addr addr, Bytes bytes, Cycles now);
    /** Full queue: issue everything, wait for the oldest entry to
     *  drain and free its slot; returns the stall. */
    Cycles stallForSlot(Cycles now);
    /** Send all unissued entries to DRAM back to back. */
    void issueBatch(Cycles now);

    WriteBufferConfig cfg;
    Dram &dram;
    WriteBufferStats counters;
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    /** Entries at the back of the queue not yet sent to DRAM. */
    std::size_t unissued = 0;
};

} // namespace ct::sim

#endif // CT_SIM_WRITE_BUFFER_H
