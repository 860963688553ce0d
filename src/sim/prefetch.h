/**
 * @file
 * Latency-hiding units for loads:
 *
 *  - ReadAhead: the T3D's external read-ahead circuitry (RDAL), a
 *    one-line stream buffer that prefetches the next sequential line.
 *    The paper reports ~60% faster contiguous load streams with it.
 *
 *  - LoadPipeline: the i860XP pipelined-load mechanism (PFQ). Up to
 *    `depth` loads are outstanding, so a stream of strided or indexed
 *    loads runs at DRAM *occupancy* speed instead of paying the full
 *    access latency per element.
 */

#ifndef CT_SIM_PREFETCH_H
#define CT_SIM_PREFETCH_H

#include <vector>

#include "sim/dram.h"

namespace ct::sim {

/** Configuration of the sequential read-ahead unit. */
struct ReadAheadConfig
{
    bool enabled = false;
    Bytes lineBytes = 32;
    /** Cycles to move a ready line out of the stream buffer. */
    Cycles bufferHitCycles = 3;
};

/** Counters. */
struct ReadAheadStats
{
    std::uint64_t streamHits = 0;
    std::uint64_t streamMisses = 0;
    std::uint64_t prefetchesIssued = 0;
};

/**
 * One-stream sequential prefetcher with two-miss stream detection
 * (a lone miss does not trigger prefetching, so strided loads do not
 * waste DRAM bandwidth on useless prefetches).
 *
 * fill() is consulted on a cache line miss and returns the processor-
 * visible cycles for obtaining the line.
 */
class ReadAhead
{
  public:
    ReadAhead(const ReadAheadConfig &config, Dram &dram);

    /** Obtain the line at @p line_addr at time @p now. */
    Cycles fill(Addr line_addr, Cycles now);

    /** Drop the current stream (synchronization, context change). */
    void reset();

    const ReadAheadStats &stats() const { return counters; }

  private:
    void issuePrefetch(Addr line_addr, Cycles when);

    ReadAheadConfig cfg;
    Dram &dram;
    ReadAheadStats counters;
    Addr nextLine = 0;
    bool streaming = false;
    Addr lastDemandLine = 0;
    bool haveLastDemand = false;
    Cycles prefetchReadyAt = 0;
};

/** Configuration of the pipelined-load unit. */
struct LoadPipelineConfig
{
    bool enabled = false;
    unsigned depth = 3;
    /** Fixed pipe latency added to every load's completion. */
    Cycles pipeLatency = 2;
};

/**
 * Pipelined load issue. Memory devices serialize the loads; the
 * processor only stalls when `depth` loads are already outstanding.
 * Without the unit, every load stalls until its completion time.
 *
 * The outstanding loads sit in a fixed ring of `depth` slots, oldest
 * first; load() is inline because pipelined loads run once per word.
 */
class LoadPipeline
{
  public:
    explicit LoadPipeline(const LoadPipelineConfig &config);

    /**
     * Track a load whose memory completion time is @p completes_at.
     * @return processor-visible stall cycles.
     */
    Cycles
    load(Cycles completes_at, Cycles now)
    {
        completes_at += cfg.pipeLatency;
        if (!cfg.enabled)
            return completes_at > now ? completes_at - now : 0;

        Cycles stall = 0;
        while (count > 0 && ring[head] <= now)
            popFront();
        if (count == ring.size()) {
            stall = ring[head] - now;
            popFront();
        }
        std::size_t tail = head + count;
        ring[tail >= ring.size() ? tail - ring.size() : tail] =
            completes_at;
        ++count;
        return stall;
    }

    /** Wait for all outstanding loads (fence). */
    Cycles drainTime(Cycles now) const;

    void
    reset()
    {
        head = 0;
        count = 0;
    }

  private:
    void
    popFront()
    {
        if (++head == ring.size())
            head = 0;
        --count;
    }

    LoadPipelineConfig cfg;
    /** Completion times of the outstanding loads. */
    std::vector<Cycles> ring;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace ct::sim

#endif // CT_SIM_PREFETCH_H
