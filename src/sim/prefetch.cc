#include "prefetch.h"

#include "util/logging.h"

namespace ct::sim {

ReadAhead::ReadAhead(const ReadAheadConfig &config, Dram &dram)
    : cfg(config), dram(dram)
{
    if (!isPowerOfTwo(cfg.lineBytes))
        util::fatal("ReadAhead: line size must be a power of two");
}

void
ReadAhead::issuePrefetch(Addr line_addr, Cycles when)
{
    ++counters.prefetchesIssued;
    nextLine = line_addr;
    prefetchReadyAt =
        dram.access(line_addr, cfg.lineBytes, false, when).complete;
}

Cycles
ReadAhead::fill(Addr line_addr, Cycles now)
{
    if (!cfg.enabled) {
        return dram.access(line_addr, cfg.lineBytes, false, now)
                   .complete -
               now;
    }

    if (streaming && line_addr == nextLine) {
        ++counters.streamHits;
        // Wait for the prefetch if it has not finished, then move the
        // line out of the buffer and prefetch the next one.
        Cycles visible = cfg.bufferHitCycles;
        if (prefetchReadyAt > now)
            visible = std::max(visible, prefetchReadyAt - now);
        issuePrefetch(line_addr + cfg.lineBytes, now + visible);
        lastDemandLine = line_addr;
        haveLastDemand = true;
        return visible;
    }

    // Demand fetch. Start streaming only after two sequential line
    // misses so strided walks do not trigger useless prefetches.
    ++counters.streamMisses;
    Cycles visible =
        dram.access(line_addr, cfg.lineBytes, false, now).complete -
        now;
    bool sequential =
        haveLastDemand && line_addr == lastDemandLine + cfg.lineBytes;
    lastDemandLine = line_addr;
    haveLastDemand = true;
    if (sequential) {
        streaming = true;
        issuePrefetch(line_addr + cfg.lineBytes, now + visible);
    } else {
        streaming = false;
    }
    return visible;
}

void
ReadAhead::reset()
{
    streaming = false;
    haveLastDemand = false;
    prefetchReadyAt = 0;
}

LoadPipeline::LoadPipeline(const LoadPipelineConfig &config)
    : cfg(config)
{
    if (cfg.enabled && cfg.depth == 0)
        util::fatal("LoadPipeline: zero depth");
    if (cfg.enabled)
        ring.resize(cfg.depth);
}

Cycles
LoadPipeline::drainTime(Cycles now) const
{
    if (count == 0)
        return 0;
    std::size_t tail = head + count - 1;
    Cycles last = ring[tail >= ring.size() ? tail - ring.size() : tail];
    return last > now ? last - now : 0;
}

} // namespace ct::sim
