#include "write_buffer.h"

#include "util/logging.h"

namespace ct::sim {

WriteBuffer::WriteBuffer(const WriteBufferConfig &config, Dram &dram)
    : cfg(config), dram(dram), ring(config.entries)
{
    if (!isPowerOfTwo(cfg.lineBytes))
        util::fatal("WriteBuffer: line size must be a power of two");
}

void
WriteBuffer::issueBatch(Cycles now)
{
    for (std::size_t i = count - unissued; i < count; ++i) {
        Entry &entry = at(i);
        entry.completesAt =
            dram.accessBackground(entry.addr, entry.bytes, true, now)
                .complete;
    }
    unissued = 0;
}

Cycles
WriteBuffer::storeUnbuffered(Addr addr, Bytes bytes, Cycles now)
{
    Cycles cost =
        dram.accessBackground(addr, bytes, true, now).complete - now;
    counters.stallCycles += cost;
    return cost;
}

Cycles
WriteBuffer::stallForSlot(Cycles now)
{
    ++counters.fullStalls;
    issueBatch(now);
    Cycles oldest = ring[head].completesAt;
    Cycles stall = oldest > now ? oldest - now : 0;
    counters.stallCycles += stall;
    popFront();
    retire(now + stall);
    return stall;
}

Cycles
WriteBuffer::drainTime(Cycles now)
{
    issueBatch(now);
    if (count == 0 || back().completesAt <= now)
        return 0;
    return back().completesAt - now;
}

std::size_t
WriteBuffer::occupancy(Cycles now) const
{
    // Unissued entries are pending by definition.
    std::size_t pending = unissued;
    for (std::size_t i = 0; i < count - unissued; ++i)
        pending += at(i).completesAt > now;
    return pending;
}

} // namespace ct::sim
