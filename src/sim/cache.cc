#include "cache.h"

#include <bit>

#include "util/logging.h"

namespace ct::sim {

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    if (!isPowerOfTwo(cfg.sizeBytes) || !isPowerOfTwo(cfg.lineBytes))
        util::fatal("Cache: size and line must be powers of two");
    if (cfg.associativity == 0)
        util::fatal("Cache: zero associativity");
    Bytes line_count = cfg.sizeBytes / cfg.lineBytes;
    if (line_count % cfg.associativity != 0)
        util::fatal("Cache: line count not divisible by associativity");
    Bytes sets = line_count / cfg.associativity;
    if (!isPowerOfTwo(sets))
        util::fatal("Cache: set count must be a power of two");
    lineShift = static_cast<unsigned>(std::countr_zero(cfg.lineBytes));
    setMask = sets - 1;
    lines.resize(line_count);
}

CacheStoreResult
Cache::storeWriteBack(Line *line, Addr line_addr)
{
    CacheStoreResult result;
    if (line) {
        ++counters.storeHits;
        result.hit = true;
        line->dirty = true;
        line->lastUse = useClock;
        return result;
    }
    ++counters.storeMisses;
    if (!cfg.allocateOnWriteMiss) {
        result.toMemory = true;
        return result;
    }
    result.fill = true;
    Line &slot = victim(line_addr);
    if (slot.valid && slot.dirty) {
        ++counters.writeBacks;
        result.writeBack = true;
        result.writeBackLine = slot.tag;
    }
    slot.tag = line_addr;
    slot.valid = true;
    slot.dirty = true;
    slot.lastUse = useClock;
    return result;
}

void
Cache::badPolicy()
{
    util::panic("Cache::store: bad policy");
}

void
Cache::invalidateAll()
{
    for (Line &line : lines) {
        if (line.valid)
            ++counters.invalidations;
        line.valid = false;
        line.dirty = false;
    }
}

} // namespace ct::sim
