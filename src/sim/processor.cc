#include "processor.h"

#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace ct::sim {

Processor::Processor(const ProcessorConfig &config, MemorySystem &memory,
                     NodeRam &ram, BusMaster bus_master)
    : cfg(config), mem(memory), nodeRam(ram), master(bus_master)
{
    // loopCycles() relies on a finite, non-negative carry.
    if (!(cfg.loopCyclesPerElem >= 0.0) ||
        !std::isfinite(cfg.loopCyclesPerElem))
        util::fatal("Processor: loopCyclesPerElem must be finite and "
                    "non-negative, got ",
                    cfg.loopCyclesPerElem);
    if (cfg.loopCyclesPerElem < 0x1p53 &&
        cfg.loopCyclesPerElem == std::floor(cfg.loopCyclesPerElem))
        wholeLoopCycles =
            static_cast<std::int64_t>(cfg.loopCyclesPerElem);
}

template <typename Cursor>
inline Cycles
Processor::indexLoad(const Cursor &cur, Cycles now)
{
    if constexpr (Cursor::kIndexed)
        return mem.load(cur.indexAddr(), now, master);
    else
        return 0;
}

template <typename Cursor>
inline Cycles
Processor::loadElement(const Cursor &cur, Cycles now,
                       std::uint64_t &value)
{
    Cycles cost = indexLoad(cur, now);
    Addr addr = cur.elementAddr(nodeRam);
    cost += mem.load(addr, now + cost, master);
    value = nodeRam.readWord(addr);
    return cost;
}

template <typename Cursor>
inline Cycles
Processor::storeElement(const Cursor &cur, Cycles now,
                        std::uint64_t value)
{
    Cycles cost = indexLoad(cur, now);
    Addr addr = cur.elementAddr(nodeRam);
    cost += mem.store(addr, now + cost, master);
    nodeRam.writeWord(addr, value);
    return cost;
}

inline Cycles
Processor::loopCycles()
{
    // An integral per-element cost adds exactly and leaves the carry
    // at 0. Otherwise the carry stays in [0, 1) and the cost is
    // non-negative, so truncation is floor.
    if (wholeLoopCycles >= 0)
        return static_cast<Cycles>(wholeLoopCycles);
    loopCarry += cfg.loopCyclesPerElem;
    auto whole = static_cast<std::int64_t>(loopCarry);
    loopCarry -= static_cast<double>(whole);
    return static_cast<Cycles>(whole);
}

Cycles
Processor::copy(const PatternWalk &src, const PatternWalk &dst,
                std::uint64_t first, std::uint64_t count, Cycles start)
{
    return copy2(src, first, dst, first, count, start);
}

Cycles
Processor::copy2(const PatternWalk &src, std::uint64_t src_first,
                 const PatternWalk &dst, std::uint64_t dst_first,
                 std::uint64_t count, Cycles start)
{
    return withCursor(src, src_first, [&](auto scur) {
        return withCursor(dst, dst_first, [&](auto dcur) {
            Cycles now = start;
            for (std::uint64_t i = 0; i < count;
                 ++i, scur.advance(), dcur.advance()) {
                std::uint64_t value = 0;
                now += loadElement(scur, now, value);
                now += storeElement(dcur, now, value);
                now += loopCycles();
            }
            return now - start;
        });
    });
}

Cycles
Processor::gatherToPort(const PatternWalk &src, std::uint64_t first,
                        std::uint64_t count, Cycles start,
                        std::vector<std::uint64_t> &words)
{
    return withCursor(src, first, [&](auto cur) {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i, cur.advance()) {
            std::uint64_t value = 0;
            now += loadElement(cur, now, value);
            now += cfg.portStoreCycles;
            words.push_back(value);
            now += loopCycles();
        }
        return now - start;
    });
}

Cycles
Processor::computeRemoteAddrs(const PatternWalk &dst,
                              std::uint64_t first, std::uint64_t count,
                              Cycles start, std::vector<Addr> &addrs)
{
    return withCursor(dst, first, [&](auto cur) {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i, cur.advance()) {
            now += indexLoad(cur, now);
            addrs.push_back(cur.elementAddr(nodeRam));
        }
        return now - start;
    });
}

Cycles
Processor::scatterFromPort(const PatternWalk &dst, std::uint64_t first,
                           std::uint64_t count, Cycles start,
                           const std::uint64_t *words)
{
    return withCursor(dst, first, [&](auto cur) {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i, cur.advance()) {
            now += cfg.portLoadCycles;
            now += storeElement(cur, now, words[i]);
            now += loopCycles();
        }
        return now - start;
    });
}

} // namespace ct::sim
