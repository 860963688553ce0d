#include "engines.h"

#include <cmath>

#include "util/logging.h"

namespace ct::sim {

DepositEngine::DepositEngine(const DepositEngineConfig &config,
                             MemorySystem &mem, NodeRam &ram)
    : cfg(config), mem(mem), ram(ram)
{
    if (cfg.enabled && cfg.dataWordCycles <= 0.0)
        util::fatal("DepositEngine: dataWordCycles must be positive, "
                    "got ",
                    cfg.dataWordCycles);
    if (cfg.enabled && cfg.anyPattern && cfg.adpWordCycles <= 0.0)
        util::fatal("DepositEngine: adpWordCycles must be positive "
                    "for an any-pattern engine, got ",
                    cfg.adpWordCycles);
}

bool
DepositEngine::accepts(const Packet &packet) const
{
    if (!cfg.enabled)
        return false;
    if (packet.framing == Framing::AddrDataPair)
        return cfg.anyPattern && !adpDead;
    return true;
}

bool
DepositEngine::admit(const Packet &packet)
{
    if (packet.framing == Framing::AddrDataPair && cfg.anyPattern &&
        !adpDead && faults && faults->rollEngineFailure()) {
        adpDead = true;
        util::warn("DepositEngine: permanent ADP-datapath failure "
                   "injected; falling back to contiguous deposits "
                   "only");
    }
    bool ok = accepts(packet);
    if (!ok)
        ++counters.refusedPackets;
    return ok;
}

Cycles
DepositEngine::deposit(const Packet &packet, Cycles arrival)
{
    if (!accepts(packet))
        util::fatal("DepositEngine: cannot deposit this packet");
    ++counters.packets;
    counters.words += packet.words.size();

    Cycles start = std::max(arrival, freeAt);
    if (faults) {
        // Transient stall: the engine pauses before serving.
        Cycles stall = faults->rollEngineStall();
        if (stall > 0) {
            ++counters.faultStalls;
            counters.faultStallCycles += stall;
            start += stall;
        }
    }
    Cycles now = start + cfg.perPacketCycles;

    if (packet.framing == Framing::DataOnly) {
        // Contiguous block: one streaming write, engine processing
        // pipelined with the DRAM burst.
        Bytes bytes = packet.payloadBytes();
        ram.writeWords(packet.destBase, packet.words.data(),
                       packet.words.size());
        Cycles dram = bytes > 0
                          ? mem.engineWrite(packet.destBase, bytes, now,
                                            BusMaster::NetworkInterface)
                          : 0;
        auto engine = static_cast<Cycles>(std::llround(
            cfg.dataWordCycles *
            static_cast<double>(packet.words.size())));
        now += std::max(dram, engine);
    } else {
        // Address-data pairs: per-word stores; engine processing
        // pipelined with each DRAM write.
        double engine_carry = 0.0;
        for (std::size_t i = 0; i < packet.words.size(); ++i) {
            ram.writeWord(packet.addrs[i], packet.words[i]);
            Cycles dram =
                mem.engineWrite(packet.addrs[i], 8, now,
                                BusMaster::NetworkInterface);
            engine_carry += cfg.adpWordCycles;
            auto engine = static_cast<Cycles>(engine_carry);
            engine_carry -= static_cast<double>(engine);
            now += std::max(dram, engine);
        }
    }

    counters.busyCycles += now - start;
    freeAt = now;
    return now;
}

FetchEngine::FetchEngine(const FetchEngineConfig &config) : cfg(config)
{
    if (cfg.enabled && cfg.bytesPerCycle <= 0.0)
        util::fatal("FetchEngine: non-positive bandwidth");
    if (cfg.enabled && cfg.pageBytes == 0)
        util::fatal("FetchEngine: pageBytes must be positive (page-"
                    "kick accounting divides by it)");
}

Cycles
FetchEngine::fetch(Addr addr, Bytes bytes)
{
    if (!cfg.enabled)
        util::fatal("FetchEngine: not present on this node");
    if (bytes == 0)
        return 0;
    ++counters.transfers;
    counters.bytes += bytes;

    Cycles stall = 0;
    if (faults) {
        stall = faults->rollEngineStall();
        if (stall > 0) {
            ++counters.faultStalls;
            counters.faultStallCycles += stall;
        }
    }

    auto stream = static_cast<Cycles>(std::llround(
        std::ceil(static_cast<double>(bytes) / cfg.bytesPerCycle)));

    // Page-boundary kicks: the engine stalls until a processor
    // restarts it whenever the transfer crosses a DRAM page.
    Addr first_page = addr / cfg.pageBytes;
    Addr last_page = (addr + bytes - 1) / cfg.pageBytes;
    auto kicks = static_cast<std::uint64_t>(last_page - first_page);
    counters.pageKicks += kicks;

    return cfg.setupCycles + stall + stream + kicks * cfg.pageKickCycles;
}

} // namespace ct::sim
