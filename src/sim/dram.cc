#include "dram.h"

#include <bit>

#include "util/logging.h"

namespace ct::sim {

Dram::Dram(const DramConfig &config) : cfg(config)
{
    if (!isPowerOfTwo(cfg.rowBytes) || !isPowerOfTwo(cfg.beatBytes) ||
        !isPowerOfTwo(cfg.bankSpanBytes))
        util::fatal("Dram: sizes must be powers of two");
    if (cfg.beatBytes > cfg.rowBytes)
        util::fatal("Dram: beat larger than row");
    if (cfg.bankSpanBytes < cfg.rowBytes)
        util::fatal("Dram: bank span smaller than a row");
    if (cfg.banks <= 0)
        util::fatal("Dram: need at least one bank");
    bankTable.assign(static_cast<std::size_t>(cfg.banks), Bank{kNoRow});
    spanShift = static_cast<unsigned>(std::countr_zero(cfg.bankSpanBytes));
    beatShift = static_cast<unsigned>(std::countr_zero(cfg.beatBytes));
    banksPowerOfTwo = isPowerOfTwo(static_cast<std::uint64_t>(cfg.banks));
    bankMask = static_cast<Addr>(cfg.banks) - 1;
}

void
Dram::serveRows(Addr addr, Bytes bytes, bool is_write,
                Cycles &activation, Cycles &data)
{
    activation = 0;
    data = 0;
    Addr cursor = addr;
    Bytes remaining = bytes;
    while (remaining > 0) {
        Addr row = alignDown(cursor, cfg.rowBytes);
        Bytes chunk = std::min<Bytes>(remaining, row + cfg.rowBytes - cursor);
        activation += activate(bankOf(cursor), row, is_write);
        data += beatCycles(chunk);
        cursor += chunk;
        remaining -= chunk;
    }
}

void
Dram::zeroByteRequest()
{
    util::fatal("Dram::access: zero-byte request");
}

void
Dram::closeRows()
{
    for (Bank &bank : bankTable)
        bank.openRow = kNoRow;
}

} // namespace ct::sim
