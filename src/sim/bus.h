/**
 * @file
 * Shared split-transaction memory bus. On the Paragon, both i860
 * processors, the DMA engines and the network interface share one
 * bus; the paper reports that fine-grain interleaving of single-word
 * accesses from two masters costs up to 50% (§5.1.4). The model
 * charges an arbitration penalty whenever ownership changes.
 */

#ifndef CT_SIM_BUS_H
#define CT_SIM_BUS_H

#include <cstdint>

#include "sim/addr.h"

namespace ct::sim {

/** Identifies a bus master for arbitration accounting. */
enum class BusMaster : std::uint8_t {
    Processor = 0,
    CoProcessor = 1,
    Dma = 2,
    NetworkInterface = 3,
};

/** Bus timing parameters. */
struct BusConfig
{
    /** Bytes transferred per bus cycle (0 = bus not modeled). */
    Bytes bytesPerCycle = 0;
    /** Extra cycles when ownership switches between masters. */
    Cycles arbitrationCycles = 0;
};

/** Counters. */
struct BusStats
{
    std::uint64_t transactions = 0;
    std::uint64_t ownerSwitches = 0;
    Cycles busyCycles = 0;
    Cycles waitCycles = 0;
};

/**
 * Occupancy-based bus model. A transaction waits for the bus to be
 * free, pays an arbitration penalty if the previous owner differs,
 * then occupies the bus for its transfer time.
 */
class Bus
{
  public:
    explicit Bus(const BusConfig &config);

    /** True when a bus is configured (bytesPerCycle > 0). */
    bool modeled() const { return cfg.bytesPerCycle > 0; }

    /**
     * Perform a transaction of @p bytes by @p master at time @p now.
     * @return total cycles until the transaction completes (wait +
     *         arbitration + transfer); 0 when the bus is unmodeled.
     *         Inline: every word of a Paragon copy loop crosses it.
     */
    Cycles
    transact(BusMaster master, Bytes bytes, Cycles now)
    {
        if (!modeled())
            return 0;
        if (bytes == 0)
            zeroByteTransaction();
        ++counters.transactions;

        Cycles wait = busyUntil > now ? busyUntil - now : 0;
        counters.waitCycles += wait;
        Cycles start = now + wait;

        Cycles arb = 0;
        if (everOwned && master != lastOwner) {
            arb = cfg.arbitrationCycles;
            ++counters.ownerSwitches;
        }
        lastOwner = master;
        everOwned = true;

        // Power-of-two widths (every studied bus) divide by shifting.
        Bytes rounded = bytes + cfg.bytesPerCycle - 1;
        Cycles transfer = widthShift >= 0 ? rounded >> widthShift
                                          : rounded / cfg.bytesPerCycle;
        counters.busyCycles += arb + transfer;
        busyUntil = start + arb + transfer;
        return busyUntil - now;
    }

    const BusStats &stats() const { return counters; }

  private:
    [[noreturn]] static void zeroByteTransaction();

    BusConfig cfg;
    /** log2(bytesPerCycle) for a power-of-two width, else -1. */
    int widthShift = -1;
    BusStats counters;
    Cycles busyUntil = 0;
    BusMaster lastOwner = BusMaster::Processor;
    bool everOwned = false;
};

} // namespace ct::sim

#endif // CT_SIM_BUS_H
