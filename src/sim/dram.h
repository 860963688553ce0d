/**
 * @file
 * Page-mode DRAM model. Both machines of the paper use simple
 * DRAM-based main memories whose throughput depends heavily on row
 * (page) locality: accesses within an open row are fast, a row change
 * pays the full RAS cycle.
 *
 * Structure: each bank owns an open-row register and an activation
 * window; the data beats of all banks serialize on one shared data
 * bus. Two request lanes exist:
 *
 *  - the demand lane (processor fills, prefetches, engine traffic),
 *  - the background lane (write-queue drains), which shares row and
 *    bank state but never delays demand requests head-of-line; real
 *    memory controllers give buffered writes the lowest priority.
 */

#ifndef CT_SIM_DRAM_H
#define CT_SIM_DRAM_H

#include <algorithm>
#include <vector>

#include "sim/addr.h"

namespace ct::sim {

/** Timing and geometry parameters of the DRAM array. */
struct DramConfig
{
    Bytes rowBytes = 2048;    ///< page size of one DRAM row
    int banks = 4;            ///< independently open rows
    /** Bank interleave granularity; rows of one span share a bank. */
    Bytes bankSpanBytes = 2048;
    Cycles rowHitCycles = 10; ///< read within the open row
    Cycles rowMissCycles = 20; ///< read after a row change
    /** Writes often use a cheaper CAS-only path than line reads. */
    Cycles writeHitCycles = 10;
    Cycles writeMissCycles = 20;
    Bytes beatBytes = 8;      ///< bytes moved per data beat
    Cycles burstBeatCycles = 1; ///< each beat after the first
};

/** Counters exposed for tests and reports. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    Cycles busyCycles = 0;
};

/** Result of one DRAM request. */
struct DramAccess
{
    Cycles start = 0;    ///< when the request began being served
    Cycles complete = 0; ///< when the data transfer finished
    bool rowHit = false; ///< first row touched was already open
};

/**
 * Banked page-mode DRAM. Activations overlap across banks; data
 * beats serialize on the shared bus, so independent streams (or
 * pipelined random loads) overlap their row misses while same-bank
 * streams serialize fully.
 *
 * access() runs once per simulated word on most paths, so its
 * single-row case is inline: one flat bank record, bank selection
 * by shift and mask (a modulo only for a non-power-of-two bank
 * count) and no per-row loop. Requests that cross a row boundary
 * take the out-of-line multi-row path.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &config);

    /**
     * Serve a demand read or write of @p bytes at @p addr, no earlier
     * than @p now. Requests crossing row boundaries pay each row.
     */
    DramAccess
    access(Addr addr, Bytes bytes, bool is_write, Cycles now)
    {
        return serve(addr, bytes, is_write, now, demandBusyUntil);
    }

    /**
     * Serve a background (write-drain) request. Shares row/bank
     * state and its own serialization, but does not push the demand
     * lane's availability.
     */
    DramAccess
    accessBackground(Addr addr, Bytes bytes, bool is_write, Cycles now)
    {
        return serve(addr, bytes, is_write, now, backgroundBusyUntil);
    }

    /** Forget all open rows (refresh / synchronization). */
    void closeRows();

    const DramStats &stats() const { return counters; }
    const DramConfig &config() const { return cfg; }

  private:
    /** Open-row register and activation window of one bank. */
    struct Bank
    {
        /** Open row address, or kNoRow. A row address is aligned, so
         *  it can equal kNoRow only for one-byte rows at the top of
         *  the address space, where no request fits. */
        Addr openRow;
        Cycles busyUntil = 0;
    };
    static constexpr Addr kNoRow = ~Addr{0};

    Bank &
    bankOf(Addr addr)
    {
        Addr span = addr >> spanShift;
        return bankTable[static_cast<std::size_t>(
            banksPowerOfTwo ? span & bankMask
                            : span % static_cast<Addr>(cfg.banks))];
    }

    /** Activation cycles for the row-local run at @p row of @p bank;
     *  opens the row. */
    Cycles
    activate(Bank &bank, Addr row, bool is_write)
    {
        if (bank.openRow == row) {
            ++counters.rowHits;
            return is_write ? cfg.writeHitCycles : cfg.rowHitCycles;
        }
        ++counters.rowMisses;
        bank.openRow = row;
        return is_write ? cfg.writeMissCycles : cfg.rowMissCycles;
    }

    Cycles
    beatCycles(Bytes chunk) const
    {
        return ((chunk + cfg.beatBytes - 1) >> beatShift) *
               cfg.burstBeatCycles;
    }

    DramAccess
    serve(Addr addr, Bytes bytes, bool is_write, Cycles now,
          Cycles &lane_busy)
    {
        if (bytes == 0)
            zeroByteRequest();
        if (is_write)
            ++counters.writes;
        else
            ++counters.reads;

        Bank &bank = bankOf(addr);
        Addr row = alignDown(addr, cfg.rowBytes);
        DramAccess result;
        result.rowHit = bank.openRow == row;

        // Row activation occupies the bank; the data beats serialize
        // on the lane's shared data path. Activations in different
        // banks overlap, which lets pipelined streams hide row misses.
        Cycles start = std::max(now, bank.busyUntil);

        Cycles activation;
        Cycles data;
        if (addr - row + bytes <= cfg.rowBytes) {
            activation = activate(bank, row, is_write);
            data = beatCycles(bytes);
        } else {
            serveRows(addr, bytes, is_write, activation, data);
        }

        Cycles complete = std::max(start + activation, lane_busy) + data;
        bank.busyUntil = complete;
        lane_busy = complete;

        result.start = start;
        result.complete = complete;
        counters.busyCycles += activation + data;
        return result;
    }

    /** Activation and data cycles of a request spanning rows; each
     *  row is activated in its own bank. */
    void serveRows(Addr addr, Bytes bytes, bool is_write,
                   Cycles &activation, Cycles &data);

    [[noreturn]] static void zeroByteRequest();

    DramConfig cfg;
    DramStats counters;
    std::vector<Bank> bankTable;
    unsigned spanShift = 0;
    unsigned beatShift = 0;
    bool banksPowerOfTwo = false;
    Addr bankMask = 0;
    Cycles demandBusyUntil = 0;
    Cycles backgroundBusyUntil = 0;
};

} // namespace ct::sim

#endif // CT_SIM_DRAM_H
