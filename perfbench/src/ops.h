/**
 * @file
 * The benchmark's inputs and the traced replay of one cell.
 *
 * Generators are pure functions of the seed. Each workload's op
 * multiset is fixed; the seed permutes the op order and, in
 * serve-mix, draws the request stream. That keeps every simulated
 * metric independent of the seed while the host-side schedule
 * (allocator state, farm stealing, cache contents) differs per seed.
 */
#ifndef PERFBENCH_OPS_H
#define PERFBENCH_OPS_H

#include <cstdint>
#include <string>
#include <vector>

#include "digest.h"
#include "spans.h"
#include "sweep/grid.h"

namespace perfbench {

/** One runCell op with the payload it simulates. */
struct CellOp
{
    ct::sweep::CellSpec spec;
    /** Payload words the full simulator moves (0: analytic-only). */
    std::uint64_t simWords = 0;
};

/**
 * exchange-long: {t3d, paragon} x {chained, buffer-packing} x {1Q1,
 * 1Q16, 16Q1, wQw, 1Qw} where legal, at 2^16-2^18 words, plus a few
 * drop=1e-3 cells behind the reliable transport; seeded order.
 */
std::vector<CellOp> exchangeLongOps(std::uint64_t seed);

/**
 * grid-validate's runCell part: both machines, every style, {1, 16,
 * w}^2 at default dims (4K and 16K words), at 64 nodes (8K words),
 * analytic-only at 1024 and 8192 nodes (4K words), and a handful of
 * 256-node cells; seeded order.
 */
std::vector<CellOp> gridValidateOps(std::uint64_t seed);

/** The cells grid-validate re-runs on a 1-worker farm. */
std::vector<CellOp> gridIdentitySubset(const std::vector<CellOp> &ops);

/** serve-mix request kinds. */
enum class ReqKind { Plan, Sim, Health };

/** One generated service request. */
struct ServeRequest
{
    std::string line;
    ReqKind kind = ReqKind::Health;
    /** Canonical key: identical requests share it. */
    std::string key;
    ct::core::MachineId machine = ct::core::MachineId::T3d;
    /** Sim requests: per-node words and event budget (0 = none). */
    std::uint64_t words = 0;
    std::uint64_t budget = 0;
};

/**
 * serve-mix request stream of @p count requests, ids 0..count-1:
 * ~50% plan (message sizes varied), ~45% sim at 1K-8K words (some
 * budgets below the service's 4096-event analytic floor, some that
 * truncate), ~5% health. Keys are drawn skewed from a key space
 * several times the default cache capacity.
 */
std::vector<ServeRequest> serveMixRequests(std::uint64_t seed,
                                           std::size_t count);

/** Simulator counters of one replayed cell. */
struct CellCounters
{
    std::uint64_t events = 0;
    std::uint64_t payloadWords = 0;
    std::uint64_t loadHits = 0, loadMisses = 0;
    std::uint64_t rowHits = 0, rowMisses = 0;
    std::uint64_t wbqStallCycles = 0;
    std::uint64_t busWaitCycles = 0;
    std::uint64_t depositBusyCycles = 0;
    /** makespan x nodes: the deposit engines' available cycles. */
    std::uint64_t nodeCycles = 0;
    std::uint64_t wireBytes = 0, payloadBytes = 0;
    std::uint64_t retransmits = 0, dataPackets = 0;

    CellCounters &operator+=(const CellCounters &o);
};

/** What a replay produced. */
struct Replay
{
    ct::sweep::CellResult result;
    bool truncated = false;
    CellCounters counters;
};

/**
 * Run @p spec through the public layer calls runCell makes --
 * buildProgram, congestion analysis, AnalyticBackend rating,
 * Machine, pairExchange, seedSources, lowerProgram,
 * MessageLayer::run, verifyDelivery -- with a span around each
 * (spans only when @p log is set), and read the machine's report and
 * metrics registry. Must reproduce runCell(spec) exactly.
 */
Replay replayCell(const ct::sweep::CellSpec &spec, SpanLog *log,
                  std::uint64_t op);

/** The simulated values of a runCell result. */
SimValues simValuesOf(const ct::sweep::CellResult &r);

/** Bit-exact equality of two cell results. */
bool sameResult(const ct::sweep::CellResult &a,
                const ct::sweep::CellResult &b);

} // namespace perfbench

#endif // PERFBENCH_OPS_H
