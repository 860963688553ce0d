/**
 * @file
 * Message-layer interface: the different software implementations of
 * a communication operation the paper compares (§5.1). Each layer
 * executes a CommOp end-to-end on a simulated machine, actually
 * moving the data, and reports the makespan.
 */

#ifndef CT_RT_LAYER_H
#define CT_RT_LAYER_H

#include <memory>
#include <string>

#include "rt/comm_op.h"
#include "util/logging.h"

namespace ct::rt {

/** Outcome of one end-to-end run. */
struct RunResult
{
    Cycles makespan = 0;
    Bytes payloadBytes = 0;
    /** Largest payload injected by one node (basis of per-node MB/s). */
    Bytes maxBytesPerSender = 0;
    /**
     * True when the run completed on a fallback path (e.g. chained
     * transfers downgraded to buffer packing after a permanent
     * deposit-engine failure). Reports label such rows "degraded".
     */
    bool degraded = false;

    /**
     * Per-node throughput as the paper reports it: the data one node
     * moved divided by the time the whole step took.
     */
    util::MBps perNodeMBps(const sim::Machine &machine) const
    {
        return rateOf(machine, maxBytesPerSender);
    }

    /** Aggregate throughput of the whole step. */
    util::MBps totalMBps(const sim::Machine &machine) const
    {
        return rateOf(machine, payloadBytes);
    }

  private:
    /** Shared guard: a zero makespan reports 0 MB/s with a warning. */
    util::MBps rateOf(const sim::Machine &machine, Bytes bytes) const
    {
        if (makespan == 0) {
            util::warn("RunResult: zero makespan, reporting 0 MB/s");
            return 0.0;
        }
        return machine.toMBps(bytes, makespan);
    }
};

/** Abstract message layer. */
class MessageLayer
{
  public:
    virtual ~MessageLayer() = default;

    /** Human-readable layer name, e.g. "chained". */
    virtual std::string name() const = 0;

    /**
     * Execute @p op on @p machine. The machine must be freshly
     * constructed (or otherwise quiescent); the layer drives the
     * machine's event queue to completion.
     */
    virtual RunResult run(sim::Machine &machine, const CommOp &op) = 0;

    /** Benchmark-harness-only stub (false), removed with its next revision. */
    bool parallelSafe() const { return false; }

    /** Benchmark-harness-only stub (1), removed with its next revision. */
    sim::Cycles parallelLookahead(const sim::Machine &,
                                  const CommOp &) const
    {
        return 1;
    }
};

/** Number of words moved per pipelined chunk by all layers. */
inline constexpr std::uint64_t layerChunkWords = 64;

/** In-flight chunks allowed per flow before the sender throttles. */
inline constexpr int layerCredits = 4;

} // namespace ct::rt

#endif // CT_RT_LAYER_H
