/**
 * @file
 * A whole parallel machine: nodes, topology, interconnect and the
 * shared event queue, plus the calibrated configurations of the two
 * machines studied in the paper.
 *
 * Calibration targets are the basic-transfer throughputs the paper
 * measured (Tables 1-4); EXPERIMENTS.md reports the achieved values
 * side by side with the paper's.
 */

#ifndef CT_SIM_MACHINE_H
#define CT_SIM_MACHINE_H

#include <memory>
#include <string>
#include <vector>

#include "core/machine_params.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/trace_tracks.h"

namespace ct::sim {

/** Full machine description. */
struct MachineConfig
{
    std::string name = "machine";
    core::MachineId id = core::MachineId::T3d;
    double clockHz = 150e6;
    TopologyConfig topology;
    NetworkConfig network;
    NodeConfig node;
    /** Fault-injection spec; the default injects nothing. */
    FaultSpec faults;
    /** Chaos campaign layered on top; the default schedules nothing.
     *  Rate phases add to the spec's static rates; cascades and
     *  flaps become topology outages at machine construction. */
    ChaosSchedule chaos;
};

/**
 * Sanity-check a machine configuration, with clear error messages
 * instead of silent NaNs or divide-by-zero downstream. fatal()s on
 * the first violation. Called by the Machine constructor; exposed for
 * tools that want to validate user input before building a machine.
 */
void validateMachineConfig(const MachineConfig &config);

/** Nodes + network, ready to run communication operations. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    int nodeCount() const { return topo.nodeCount(); }
    Node &node(NodeId id);

    EventQueue &events() { return queue; }
    Network &network() { return net; }
    Topology &topology() { return topo; }
    const Topology &topology() const { return topo; }
    const MachineConfig &config() const { return cfg; }

    /** Fault injector, or nullptr when the machine is fault-free. */
    FaultInjector *faults() { return injector.get(); }
    const FaultInjector *faults() const { return injector.get(); }

    /** Registry hosting every component's metrics. */
    obs::MetricsRegistry &metrics() { return metricsReg; }
    const obs::MetricsRegistry &metrics() const { return metricsReg; }

    /**
     * Attach (or with nullptr detach) a tracer. Labels every track
     * and forwards the tracer to the network; the runtime layers pick
     * it up through tracer(). Tracing off means a null pointer check
     * per emission site and nothing else.
     */
    void setTracer(obs::Tracer *t);
    obs::Tracer *tracer() const { return tracerPtr; }

    /** Machine-scope track (whole-operation spans). */
    std::int32_t opTrack() const
    {
        return machineTraceTrack(nodeCount());
    }

    /** Payload throughput of @p bytes moved in @p cycles. */
    util::MBps toMBps(Bytes bytes, Cycles cycles) const;

    /** Benchmark-harness-only no-op, removed with its next revision. */
    void setParallelEnabled(bool) {}

    /** Benchmark-harness-only no-op, removed with its next revision. */
    void setParallelLookahead(Cycles) {}

  private:
    MachineConfig cfg;
    Topology topo;
    EventQueue queue;
    /** Declared before the components that register metrics in it. */
    obs::MetricsRegistry metricsReg;
    obs::Tracer *tracerPtr = nullptr;
    std::unique_ptr<FaultInjector> injector;
    Network net;
    std::vector<std::unique_ptr<Node>> nodes;
};

/** Node configuration calibrated to the Cray T3D (§3.5.1). */
NodeConfig t3dNodeConfig();

/** Node configuration calibrated to the Intel Paragon (§3.5.2). */
NodeConfig paragonNodeConfig();

/**
 * A T3D partition: 3-D torus, two PEs per network port, 150 MHz
 * Alpha EV4 nodes. @p dims must multiply to the node count.
 */
MachineConfig t3dConfig(std::vector<int> dims = {2, 2, 2});

/** A Paragon partition: 2-D mesh, 50 MHz dual-i860XP nodes. */
MachineConfig paragonConfig(std::vector<int> dims = {4, 2});

/** Build the configuration for a machine id with default dims. */
MachineConfig configFor(core::MachineId id);

/**
 * True when @p nodes is a machine size the scaled configurations
 * support: a power of two in [8, 8192].
 */
bool validScaleNodes(int nodes);

/**
 * Near-balanced power-of-two dims for a @p nodes-node partition of
 * machine @p id: three dimensions for the T3D's torus (largest radix
 * first), two for the Paragon's mesh. fatal()s unless
 * validScaleNodes(nodes).
 */
std::vector<int> dimsForNodes(core::MachineId id, int nodes);

/** configFor() with the topology scaled to @p nodes nodes. */
MachineConfig configFor(core::MachineId id, int nodes);

} // namespace ct::sim

#endif // CT_SIM_MACHINE_H
