#include "ops.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/analytic_backend.h"
#include "core/machine_params.h"
#include "core/style_registry.h"
#include "core/transfer_program.h"
#include "rt/comm_op.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/topology.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using ct::core::AccessPattern;
using ct::core::MachineId;
using ct::sweep::CellSpec;
using ct::sweep::Grid;
using P = AccessPattern;
using PatternPair = std::pair<AccessPattern, AccessPattern>;

const std::vector<MachineId> kMachines = {MachineId::T3d,
                                          MachineId::Paragon};

/** Payload words a fully simulated pair exchange moves. */
std::uint64_t
payloadWords(const CellSpec &spec)
{
    if (spec.nodes > ct::sweep::kScaleSimNodes)
        return 0;
    ct::sim::MachineConfig cfg =
        spec.nodes != 0 ? ct::sim::configFor(spec.machine, spec.nodes)
                        : ct::sim::configFor(spec.machine);
    return spec.words *
           static_cast<std::uint64_t>(
               ct::sim::Topology(cfg.topology).nodeCount());
}

void
append(std::vector<CellOp> &ops, const Grid &grid)
{
    for (CellSpec &spec : grid.cells()) {
        std::uint64_t words = payloadWords(spec);
        ops.push_back({std::move(spec), words});
    }
}

template <typename T>
void
seededShuffle(std::vector<T> &ops, std::uint64_t seed)
{
    ct::util::Rng rng(seed);
    rng.shuffle(ops);
}

} // namespace

CellCounters &
CellCounters::operator+=(const CellCounters &o)
{
    events += o.events;
    payloadWords += o.payloadWords;
    loadHits += o.loadHits;
    loadMisses += o.loadMisses;
    rowHits += o.rowHits;
    rowMisses += o.rowMisses;
    wbqStallCycles += o.wbqStallCycles;
    busWaitCycles += o.busWaitCycles;
    depositBusyCycles += o.depositBusyCycles;
    nodeCycles += o.nodeCycles;
    wireBytes += o.wireBytes;
    payloadBytes += o.payloadBytes;
    retransmits += o.retransmits;
    dataPackets += o.dataPackets;
    return *this;
}

std::vector<CellOp>
exchangeLongOps(std::uint64_t seed)
{
    // One size per pattern: the contiguous walk runs longest, the
    // indexed walks (several times costlier per word on the host) run
    // 2^16 words. All stay inside the 64 MiB node RAM (a stride-16
    // read of 2^17 words spans 16 MiB).
    const std::pair<PatternPair, std::uint64_t> cells[] = {
        {{P::contiguous(), P::contiguous()}, 1u << 18},
        {{P::contiguous(), P::strided(16)}, 1u << 17},
        {{P::strided(16), P::contiguous()}, 1u << 17},
        {{P::indexed(), P::indexed()}, 1u << 16},
        {{P::contiguous(), P::indexed()}, 1u << 16},
    };
    std::vector<CellOp> ops;
    for (MachineId m : kMachines)
        for (const char *style : {"chained", "buffer-packing"})
            for (const auto &[pair, words] : cells)
                append(ops, Grid().machines({m}).styles({style}).pairs(
                                {pair}).words({words}));
    // Lossy wires route through the reliable transport; the fault
    // seed is fixed so the simulated outputs do not depend on --seed.
    ct::sim::FaultSpec drop = ct::sim::FaultSpec::parse("drop=0.001,seed=7");
    append(ops, Grid()
                    .machines({MachineId::T3d})
                    .styles({"chained"})
                    .pairs({{P::contiguous(), P::contiguous()}})
                    .words({1u << 16})
                    .faults({drop}));
    append(ops, Grid()
                    .machines({MachineId::Paragon})
                    .styles({"buffer-packing"})
                    .pairs({{P::contiguous(), P::strided(16)}})
                    .words({1u << 16})
                    .faults({drop}));
    seededShuffle(ops, seed);
    return ops;
}

std::vector<CellOp>
gridValidateOps(std::uint64_t seed)
{
    const std::vector<AccessPattern> pats = {P::contiguous(),
                                             P::strided(16), P::indexed()};
    auto base = [&] {
        Grid g;
        g.machines(kMachines).xs(pats).ys(pats);
        return g;
    };
    std::vector<CellOp> ops;
    append(ops, base().words({1u << 12, 1u << 14}));
    append(ops, base().words({1u << 13}).nodes({64}));
    append(ops, base().words({1u << 12}).nodes({1024, 8192}));
    // 256-node cells cost about a second each: a handful only.
    append(ops, Grid()
                    .machines(kMachines)
                    .styles({"chained"})
                    .pairs({{P::contiguous(), P::contiguous()},
                            {P::indexed(), P::indexed()}})
                    .words({1u << 12})
                    .nodes({256}));
    seededShuffle(ops, seed);
    return ops;
}

std::vector<CellOp>
gridIdentitySubset(const std::vector<CellOp> &ops)
{
    static const char *const ids[] = {
        "t3d/chained/1Q1/w4096",
        "paragon/buffer-packing/wQw/w16384",
        "t3d/pvm/16Qw/w8192/n64",
        "paragon/chained/1Q16/w4096/n8192",
    };
    std::vector<CellOp> subset;
    for (const char *id : ids)
        for (const CellOp &op : ops)
            if (op.spec.id == id)
                subset.push_back(op);
    if (subset.size() != std::size(ids))
        ct::util::fatal("perfbench: identity subset cell missing");
    return subset;
}

namespace {

struct Weighted
{
    ServeRequest proto;
    double weight = 0.0;
};

std::string
machineWire(MachineId m)
{
    return m == MachineId::T3d ? "t3d" : "paragon";
}

/** The key space, in a seed-independent rank order. */
std::vector<Weighted>
serveKeySpace(ReqKind kind)
{
    std::vector<Weighted> keys;
    if (kind == ReqKind::Plan) {
        const char *xqys[] = {"1Q1", "1Q4",  "1Q16", "1Q64",
                              "wQw", "1Qw", "16Q1", "64Q1"};
        // 2 x 8 x 64 = 1024 plan keys: 4x the default cache capacity.
        for (int size = 0; size < 64; ++size)
            for (const char *xqy : xqys)
                for (MachineId m : kMachines) {
                    ServeRequest r;
                    r.kind = ReqKind::Plan;
                    r.machine = m;
                    r.line = "\"op\":\"plan\",\"machine\":\"" +
                             machineWire(m) + "\",\"xqy\":\"" + xqy +
                             "\"";
                    if (size > 0)
                        r.line += ",\"bytes\":" +
                                  std::to_string(256 * size);
                    r.key = r.line;
                    keys.push_back({r, 0.0});
                }
        // Zipf-like: a hot head the cache holds, a long cold tail.
        for (std::size_t i = 0; i < keys.size(); ++i)
            keys[i].weight = 1.0 / static_cast<double>(i + 1);
    } else if (kind == ReqKind::Sim) {
        const char *xqys[] = {"1Q1", "1Q16", "wQw", "1Qw"};
        // Budget classes: none (exact), below the 4096-event analytic
        // floor, and 4500 events (cuts the 5120-event Paragon 8K runs
        // short; the rest finish inside it).
        const std::uint64_t budgets[] = {0, 1000, 4500};
        for (std::uint64_t budget : budgets)
            for (std::uint64_t words : {1024u, 2048u, 4096u, 8192u})
                for (const char *xqy : xqys)
                    for (MachineId m : kMachines) {
                        ServeRequest r;
                        r.kind = ReqKind::Sim;
                        r.machine = m;
                        r.words = words;
                        r.budget = budget;
                        r.line = "\"op\":\"sim\",\"machine\":\"" +
                                 machineWire(m) + "\",\"xqy\":\"" +
                                 xqy + "\",\"words\":" +
                                 std::to_string(words);
                        if (budget > 0)
                            r.line +=
                                ",\"budget\":" + std::to_string(budget);
                        r.key = r.line;
                        keys.push_back({r, 0.0});
                    }
        // Mild skew: every sim key is drawn many times per run, so
        // the set of simulated queries is the same for every seed.
        for (std::size_t i = 0; i < keys.size(); ++i)
            keys[i].weight = 1.0;
    } else {
        ServeRequest r;
        r.kind = ReqKind::Health;
        r.line = "\"op\":\"health\"";
        r.key = r.line;
        keys.push_back({r, 1.0});
    }
    return keys;
}

const ServeRequest &
draw(const std::vector<Weighted> &keys, const std::vector<double> &cdf,
     ct::util::Rng &rng)
{
    double u = rng.nextDouble() * cdf.back();
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return keys[std::min(i, keys.size() - 1)].proto;
}

std::vector<double>
cdfOf(const std::vector<Weighted> &keys)
{
    std::vector<double> cdf;
    double sum = 0.0;
    for (const Weighted &k : keys)
        cdf.push_back(sum += k.weight);
    return cdf;
}

} // namespace

std::vector<ServeRequest>
serveMixRequests(std::uint64_t seed, std::size_t count)
{
    const std::vector<Weighted> plans = serveKeySpace(ReqKind::Plan);
    const std::vector<Weighted> sims = serveKeySpace(ReqKind::Sim);
    const std::vector<Weighted> health = serveKeySpace(ReqKind::Health);
    const std::vector<double> plan_cdf = cdfOf(plans);
    const std::vector<double> sim_cdf = cdfOf(sims);
    const std::vector<double> health_cdf = cdfOf(health);

    ct::util::Rng rng(seed);
    std::vector<ServeRequest> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t dice = rng.nextBelow(100);
        ServeRequest r = dice < 50   ? draw(plans, plan_cdf, rng)
                         : dice < 95 ? draw(sims, sim_cdf, rng)
                                     : draw(health, health_cdf, rng);
        r.line = "{\"id\":" + std::to_string(i) + "," + r.line + "}";
        out.push_back(std::move(r));
    }
    return out;
}

Replay
replayCell(const CellSpec &spec, SpanLog *log, std::uint64_t op)
{
    namespace core = ct::core;
    namespace rt = ct::rt;
    namespace sim = ct::sim;

    Replay out;
    out.result.id = spec.id;
    sim::MachineConfig cfg =
        spec.nodes != 0 ? sim::configFor(spec.machine, spec.nodes)
                        : sim::configFor(spec.machine);
    cfg.faults = spec.faults;

    std::optional<core::TransferProgram> program;
    {
        ScopedSpan s(log, "core.buildProgram", op);
        program =
            core::buildProgram(spec.machine, spec.style, spec.x, spec.y);
    }
    if (!program)
        return out;

    double congestion = core::paperCaps(spec.machine).defaultCongestion;
    if (spec.nodes != 0) {
        ScopedSpan s(log, "sim.Topology.analyzeCongestion", op);
        sim::Topology topo(cfg.topology);
        sim::CongestionReport report = topo.analyzeCongestion(
            rt::pairExchangeDemands(spec.nodes, spec.words * 8));
        congestion = report.factor;
        out.result.congestion = report.factor;
    }

    std::optional<core::AnalyticBackend> analytic;
    {
        ScopedSpan s(log, "core.AnalyticBackend", op);
        analytic.emplace(core::paperTable(spec.machine),
                         rt::executionProfileFor(cfg));
    }
    {
        ScopedSpan s(log, "core.predictThroughputAt", op);
        if (auto model = analytic->predictThroughputAt(
                *program, spec.words * 8, congestion))
            out.result.modelMBps = *model;
    }
    if (spec.nodes > ct::sweep::kScaleSimNodes)
        return out;

    const core::TransferProgram to_run =
        spec.faults.any() ? core::withReliability(*program) : *program;
    std::unique_ptr<sim::Machine> machine;
    {
        ScopedSpan s(log, "sim.Machine", op);
        machine = std::make_unique<sim::Machine>(cfg);
    }
    rt::CommOp comm;
    {
        ScopedSpan s(log, "rt.pairExchange", op);
        comm = rt::pairExchange(*machine, to_run.x, to_run.y, spec.words,
                                42);
    }
    {
        ScopedSpan s(log, "rt.seedSources", op);
        rt::seedSources(*machine, comm);
    }
    std::unique_ptr<rt::MessageLayer> layer;
    {
        ScopedSpan s(log, "rt.lowerProgram", op);
        layer = rt::lowerProgram(to_run);
        machine->setParallelEnabled(layer->parallelSafe());
        machine->setParallelLookahead(
            layer->parallelLookahead(*machine, comm));
    }
    rt::RunResult run;
    {
        ScopedSpan s(log, "rt.MessageLayer::run", op);
        run = layer->run(*machine, comm);
    }
    out.truncated = machine->events().truncated();
    if (!out.truncated) {
        ScopedSpan s(log, "rt.verifyDelivery", op);
        out.result.corruptWords = rt::verifyDelivery(*machine, comm);
    }
    out.result.simMBps = run.perNodeMBps(*machine);
    out.result.makespanCycles = static_cast<std::uint64_t>(run.makespan);

    sim::MachineReport rep = sim::collectReport(*machine);
    const ct::obs::MetricsRegistry &reg = machine->metrics();
    auto counter = [&reg](const char *name) {
        return reg.has(name) ? reg.counterValue(name) : 0;
    };
    CellCounters &c = out.counters;
    c.events = machine->events().eventsExecuted();
    c.payloadWords = run.payloadBytes / 8;
    c.loadHits = rep.loadHits;
    c.loadMisses = rep.loadMisses;
    c.rowHits = rep.rowHits;
    c.rowMisses = rep.rowMisses;
    c.wbqStallCycles = rep.wbqStallCycles;
    c.busWaitCycles = rep.busWaitCycles;
    c.depositBusyCycles = rep.depositBusyCycles;
    c.nodeCycles = out.result.makespanCycles *
                   static_cast<std::uint64_t>(machine->nodeCount());
    c.wireBytes = counter("sim.net.wire_bytes");
    c.payloadBytes = counter("sim.net.payload_bytes");
    c.retransmits = counter("rt.reliable.retransmits");
    c.dataPackets = counter("rt.reliable.data_packets");
    {
        ScopedSpan s(log, "sim.Machine.destroy", op);
        machine.reset();
    }
    return out;
}

SimValues
simValuesOf(const ct::sweep::CellResult &r)
{
    return {r.simMBps, r.modelMBps, r.makespanCycles, r.corruptWords};
}

bool
sameResult(const ct::sweep::CellResult &a, const ct::sweep::CellResult &b)
{
    auto bits = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    return a.id == b.id && bits(a.simMBps) == bits(b.simMBps) &&
           bits(a.modelMBps) == bits(b.modelMBps) &&
           a.makespanCycles == b.makespanCycles &&
           a.corruptWords == b.corruptWords &&
           bits(a.congestion) == bits(b.congestion);
}

} // namespace perfbench
