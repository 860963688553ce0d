#include "comm_op.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace ct::rt {

OwnerMap
OwnerMap::identity(int nodes)
{
    // Self-ownership is the map's default; nothing to materialize.
    OwnerMap map;
    map.nodes = nodes;
    return map;
}

OwnerMap
OwnerMap::fromMachine(sim::Machine &machine)
{
    const sim::Topology &topo = machine.topology();
    sim::Cycles now = machine.events().now();
    int nodes = machine.nodeCount();
    OwnerMap map;
    map.nodes = nodes;
    if (!topo.anyOutages())
        return map; // everyone alive: the identity map
    for (int n = 0; n < nodes; ++n) {
        NodeId candidate = n;
        int probed = 0;
        while (!topo.nodeAlive(candidate, now)) {
            candidate = (candidate + 1) % nodes;
            if (++probed > nodes)
                util::fatal("OwnerMap: no live node left");
        }
        if (candidate != n)
            map.moved[n] = candidate;
    }
    return map;
}

Bytes
CommOp::totalBytes() const
{
    Bytes total = 0;
    for (const auto &flow : flows)
        total += flow.words * 8;
    return total;
}

Bytes
CommOp::maxBytesPerSender() const
{
    std::map<NodeId, Bytes> per_sender;
    for (const auto &flow : flows)
        per_sender[flow.src] += flow.words * 8;
    Bytes best = 0;
    for (const auto &[node, bytes] : per_sender)
        best = std::max(best, bytes);
    return best;
}

int
CommOp::activeSenders() const
{
    std::map<NodeId, Bytes> per_sender;
    for (const auto &flow : flows)
        if (flow.words > 0)
            per_sender[flow.src] += flow.words;
    return static_cast<int>(per_sender.size());
}

std::vector<sim::TrafficDemand>
CommOp::demands() const
{
    std::vector<sim::TrafficDemand> result;
    result.reserve(flows.size());
    for (const auto &flow : flows)
        result.push_back({flow.src, flow.dst, flow.words * 8});
    return result;
}

std::pair<std::size_t, std::uint64_t>
FlowGroup::locate(std::uint64_t word) const
{
    // prefix is sorted; find the last flow starting at or before word.
    std::size_t lo = 0, hi = flows.size();
    while (lo + 1 < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (prefix[mid] <= word)
            lo = mid;
        else
            hi = mid;
    }
    return {lo, word - prefix[lo]};
}

std::vector<FlowGroup>
groupFlows(const CommOp &op)
{
    std::vector<FlowGroup> groups;
    for (std::size_t f = 0; f < op.flows.size(); ++f) {
        const Flow &flow = op.flows[f];
        if (flow.words == 0)
            continue;
        if (groups.empty() || groups.back().src != flow.src ||
            groups.back().dst != flow.dst) {
            FlowGroup group;
            group.src = flow.src;
            group.dst = flow.dst;
            group.prefix.push_back(0);
            groups.push_back(std::move(group));
        }
        FlowGroup &group = groups.back();
        group.flows.push_back(f);
        group.prefix.push_back(group.prefix.back() + flow.words);
    }
    return groups;
}

ActiveSet::ActiveSet(const std::vector<FlowGroup> &groups)
{
    ids.reserve(groups.size() * 2);
    for (const FlowGroup &group : groups) {
        ids.push_back(group.src);
        ids.push_back(group.dst);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    slots.reserve(ids.size());
    for (std::size_t s = 0; s < ids.size(); ++s)
        slots.emplace(ids[s], s);
}

std::size_t
ActiveSet::slot(NodeId node) const
{
    auto it = slots.find(node);
    if (it == slots.end())
        util::fatal("ActiveSet: node ", node,
                    " is not part of this operation");
    return it->second;
}

namespace {

std::uint64_t
sourceValue(std::size_t flow_idx, std::uint64_t element)
{
    return (static_cast<std::uint64_t>(flow_idx) << 40) ^ (element + 1);
}

} // namespace

void
seedSources(sim::Machine &machine, const CommOp &op)
{
    for (std::size_t f = 0; f < op.flows.size(); ++f) {
        const Flow &flow = op.flows[f];
        sim::fillWalk(machine.node(flow.src).ram(), flow.srcWalk, 0,
                      flow.words, [f](std::uint64_t i) {
                          return sourceValue(f, i);
                      });
    }
}

std::uint64_t
verifyDelivery(sim::Machine &machine, const CommOp &op)
{
    std::uint64_t mismatches = 0;
    for (const Flow &flow : op.flows) {
        const sim::NodeRam &src_ram = machine.node(flow.src).ram();
        const sim::NodeRam &dst_ram = machine.node(flow.dst).ram();
        if (flow.srcWalk.pattern.isContiguous() &&
            flow.dstWalk.pattern.isContiguous()) {
            mismatches += sim::countMismatchedWords(
                src_ram, flow.srcWalk.base, dst_ram, flow.dstWalk.base,
                flow.words);
            continue;
        }
        // One page window per array read: source and destination
        // data, and each side's index array.
        const sim::PageReader src_data(src_ram);
        const sim::PageReader src_index(src_ram);
        const sim::PageReader dst_data(dst_ram);
        const sim::PageReader dst_index(dst_ram);
        mismatches += sim::withCursor(flow.srcWalk, 0, [&](auto scur) {
            return sim::withCursor(flow.dstWalk, 0, [&](auto dcur) {
                std::uint64_t bad = 0;
                for (std::uint64_t i = 0; i < flow.words;
                     ++i, scur.advance(), dcur.advance())
                    bad += src_data.readWord(scur.elementAddr(src_index)) !=
                           dst_data.readWord(dcur.elementAddr(dst_index));
                return bad;
            });
        });
    }
    return mismatches;
}

} // namespace ct::rt
