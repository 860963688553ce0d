#include "workload.h"

#include "core/distribution.h"

#include "util/logging.h"

namespace ct::rt {

using core::AccessPattern;
using core::PatternKind;

sim::PatternWalk
allocWalk(sim::Node &node, AccessPattern p, std::uint64_t words,
          util::Rng &rng)
{
    sim::NodeRam &ram = node.ram();
    switch (p.kind()) {
      case PatternKind::Contiguous:
        return sim::contiguousWalk(ram.alloc(words * 8));
      case PatternKind::Strided:
        return sim::stridedWalk(ram.alloc(words * p.stride() * 8),
                                p.stride());
      case PatternKind::Indexed: {
        Addr base = ram.alloc(words * 8);
        Addr idx = ram.alloc(words * 8);
        auto perm = rng.permutation(words);
        ram.writeWords(idx, perm.data(), words);
        return sim::indexedWalk(base, idx);
      }
      case PatternKind::Fixed:
        break;
    }
    util::fatal("allocWalk: pattern must touch memory");
}

sim::PatternWalk
replicateIndexArray(const sim::PatternWalk &walk, std::uint64_t words,
                    const sim::NodeRam &owner_ram, sim::Node &node)
{
    if (!walk.pattern.isIndexed())
        return walk;
    Addr copy = node.ram().alloc(words * 8);
    const sim::PageReader index(owner_ram);
    node.ram().fillWords(copy, words, [&](std::uint64_t i) {
        return index.readWord(walk.indexAddr(i));
    });
    sim::PatternWalk replica = walk;
    replica.indexBase = copy;
    return replica;
}

Flow
makeFlow(sim::Machine &machine, NodeId src, NodeId dst,
         AccessPattern x, AccessPattern y, std::uint64_t words,
         util::Rng &rng)
{
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.words = words;
    flow.srcWalk = allocWalk(machine.node(src), x, words, rng);
    flow.dstWalk = allocWalk(machine.node(dst), y, words, rng);
    flow.dstWalkOnSender =
        replicateIndexArray(flow.dstWalk, words,
                            machine.node(dst).ram(),
                            machine.node(src));
    return flow;
}

sim::PatternWalk
walkForIndices(const std::vector<std::uint64_t> &locals,
               Addr array_base, sim::Node &index_home)
{
    if (locals.empty())
        util::fatal("walkForIndices: empty index list");
    AccessPattern pattern = core::classifyIndices(locals);
    switch (pattern.kind()) {
      case PatternKind::Contiguous:
        return sim::contiguousWalk(array_base + locals.front() * 8);
      case PatternKind::Strided:
        return sim::stridedWalk(array_base + locals.front() * 8,
                                pattern.stride(), pattern.block());
      case PatternKind::Indexed: {
        Addr idx = index_home.ram().alloc(locals.size() * 8);
        index_home.ram().writeWords(idx, locals.data(), locals.size());
        return sim::indexedWalk(array_base, idx);
      }
      default:
        break;
    }
    util::panic("walkForIndices: unexpected pattern");
}

Flow
makeTypedFlow(sim::Machine &machine, NodeId src, NodeId dst,
              const core::Datatype &src_type,
              const core::Datatype &dst_type)
{
    if (src_type.size() != dst_type.size())
        util::fatal("makeTypedFlow: type signatures differ (",
                    src_type.size(), " vs ", dst_type.size(),
                    " words)");
    if (src_type.hasOverlap() || dst_type.hasOverlap())
        util::fatal("makeTypedFlow: overlapping datatype");

    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.words = src_type.size();
    Addr src_base =
        machine.node(src).ram().alloc(src_type.extent() * 8);
    Addr dst_base =
        machine.node(dst).ram().alloc(dst_type.extent() * 8);
    flow.srcWalk = walkForIndices(src_type.offsets(), src_base,
                                  machine.node(src));
    flow.dstWalk = walkForIndices(dst_type.offsets(), dst_base,
                                  machine.node(dst));
    flow.dstWalkOnSender =
        flow.dstWalk.pattern.isIndexed()
            ? walkForIndices(dst_type.offsets(), dst_base,
                             machine.node(src))
            : flow.dstWalk;
    return flow;
}

CommOp
pairExchange(sim::Machine &machine, AccessPattern x, AccessPattern y,
             std::uint64_t words, std::uint64_t seed)
{
    util::Rng rng(seed);
    CommOp op;
    op.name = x.label() + std::string("Q") + y.label() + " exchange";
    for (NodeId node = 0; node + 1 < machine.nodeCount(); node += 2) {
        op.flows.push_back(
            makeFlow(machine, node, node + 1, x, y, words, rng));
        op.flows.push_back(
            makeFlow(machine, node + 1, node, x, y, words, rng));
    }
    return op;
}

std::vector<sim::TrafficDemand>
pairExchangeDemands(int nodes, Bytes bytes_per_demand)
{
    std::vector<sim::TrafficDemand> demands;
    demands.reserve(static_cast<std::size_t>(nodes));
    for (NodeId node = 0; node + 1 < nodes; node += 2) {
        demands.push_back({node, node + 1, bytes_per_demand});
        demands.push_back({node + 1, node, bytes_per_demand});
    }
    return demands;
}

} // namespace ct::rt
