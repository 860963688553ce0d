/**
 * @file
 * Heap-budget witnesses for the active-set scaling contract
 * (DESIGN.md §15): analysis, planning and transport state must grow
 * with the *active* communication set, never with machine capacity.
 * This binary replaces global operator new/delete with a counting
 * allocator, so it is kept separate from the other test suites; the
 * budgets below are ~4x the measured allocation, far below what any
 * capacity-proportional (O(N²) channels, dense per-link) version
 * would need at 4096 nodes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/planner.h"
#include "rt/reliable_layer.h"
#include "rt/workload.h"
#include "sim/machine.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocated{0};

/**
 * The one place replaced deletes give memory back. Kept out of line:
 * once inlined into a caller that also inlined operator new, a bare
 * free() looks to the compiler like a new/free mismatch.
 */
[[gnu::noinline]] void
releaseBlock(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    g_allocated.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocated.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

// The nothrow forms (std::stable_sort's temporary buffer uses them)
// must come from the same allocator the replaced deletes free into.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocated.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    g_allocated.fetch_add(size, std::memory_order_relaxed);
    return std::aligned_alloc(static_cast<std::size_t>(align),
                              size ? size : 1);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, align, tag);
}

void
operator delete(void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    releaseBlock(p);
}

namespace {

using namespace ct;
using P = core::AccessPattern;

/** Bytes allocated since construction. */
class AllocWindow
{
  public:
    AllocWindow() : start(g_allocated.load()) {}
    std::uint64_t bytes() const { return g_allocated.load() - start; }

  private:
    std::uint64_t start;
};

TEST(ScaleFootprint, AnalyticPlanAt4096NodesStaysSmall)
{
    // The full large-N planning path -- scaled topology, pair-exchange
    // demands, sparse congestion analysis, style ranking -- with no
    // Machine behind it. A dense per-link/per-pair formulation would
    // need hundreds of megabytes here; the active-set path fits in
    // under a megabyte (budget is ~4x the measured ~0.8 MB).
    const int kNodes = 4096;
    AllocWindow window;
    sim::Topology topo(
        sim::configFor(core::MachineId::T3d, kNodes).topology);
    auto demands = rt::pairExchangeDemands(kNodes, 8 * 1024);
    sim::CongestionReport report = topo.analyzeCongestion(demands);
    core::PlanQuery query{core::MachineId::T3d, P::contiguous(),
                          P::contiguous(), report.factor};
    auto plans = core::plan(query);
    std::uint64_t used = window.bytes();

    EXPECT_EQ(report.routed, kNodes);
    EXPECT_EQ(report.unroutable, 0);
    EXPECT_DOUBLE_EQ(report.factor, 2.0); // shared injection ports
    EXPECT_FALSE(plans.empty());
    std::fprintf(stderr, "analytic plan at %d nodes allocated %llu bytes\n",
                 kNodes,
                 static_cast<unsigned long long>(used));
    EXPECT_LT(used, 4u * 1024 * 1024);
}

TEST(ScaleFootprint, ReliableChannelsScaleWithActiveFlows)
{
    // Two flows on a 4096-node machine: the reliable layer must
    // materialize exactly two channels and allocate O(words) during
    // the run (~0.1 MB measured; budget ~4x). The pre-fix dense
    // channel matrix (4096² entries) could not fit any sane budget.
    const int kNodes = 4096;
    const std::uint64_t kWords = 512;
    sim::Machine machine(
        sim::configFor(core::MachineId::T3d, kNodes));
    util::Rng rng(7);
    rt::CommOp op;
    op.name = "scale-2flow";
    op.flows.push_back(rt::makeFlow(machine, 0, 1, P::contiguous(),
                                    P::contiguous(), kWords, rng));
    op.flows.push_back(rt::makeFlow(machine, 1, 0, P::contiguous(),
                                    P::contiguous(), kWords, rng));
    rt::seedSources(machine, op);
    auto layer = rt::makeReliableChained();

    AllocWindow window;
    layer->run(machine, op);
    std::uint64_t used = window.bytes();

    EXPECT_EQ(layer->stats().activeChannels, 2u);
    EXPECT_EQ(layer->stats().retransmits, 0u);
    EXPECT_EQ(rt::verifyDelivery(machine, op), 0u);
    std::fprintf(stderr,
                 "2-flow reliable run on %d nodes allocated %llu bytes\n",
                 kNodes,
                 static_cast<unsigned long long>(used));
    EXPECT_LT(used, 1u * 1024 * 1024);
}

TEST(ScaleFootprint, DimsForNodesSplitsNearEvenly)
{
    using sim::dimsForNodes;
    EXPECT_EQ(dimsForNodes(core::MachineId::T3d, 4096),
              (std::vector<int>{16, 16, 16}));
    EXPECT_EQ(dimsForNodes(core::MachineId::T3d, 8192),
              (std::vector<int>{32, 16, 16}));
    EXPECT_EQ(dimsForNodes(core::MachineId::Paragon, 8192),
              (std::vector<int>{128, 64}));
    EXPECT_EQ(dimsForNodes(core::MachineId::Paragon, 64),
              (std::vector<int>{8, 8}));
    for (int nodes = 8; nodes <= 8192; nodes *= 2) {
        for (core::MachineId id :
             {core::MachineId::T3d, core::MachineId::Paragon}) {
            auto dims = dimsForNodes(id, nodes);
            int product = 1;
            for (int d : dims)
                product *= d;
            EXPECT_EQ(product, nodes);
            // Largest radix first, spread within a factor of two.
            EXPECT_GE(dims.front(), dims.back());
            EXPECT_LE(dims.front(), dims.back() * 2);
        }
    }
}

TEST(ScaleFootprint, ValidScaleNodesEdges)
{
    using sim::validScaleNodes;
    EXPECT_TRUE(validScaleNodes(8));
    EXPECT_TRUE(validScaleNodes(8192));
    EXPECT_FALSE(validScaleNodes(4));
    EXPECT_FALSE(validScaleNodes(16384));
    EXPECT_FALSE(validScaleNodes(100));
    EXPECT_FALSE(validScaleNodes(0));
    EXPECT_FALSE(validScaleNodes(-8));
}

TEST(ScaleFootprintDeath, BadNodeCount)
{
    EXPECT_EXIT(
        (void)sim::dimsForNodes(core::MachineId::T3d, 100),
        testing::ExitedWithCode(1), "power of two");
}

} // namespace
