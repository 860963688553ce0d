/**
 * @file
 * Self-tests of the benchmark's own helpers: the tail-percentile
 * rule, span self times, generator determinism, the traced replay's
 * fidelity to runCell, and the ordering of the paper-error pass.
 * Build and run with `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "digest.h"
#include "ops.h"
#include "spans.h"
#include "stats.h"
#include "sweep/grid.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

TEST(TailPercentile, LeavesTenSamplesBeyond)
{
    Tail t = tailPercentile(oneTo(1000));
    EXPECT_EQ(t.value, 990.0);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.beyond, 10u);

    t = tailPercentile(oneTo(100));
    EXPECT_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);

    // Eleven samples: only the smallest has ten beyond it.
    t = tailPercentile(oneTo(11));
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, TooFewSamplesReportsTheMaximum)
{
    Tail t = tailPercentile(oneTo(10));
    EXPECT_EQ(t.value, 10.0);
    EXPECT_EQ(t.beyond, 0u);
    EXPECT_EQ(tailPercentile({}).value, 0.0);
}

TEST(Stats, MedianAndGeomean)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_NEAR(geomean({1, 4, 16}), 4.0, 1e-12);
}

Span
span(const char *name, std::int64_t s, std::int64_t e, std::int64_t parent)
{
    return {name, s, e, parent, 0};
}

TEST(Spans, SelfTimeSubtractsNestedChildren)
{
    std::vector<Span> spans = {span("op", 0, 100, -1),
                               span("a", 10, 30, 0),
                               span("b", 40, 90, 0),
                               span("b.inner", 50, 60, 2)};
    std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 30);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 40);
    EXPECT_EQ(self[3], 10);
    EXPECT_EQ(selfSumMismatches(spans), 0u);
}

TEST(Spans, OverlappingChildrenAreSubtractedOnce)
{
    // Two parallel children covering [10, 70) together, and one that
    // runs past the parent's end: only [90, 100) of it counts.
    std::vector<Span> spans = {span("op", 0, 100, -1),
                               span("w0", 10, 50, 0),
                               span("w1", 30, 70, 0),
                               span("late", 90, 120, 0)};
    std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 60 - 10);
    EXPECT_EQ(self[1], 40);
    EXPECT_EQ(self[2], 40);
    // Overlap makes the children's self times exceed the op span, so
    // the sum check flags it.
    EXPECT_EQ(selfSumMismatches(spans), 1u);
}

TEST(Spans, ScopedSpansNestPerThread)
{
    SpanLog log;
    {
        ScopedSpan op(&log, "op", 7);
        { ScopedSpan a(&log, "a", 7); }
        { ScopedSpan b(&log, "b", 7); }
    }
    std::vector<Span> spans = log.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 0);
    EXPECT_EQ(spans[2].op, 7u);
    EXPECT_EQ(selfSumMismatches(spans), 0u);
    ScopedSpan off(nullptr, "untraced", 0); // no log: a no-op
}

std::vector<std::string>
ids(const std::vector<CellOp> &ops)
{
    std::vector<std::string> out;
    for (const CellOp &op : ops)
        out.push_back(op.spec.id);
    return out;
}

TEST(Generators, SameSeedSameOpsOtherSeedOtherOrder)
{
    for (auto gen : {&exchangeLongOps, &gridValidateOps}) {
        std::vector<std::string> a = ids(gen(1)), b = ids(gen(1)),
                                 c = ids(gen(2));
        EXPECT_EQ(a, b);
        EXPECT_NE(a, c);
        // The op multiset is fixed; only the order depends on the seed.
        std::sort(a.begin(), a.end());
        std::sort(c.begin(), c.end());
        EXPECT_EQ(a, c);
    }
    auto lines = [](const std::vector<ServeRequest> &reqs) {
        std::vector<std::string> out;
        for (const ServeRequest &r : reqs)
            out.push_back(r.line);
        return out;
    };
    EXPECT_EQ(lines(serveMixRequests(1, 500)),
              lines(serveMixRequests(1, 500)));
    EXPECT_NE(lines(serveMixRequests(1, 500)),
              lines(serveMixRequests(2, 500)));
}

TEST(Generators, ServeMixShape)
{
    std::vector<ServeRequest> reqs = serveMixRequests(3, 20000);
    std::size_t plan = 0, sim = 0, health = 0, under_floor = 0;
    std::set<std::string> keys;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const ServeRequest &r = reqs[i];
        EXPECT_EQ(r.line.rfind("{\"id\":" + std::to_string(i) + ",", 0),
                  0u);
        plan += r.kind == ReqKind::Plan;
        sim += r.kind == ReqKind::Sim;
        health += r.kind == ReqKind::Health;
        under_floor += r.budget > 0 && r.budget < 4096;
        keys.insert(r.key);
        if (r.kind == ReqKind::Sim) {
            EXPECT_GE(r.words, 1024u);
            EXPECT_LE(r.words, 8192u);
        }
    }
    EXPECT_NEAR(plan / 20000.0, 0.50, 0.02);
    EXPECT_NEAR(sim / 20000.0, 0.45, 0.02);
    EXPECT_NEAR(health / 20000.0, 0.05, 0.01);
    EXPECT_GT(under_floor, 0u);
    // Several times the service's default cache capacity (256).
    EXPECT_GT(keys.size(), 3u * 256u);
}

TEST(Replay, ReproducesRunCellExactly)
{
    // Default-dims, 64-node and analytic-only scale cells, plus a lossy
    // cell behind the reliable transport.
    std::vector<CellOp> ops = gridIdentitySubset(gridValidateOps(1));
    ct::sweep::CellSpec lossy = ops[0].spec;
    lossy.faults = ct::sim::FaultSpec::parse("drop=0.01,seed=3");
    lossy.id += "/lossy";
    ops.push_back({lossy, 1});
    ASSERT_EQ(ops.size(), 5u);
    for (const CellOp &op : ops) {
        SpanLog log;
        Replay rep = replayCell(op.spec, &log, 0);
        EXPECT_TRUE(sameResult(rep.result, ct::sweep::runCell(op.spec)))
            << op.spec.id;
        EXPECT_FALSE(rep.truncated);
        EXPECT_EQ(rep.counters.events > 0,
                  op.spec.nodes <= ct::sweep::kScaleSimNodes);
        EXPECT_FALSE(log.snapshot().empty());
    }
}

TEST(Digest, DependsOnEveryValue)
{
    Digest a, b, c;
    a.add({1.5, 2.5, 100, 0});
    b.add({1.5, 2.5, 100, 0});
    c.add({1.5, 2.5, 100, 1});
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_NE(a.hex(), c.hex());
    EXPECT_EQ(a.hex().size(), 8u);
}

TEST(Driver, PaperErrorComesAfterTheTimedPhase)
{
    Options o;
    o.workload = "serve-mix";
    o.seconds = 0.5;
    o.threads = 2;
    o.setupRepeats = 1;
    int calls = 0;
    std::int64_t called_at = 0;
    Outcome out = runWorkload(o, [&] {
        ++calls;
        called_at = nowNs();
        return 12.5;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_GT(out.timedEndNs, 0);
    EXPECT_GT(called_at, out.timedEndNs);
    EXPECT_EQ(out.failed, 0u);
    auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                           [](const Metric &m) {
                               return m.name == "paper_err_max_pct";
                           });
    ASSERT_NE(it, out.metrics.end());
    EXPECT_EQ(it->value, 12.5);

    // The traced run reports per-layer metrics only: no paper pass.
    o.trace = true;
    calls = 0;
    runWorkload(o, [&] {
        ++calls;
        return 0.0;
    });
    EXPECT_EQ(calls, 0);
}

} // namespace
} // namespace perfbench
