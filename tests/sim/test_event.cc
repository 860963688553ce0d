#include <array>
#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "sim/event.h"

namespace {

using namespace ct::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesRunInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue q;
    Cycles seen = 0;
    q.schedule(42, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(q.now(), 42u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 10)
            q.scheduleAfter(5, chain);
    };
    q.schedule(0, chain);
    auto executed = q.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(executed, 10u);
    EXPECT_EQ(q.now(), 45u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue q;
    Cycles when = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(11, [&] { when = q.now(); });
    });
    q.run();
    EXPECT_EQ(when, 111u);
}

TEST(EventQueue, PendingCount)
{
    EventQueue q;
    EXPECT_EQ(q.pending(), 0u);
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, MaxEventsGuardStops)
{
    EventQueue q;
    std::function<void()> forever = [&]() {
        q.scheduleAfter(1, forever);
    };
    q.schedule(0, forever);
    auto executed = q.run(100);
    EXPECT_EQ(executed, 100u);
}

TEST(EventQueue, MaxEventsGuardMarksRunTruncated)
{
    EventQueue q;
    EXPECT_FALSE(q.truncated());
    std::function<void()> forever = [&]() {
        q.scheduleAfter(1, forever);
    };
    q.schedule(0, forever);
    q.run(10);
    EXPECT_TRUE(q.truncated());
    EXPECT_EQ(q.pending(), 1u);
    // Sticky: draining the queue afterwards must not launder the
    // truncation away.
    forever = [] {};
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.truncated());
}

TEST(EventQueue, CompleteRunIsNotTruncated)
{
    EventQueue q;
    for (int i = 0; i < 50; ++i)
        q.schedule(i, [] {});
    q.run(50);
    EXPECT_FALSE(q.truncated());
}

TEST(EventQueue, SameCycleOrderSurvivesSlabRecycling)
{
    // Fire enough events, in waves, that the pool recycles nodes
    // through the free list many times over; ties at one cycle must
    // still run in exact insertion order regardless of which
    // recycled node each event landed in.
    EventQueue q;
    std::vector<int> order;
    constexpr int waves = 8;
    constexpr int perWave = 3 * 256; // several slabs' worth
    for (int w = 0; w < waves; ++w) {
        Cycles when = 10 * (w + 1);
        for (int i = 0; i < perWave; ++i)
            q.schedule(when, [&order, w, i] {
                order.push_back(w * perWave + i);
            });
        // Interleave immediate events that free nodes mid-wave so
        // later schedules reuse them.
        q.run();
        EXPECT_GT(q.poolFree(), 0u);
    }
    ASSERT_EQ(order.size(),
              static_cast<std::size_t>(waves * perWave));
    for (int i = 0; i < waves * perWave; ++i)
        EXPECT_EQ(order[i], i) << "at " << i;
    // Recycling means the pool never grew past one wave's worth
    // (plus slab-granularity rounding).
    EXPECT_LE(q.poolSlabs(),
              static_cast<std::size_t>(perWave / 256 + 1));
}

TEST(EventQueue, PeakPendingTracksHighWaterMark)
{
    EventQueue q;
    for (int i = 0; i < 300; ++i)
        q.schedule(i, [] {});
    EXPECT_EQ(q.peakPending(), 300u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.peakPending(), 300u);
    q.schedule(1000, [] {});
    q.run();
    EXPECT_EQ(q.peakPending(), 300u);
}

TEST(EventQueue, OversizedCallbacksStillFireInOrder)
{
    // Callables beyond the inline-storage bound take the boxed path;
    // ordering and destruction must be identical.
    EventQueue q;
    std::array<std::uint64_t, 64> big{};
    std::vector<std::uint64_t> seen;
    static_assert(sizeof(big) > EventQueue::inlineCallbackBytes(),
                  "exercise the boxed path");
    for (std::uint64_t i = 0; i < 10; ++i) {
        big[0] = i;
        q.schedule(5, [big, &seen] { seen.push_back(big[0]); });
    }
    q.run();
    EXPECT_EQ(seen,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8,
                                          9}));
}

TEST(EventQueueDeath, PastScheduling)
{
    EventQueue q;
    q.schedule(50, [] {});
    q.run();
    EXPECT_EXIT(q.schedule(10, [] {}), testing::ExitedWithCode(1),
                "in the past");
}

TEST(EventQueueDeath, NullCallback)
{
    EventQueue q;
    EXPECT_EXIT(q.schedule(1, std::function<void()>()),
                testing::ExitedWithCode(1), "null callback");
}

TEST(EventQueueTimer, CancelledEventNeverRuns)
{
    EventQueue q;
    bool fired = false;
    auto t = q.scheduleCancellable(100, [&] { fired = true; });
    EXPECT_TRUE(t.armed());
    t.cancel();
    EXPECT_FALSE(t.armed());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueueTimer, CancelledEventDoesNotAdvanceClock)
{
    // The whole point of cancellation: a dead retransmit timer must
    // not stretch the tail of an otherwise finished run.
    EventQueue q;
    q.schedule(10, [] {});
    auto t = q.scheduleCancellable(50000, [] {});
    t.cancel();
    q.run();
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueTimer, CancelAfterFireIsNoOp)
{
    EventQueue q;
    int fired = 0;
    auto t = q.scheduleAfterCancellable(5, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.armed());
    t.cancel(); // must not touch recycled storage
    // Recycle the node for a different event; the stale handle must
    // not be able to cancel it (the sequence stamp disambiguates).
    auto t2 = q.scheduleAfterCancellable(5, [&] { ++fired; });
    t.cancel();
    EXPECT_TRUE(t2.armed());
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTimer, DefaultConstructedTimerIsInert)
{
    EventQueue::Timer t;
    EXPECT_FALSE(t.armed());
    t.cancel(); // no-op
}

TEST(EventQueueTimer, UncancelledTimerFiresNormally)
{
    EventQueue q;
    Cycles seen = 0;
    auto t = q.scheduleCancellable(30, [&] { seen = q.now(); });
    (void)t;
    q.run();
    EXPECT_EQ(seen, 30u);
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueBudget, BudgetStopsRunAtExactCount)
{
    EventQueue q;
    int fired = 0;
    for (Cycles t = 10; t <= 100; t += 10)
        q.schedule(t, [&] { ++fired; });
    q.setEventBudget(4);
    q.run();
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(q.eventsExecuted(), 4u);
    EXPECT_TRUE(q.budgetExhausted());
    EXPECT_TRUE(q.truncated());
    EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueueBudget, BudgetSpansSlicedRuns)
{
    // The runtime layers drive the queue in slices; the budget caps
    // the *total* across every run() call, so the cut lands in
    // whichever slice crosses it and later slices return instantly.
    EventQueue q;
    int fired = 0;
    for (Cycles t = 1; t <= 12; ++t)
        q.schedule(t, [&] { ++fired; });
    q.setEventBudget(7);
    EXPECT_EQ(q.run(5), 5u);
    EXPECT_FALSE(q.budgetExhausted());
    EXPECT_EQ(q.run(5), 2u);
    EXPECT_TRUE(q.budgetExhausted());
    EXPECT_EQ(q.run(5), 0u);
    EXPECT_EQ(fired, 7);
}

TEST(EventQueueBudget, CompleteRunWithinBudgetIsClean)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] { ++fired; });
    q.schedule(2, [&] { ++fired; });
    q.setEventBudget(10);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.budgetExhausted());
    EXPECT_FALSE(q.truncated());
}

TEST(EventQueueBudget, ZeroRestoresUnlimited)
{
    EventQueue q;
    q.setEventBudget(1);
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.run();
    EXPECT_TRUE(q.budgetExhausted());
    q.setEventBudget(0);
    EXPECT_FALSE(q.budgetExhausted());
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.eventsExecuted(), 2u);
}

} // namespace
