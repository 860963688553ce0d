/**
 * @file
 * Minimal discrete-event core used by the end-to-end communication
 * timeline. Events are callbacks ordered by (time, insertion order);
 * ties execute in insertion order to keep runs deterministic.
 *
 * Allocation discipline (this is the simulator's hot path): event
 * nodes live in slab-allocated pools and are linked intrusively --
 * a pairing heap for the pending set, a singly linked free list for
 * recycling -- and callbacks are stored inline in the node whenever
 * they fit. A steady-state run therefore performs no per-event heap
 * allocation: memory is bounded by the *peak* number of pending
 * events, never by how many events fire over the whole run.
 */

#ifndef CT_SIM_EVENT_H
#define CT_SIM_EVENT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/addr.h"

namespace ct::sim {

/**
 * Deterministic event queue driving the simulation clock. Any
 * `void()` callable can be scheduled.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Cycles now() const { return currentTime; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    template <typename F>
    void
    schedule(Cycles when, F &&fn)
    {
        checkSchedule(when);
        // Callable types with a boolean state (std::function, plain
        // function pointers) can be empty; catch that before the
        // event fires into nothing.
        if constexpr (std::is_constructible_v<bool, const decayed<F> &>) {
            if (!static_cast<bool>(fn))
                nullCallback();
        }
        EventNode *node = acquire(when);
        emplaceCallback(*node, std::forward<F>(fn));
        push(node);
    }

    /** Schedule @p fn to run @p delay cycles from now. */
    template <typename F>
    void
    scheduleAfter(Cycles delay, F &&fn)
    {
        schedule(now() + delay, std::forward<F>(fn));
    }

    /**
     * Handle to one scheduled event, returned by the *Cancellable
     * variants. cancel() turns the pending event into a tombstone:
     * when its slot comes up it is discarded without running and
     * without advancing the clock, so a cancelled timer can never
     * stretch the tail of an otherwise finished run (a retransmit
     * timer whose packet was acknowledged must not cost a timeout of
     * simulated idle time). Cancelling after the event fired is a
     * safe no-op -- the sequence stamp disambiguates recycled nodes
     * -- but a handle must not outlive its queue.
     */
  private:
    struct EventNode;

  public:
    class Timer
    {
      public:
        Timer() = default;

        /** True while the event is pending and not cancelled. */
        bool armed() const;

        /** Cancel the event if it is still pending. */
        void cancel();

      private:
        friend class EventQueue;
        Timer(EventNode *node, std::uint64_t seq)
            : node(node), seq(seq)
        {}
        EventNode *node = nullptr;
        std::uint64_t seq = 0;
    };

    /** schedule() returning a cancellable handle. */
    template <typename F>
    Timer
    scheduleCancellable(Cycles when, F &&fn)
    {
        checkSchedule(when);
        if constexpr (std::is_constructible_v<bool, const decayed<F> &>) {
            if (!static_cast<bool>(fn))
                nullCallback();
        }
        EventNode *node = acquire(when);
        emplaceCallback(*node, std::forward<F>(fn));
        push(node);
        return Timer(node, node->seq);
    }

    /** scheduleAfter() returning a cancellable handle. */
    template <typename F>
    Timer
    scheduleAfterCancellable(Cycles delay, F &&fn)
    {
        return scheduleCancellable(now() + delay,
                                   std::forward<F>(fn));
    }

    /** Number of pending events. */
    std::size_t pending() const { return pendingCount; }

    /** High-water mark of pending() over the queue's lifetime. */
    std::size_t peakPending() const { return peakPendingCount; }

    /**
     * Run until no events remain (or @p max_events fired, as a
     * runaway guard). Returns the number of events executed.
     *
     * Hitting the guard with events still pending marks the queue
     * truncated() -- a truncated run never converged and its results
     * must not be reported as if it had (see sim::MachineReport).
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /**
     * True once any run() stopped at the event cap with events still
     * pending. Sticky: a later (complete) run does not clear it, so
     * end-of-run reporting always sees the truncation.
     */
    bool truncated() const { return truncatedRuns > 0; }

    /**
     * Cooperative cancellation budget: cap the *total* number of
     * events executed across every run() call on this queue. Once
     * @p total_events have fired, every subsequent run() returns
     * immediately, so a caller that drives the queue in slices (the
     * runtime layers, the adaptive round loop) stops at the first
     * checkpoint past the budget no matter which slice it lands in.
     * Hitting the budget with events pending marks the queue
     * truncated() exactly like the max_events guard, but quietly:
     * a deadline-induced cut is the planning service's degradation
     * ladder working as designed, not a runaway simulation.
     * 0 restores the default (unlimited).
     */
    void setEventBudget(std::uint64_t total_events)
    {
        eventBudget = total_events == 0 ? UINT64_MAX : total_events;
    }

    /** Total events executed over the queue's lifetime. */
    std::uint64_t eventsExecuted() const { return executedTotal; }

    /** True once a run() stopped because setEventBudget() ran out. */
    bool budgetExhausted() const
    {
        return executedTotal >= eventBudget;
    }

    // Pool introspection (tests and memory-regression gates).

    /** Slabs allocated so far; stays flat once the peak is reached. */
    std::size_t poolSlabs() const { return slabs.size(); }

    /** Recycled nodes currently on the free list. */
    std::size_t poolFree() const { return freeCount; }

    /** Events each slab holds. */
    static constexpr std::size_t slabEvents() { return kSlabEvents; }

    /** Callback bytes stored inline (larger callables go boxed). */
    static constexpr std::size_t inlineCallbackBytes()
    {
        return kInlineCallbackBytes;
    }

  private:
    template <typename F>
    using decayed = std::decay_t<F>;

    static constexpr std::size_t kInlineCallbackBytes = 128;
    static constexpr std::size_t kSlabEvents = 256;

    /**
     * One pooled event. `child`/`sibling` are the intrusive pairing-
     * heap links; `sibling` doubles as the free-list link between
     * uses. The callback lives in `storage` (inline when it fits,
     * otherwise a single boxed pointer).
     */
    struct EventNode
    {
        Cycles when = 0;
        std::uint64_t seq = 0;
        EventNode *child = nullptr;
        EventNode *sibling = nullptr;
        /** Tombstone: discarded at its slot without running and
         *  without advancing the clock (see Timer). */
        bool cancelled = false;
        void (*invoke)(EventNode &) = nullptr;
        /** Null for trivially destructible callbacks. */
        void (*destroy)(EventNode &) = nullptr;
        alignas(std::max_align_t)
            unsigned char storage[kInlineCallbackBytes];
    };

    template <typename D>
    static constexpr bool
    storesInline()
    {
        return sizeof(D) <= kInlineCallbackBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    /** Move @p fn into @p node's storage and set its vtable slots. */
    template <typename F>
    static void
    emplaceCallback(EventNode &node, F &&fn)
    {
        using D = decayed<F>;
        if constexpr (storesInline<D>()) {
            ::new (static_cast<void *>(node.storage))
                D(std::forward<F>(fn));
            node.invoke = [](EventNode &n) {
                (*std::launder(reinterpret_cast<D *>(n.storage)))();
            };
            if constexpr (std::is_trivially_destructible_v<D>)
                node.destroy = nullptr;
            else
                node.destroy = [](EventNode &n) {
                    std::launder(reinterpret_cast<D *>(n.storage))
                        ->~D();
                };
        } else {
            // Oversized callback: box it. The node still recycles
            // through the slab pool; only the callable itself is a
            // heap object.
            ::new (static_cast<void *>(node.storage))
                D *(new D(std::forward<F>(fn)));
            node.invoke = [](EventNode &n) {
                (**std::launder(reinterpret_cast<D **>(n.storage)))();
            };
            node.destroy = [](EventNode &n) {
                delete *std::launder(
                    reinterpret_cast<D **>(n.storage));
            };
        }
    }

    static bool
    before(const EventNode &a, const EventNode &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    static EventNode *meld(EventNode *a, EventNode *b);
    static EventNode *mergePairs(EventNode *first);

    /** fatal() helpers kept out of the header's template bodies. */
    void checkSchedule(Cycles when) const;
    [[noreturn]] static void nullCallback();

    /** Take a node from the free list / slab, stamped (when, seq). */
    EventNode *acquire(Cycles when);
    /** Link an initialized node into the pending heap. */
    void push(EventNode *node);
    /** Unlink and return the earliest pending node. */
    EventNode *popMin();
    /** Destroy the node's callback and recycle it. */
    void release(EventNode *node);
    EventNode *root = nullptr;
    EventNode *freeList = nullptr;
    std::vector<std::unique_ptr<EventNode[]>> slabs;
    /** Nodes handed out of the newest slab so far. */
    std::size_t slabUsed = kSlabEvents;
    std::size_t freeCount = 0;
    std::size_t pendingCount = 0;
    std::size_t peakPendingCount = 0;
    std::uint64_t truncatedRuns = 0;
    std::uint64_t eventBudget = UINT64_MAX;
    std::uint64_t executedTotal = 0;
    Cycles currentTime = 0;
    std::uint64_t nextSeq = 0;
};

inline bool
EventQueue::Timer::armed() const
{
    return node && node->seq == seq && !node->cancelled;
}

inline void
EventQueue::Timer::cancel()
{
    if (node && node->seq == seq)
        node->cancelled = true;
}

} // namespace ct::sim

#endif // CT_SIM_EVENT_H
