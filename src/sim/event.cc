#include "event.h"

#include "util/logging.h"

namespace ct::sim {

EventQueue::~EventQueue()
{
    // Destroy the callbacks of events that never fired. The nodes
    // themselves are slab storage and die with `slabs`.
    std::vector<EventNode *> stack;
    if (root)
        stack.push_back(root);
    while (!stack.empty()) {
        EventNode *node = stack.back();
        stack.pop_back();
        if (node->child)
            stack.push_back(node->child);
        if (node->sibling)
            stack.push_back(node->sibling);
        if (node->destroy)
            node->destroy(*node);
    }
}

void
EventQueue::checkSchedule(Cycles when) const
{
    if (when < currentTime)
        util::fatal("EventQueue::schedule: time ", when,
                    " is in the past (now ", currentTime, ")");
}

void
EventQueue::nullCallback()
{
    util::fatal("EventQueue::schedule: null callback");
}

EventQueue::EventNode *
EventQueue::meld(EventNode *a, EventNode *b)
{
    if (before(*b, *a))
        std::swap(a, b);
    b->sibling = a->child;
    a->child = b;
    return a;
}

EventQueue::EventNode *
EventQueue::mergePairs(EventNode *first)
{
    // Standard two-pass pairing-heap merge, kept iterative so a root
    // with O(pending) children cannot overflow the stack. The pop
    // order is the unique (when, seq) minimum either way, so the
    // merge shape never affects determinism.
    EventNode *pairs = nullptr;
    while (first) {
        EventNode *a = first;
        EventNode *b = a->sibling;
        first = b ? b->sibling : nullptr;
        a->sibling = nullptr;
        EventNode *merged = a;
        if (b) {
            b->sibling = nullptr;
            merged = meld(a, b);
        }
        merged->sibling = pairs;
        pairs = merged;
    }
    EventNode *result = nullptr;
    while (pairs) {
        EventNode *next = pairs->sibling;
        pairs->sibling = nullptr;
        result = result ? meld(result, pairs) : pairs;
        pairs = next;
    }
    return result;
}

EventQueue::EventNode *
EventQueue::acquire(Cycles when)
{
    EventNode *node;
    if (freeList) {
        node = freeList;
        freeList = node->sibling;
        --freeCount;
    } else {
        if (slabUsed == kSlabEvents) {
            slabs.push_back(std::make_unique<EventNode[]>(kSlabEvents));
            slabUsed = 0;
        }
        node = &slabs.back()[slabUsed++];
    }
    node->when = when;
    node->seq = nextSeq++;
    node->child = nullptr;
    node->sibling = nullptr;
    node->cancelled = false;
    return node;
}

void
EventQueue::push(EventNode *node)
{
    root = root ? meld(root, node) : node;
    ++pendingCount;
    if (pendingCount > peakPendingCount)
        peakPendingCount = pendingCount;
}

EventQueue::EventNode *
EventQueue::popMin()
{
    EventNode *top = root;
    root = mergePairs(top->child);
    top->child = nullptr;
    top->sibling = nullptr;
    --pendingCount;
    return top;
}

void
EventQueue::release(EventNode *node)
{
    if (node->destroy)
        node->destroy(*node);
    node->invoke = nullptr;
    node->destroy = nullptr;
    // Re-stamp so any Timer handle to the retired event disarms the
    // moment it fires or is discarded, not just on node reuse.
    node->seq = nextSeq++;
    node->sibling = freeList;
    freeList = node;
    ++freeCount;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t executed = 0;
    while (root && executed < max_events &&
           executedTotal < eventBudget) {
        EventNode *node = popMin();
        if (node->cancelled) {
            // Tombstone: a cancelled event never happens, so it must
            // not advance the clock -- otherwise an acknowledged
            // retransmit timer would still stretch the run's tail.
            release(node);
            continue;
        }
        currentTime = node->when;
        // The node stays off both the heap and the free list while
        // its callback runs, so events it schedules can never reuse
        // the storage under it.
        node->invoke(*node);
        release(node);
        ++executed;
        ++executedTotal;
    }
    if (root) {
        ++truncatedRuns;
        // A cooperative-budget cut is requested behavior (the caller
        // degrades the answer); only an unasked-for max_events stop
        // deserves the loud runaway warning.
        if (executedTotal < eventBudget)
            util::warn("EventQueue::run: stopped at event cap with ",
                       pendingCount,
                       " events pending; the run is TRUNCATED, not "
                       "converged");
    }
    return executed;
}

} // namespace ct::sim
