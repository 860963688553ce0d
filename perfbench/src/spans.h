/**
 * @file
 * In-memory span recording for the traced run. A span is one call
 * the benchmark makes into a module's public function: its name,
 * host start and end (steady-clock ns), the span that caused it and
 * the op it belongs to. Spans stay in memory and are written out when
 * the run ends; self times are derived afterwards.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds (the span time base). */
std::int64_t nowNs();

/** One recorded span. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span, -1 for a root. */
    std::int64_t parent = -1;
    std::uint64_t op = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover. Children may overlap each other
 * (parallel work under one parent); the covered part is the union of
 * their intervals clipped to the parent's, so overlap is never
 * subtracted twice.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Self-time totals and call counts per span name. */
struct NameTotals
{
    std::int64_t selfNs = 0;
    std::int64_t totalNs = 0;
    std::uint64_t calls = 0;
};
std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans);

/**
 * Check that, for every root span, the self times of the root and all
 * its descendants sum to the root's duration. Holds when children
 * nest inside their parents without overlapping siblings, which is
 * how the benchmark's own call sequences record them. Returns the
 * number of roots that fail.
 */
std::size_t selfSumMismatches(const std::vector<Span> &spans);

/**
 * Thread-safe span log. open() stamps the start and returns the span's
 * index; close() stamps the end. Nesting on one thread is tracked, so
 * a span opened while another is open on the same thread becomes its
 * child unless a parent is given.
 */
class SpanLog
{
  public:
    std::int64_t open(const std::string &name, std::uint64_t op,
                      std::int64_t parent);
    void close(std::int64_t index);
    /** Record a finished span with explicit times. */
    std::int64_t add(Span span);

    std::vector<Span> snapshot() const;
    /** One JSON object per span, one per line. */
    void writeJsonLines(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/**
 * RAII span on @p log (no-op when @p log is null, so traced and
 * untraced runs share one call sequence). The span's parent is the
 * innermost ScopedSpan open on this thread.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint64_t op);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log;
    std::int64_t index = -1;
    std::int64_t outer = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
