#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

/** Innermost ScopedSpan open on this thread (-1 = none). */
thread_local std::int64_t currentSpan = -1;

std::string
escaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (std::size_t c : children[i]) {
            std::int64_t a = std::max(spans[c].startNs, s.startNs);
            std::int64_t b = std::min(spans[c].endNs, s.endNs);
            if (a < b)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (auto [a, b] : cover) {
            a = std::max(a, reach);
            if (a < b) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, NameTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        NameTotals &t = totals[spans[i].name];
        t.selfNs += self[i];
        t.totalNs += spans[i].endNs - spans[i].startNs;
        ++t.calls;
    }
    return totals;
}

std::size_t
selfSumMismatches(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self = selfTimes(spans);
    // Parents are always recorded before their children, so one
    // forward pass resolves every span to its root.
    std::vector<std::int64_t> root(spans.size());
    std::vector<std::int64_t> sum(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::int64_t p = spans[i].parent;
        root[i] = p < 0 ? static_cast<std::int64_t>(i)
                        : root[static_cast<std::size_t>(p)];
        sum[static_cast<std::size_t>(root[i])] += self[i];
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent < 0 &&
            sum[i] != spans[i].endNs - spans[i].startNs)
            ++bad;
    return bad;
}

std::int64_t
SpanLog::open(const std::string &name, std::uint64_t op,
              std::int64_t parent)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(s));
    return static_cast<std::int64_t>(spans.size()) - 1;
}

void
SpanLog::close(std::int64_t index)
{
    std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<std::size_t>(index)].endNs = end;
}

std::int64_t
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(span));
    return static_cast<std::int64_t>(spans.size()) - 1;
}

std::vector<Span>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans;
}

void
SpanLog::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    for (const Span &s : snapshot())
        out << "{\"name\":\"" << escaped(s.name)
            << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << "}\n";
}

ScopedSpan::ScopedSpan(SpanLog *log, const char *name, std::uint64_t op)
    : log(log)
{
    if (!log)
        return;
    outer = currentSpan;
    index = log->open(name, op, outer);
    currentSpan = index;
}

ScopedSpan::~ScopedSpan()
{
    if (!log)
        return;
    log->close(index);
    currentSpan = outer;
}

} // namespace perfbench
