/**
 * @file
 * The three workloads and the run driver around them: set-up
 * timing, the timed phase (tracing off), the paper-error pass after
 * it, the traced run that gives the per-layer split, and the
 * correctness checks that count into "failed".
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines). */
    std::string traceOut;
    /** Host cores: grid-validate's farm size, serve-mix's + 1. */
    int threads = 1;
    /** Process start to main(): static initialisation. */
    double staticInitS = 0.0;
    /** Set-up repetitions; setup_s reports their median. */
    int setupRepeats = 5;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Untraced run: the end-to-end metrics. Traced run: per-layer. */
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** When the (last) timed phase ended, steady-clock ns. */
    std::int64_t timedEndNs = 0;
};

/** Worst |measured - paper| / paper over Tables 1-4, in percent. */
double paperErrMaxPct();

/**
 * Run one workload. @p paper_err is called once, after the timed
 * phase (untraced runs only); tests substitute a recorder.
 */
Outcome runWorkload(const Options &options,
                    const std::function<double()> &paper_err =
                        paperErrMaxPct);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
