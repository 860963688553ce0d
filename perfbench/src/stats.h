/**
 * @file
 * Order statistics the benchmark reports: medians, the tail
 * percentile rule and geometric means.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count); 0 when
 *  @p samples is empty. */
double median(std::vector<double> samples);

/** The tail a latency distribution is reported at. */
struct Tail
{
    double value = 0.0;
    /** Percentile of @c value, e.g. 99.0. */
    double percentile = 0.0;
    /** Samples ranked strictly after @c value. */
    std::size_t beyond = 0;
};

/** Samples the tail percentile must leave beyond it. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * The highest percentile that has at least @p beyond samples ranked
 * after it: with n sorted samples, the value at rank n - beyond - 1
 * (0-based), reported as percentile 100 * (n - beyond) / n. With n <=
 * @p beyond no percentile qualifies; the maximum is returned with
 * percentile 100 and the true (smaller) count beyond, 0.
 */
Tail tailPercentile(std::vector<double> samples,
                    std::size_t beyond = kTailBeyond);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &values);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
