#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail
tailPercentile(std::vector<double> samples, std::size_t beyond)
{
    Tail tail;
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    if (n <= beyond) {
        tail.value = samples.back();
        tail.percentile = 100.0;
        return tail;
    }
    tail.value = samples[n - beyond - 1];
    tail.percentile =
        100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
    tail.beyond = beyond;
    return tail;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace perfbench
