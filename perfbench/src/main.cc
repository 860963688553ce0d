/**
 * @file
 * perfbench: run one workload and print its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--threads N]
 *
 * Prints notes (digest, tail percentile, ladder, failures), then as
 * the last line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer ones. Exits 1 when any op or check failed, 2 on bad
 * arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

namespace {

std::int64_t processStartNs = 0;

/** Runs before the libraries' static initialisers (priority 101). */
__attribute__((constructor(101))) void
markProcessStart()
{
    processStartNs = perfbench::nowNs();
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--threads N]\n"
              << "workloads:";
    for (const std::string &w : perfbench::workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t main_ns = perfbench::nowNs();
    perfbench::Options o;
    o.staticInitS = static_cast<double>(main_ns - processStartNs) * 1e-9;
    o.threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(flag + " requires a value");
        const std::string value = argv[++i];
        double num = 0.0;
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--trace-out") {
            o.traceOut = value;
        } else if (!parseNumber(value, num) || num < 0) {
            return usage("bad value for " + flag + ": '" + value + "'");
        } else if (flag == "--seed") {
            o.seed = static_cast<std::uint64_t>(num);
            have_seed = true;
        } else if (flag == "--seconds") {
            o.seconds = num;
            have_seconds = num > 0;
        } else if (flag == "--trace") {
            if (num != 0 && num != 1)
                return usage("--trace takes 0 or 1");
            o.trace = num == 1;
            have_trace = true;
        } else if (flag == "--threads") {
            o.threads = std::max(1, static_cast<int>(num));
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string &w : perfbench::workloadNames())
        known |= w == o.workload;
    if (!known)
        return usage("unknown workload '" + o.workload + "'");

    const perfbench::Outcome out = perfbench::runWorkload(o);

    for (const std::string &note : out.notes)
        std::cout << note << "\n";
    for (const perfbench::Metric &m : out.metrics)
        std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
    std::cout.precision(17);
    std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const perfbench::Metric &m = out.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return out.failed == 0 ? 0 : 1;
}
