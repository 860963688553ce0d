/**
 * @file
 * Digest of a workload's simulated outputs: CRC32C over the per-op
 * values (sim MB/s, model MB/s, makespan, corrupt words) in canonical
 * op order. A change that only touches host speed must leave it
 * unchanged.
 */
#ifndef PERFBENCH_DIGEST_H
#define PERFBENCH_DIGEST_H

#include <cstdint>
#include <string>

namespace perfbench {

/** The simulated outputs of one op. */
struct SimValues
{
    double simMBps = 0.0;
    double modelMBps = 0.0;
    std::uint64_t makespanCycles = 0;
    std::uint64_t corruptWords = 0;
};

class Digest
{
  public:
    void add(const SimValues &v);
    std::uint32_t value() const;
    /** Eight lowercase hex digits. */
    std::string hex() const;

  private:
    std::uint32_t state = 0xFFFFFFFFu;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_H
