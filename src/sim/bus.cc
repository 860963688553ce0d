#include "bus.h"

#include <bit>

#include "util/logging.h"

namespace ct::sim {

Bus::Bus(const BusConfig &config) : cfg(config)
{
    if (isPowerOfTwo(cfg.bytesPerCycle))
        widthShift = std::countr_zero(cfg.bytesPerCycle);
}

void
Bus::zeroByteTransaction()
{
    util::fatal("Bus::transact: zero-byte transaction");
}

} // namespace ct::sim
