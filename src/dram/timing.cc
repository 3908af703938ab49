#include "dram/timing.hh"

#include <cmath>

#include "common/log.hh"
#include "dram/spec.hh"

namespace dsarp {

Cycles
TimingParams::nsToCycles(Nanoseconds ns, Nanoseconds tCk)
{
    return Cycles(static_cast<std::int64_t>(std::ceil(ns / tCk - 1e-9)));
}

Cycles
TimingParams::nsToCyclesFloor(Nanoseconds ns, Nanoseconds tCk)
{
    return Cycles(static_cast<std::int64_t>(ns / tCk));
}

double
TimingParams::rfcDivisorFor(int rateMultiplier) const
{
    switch (rateMultiplier) {
      case 1: return 1.0;
      case 2: return fgrDivisor2x;
      case 4: return fgrDivisor4x;
    }
    DSARP_PANIC("unsupported FGR rate");
}

TimingParams
TimingParams::forConfig(const MemConfig &cfg)
{
    return DramSpecRegistry::instance().at(cfg.dramSpec).timingFor(cfg);
}

} // namespace dsarp
