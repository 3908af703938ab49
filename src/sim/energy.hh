/**
 * @file
 * DRAM energy model following the Micron power-calculator methodology
 * (paper Section 5): per-operation energies derived from datasheet IDD
 * currents, plus state-dependent background power. Reported, like the
 * paper's Figure 14, as energy per serviced memory access.
 *
 * The IDD/vdd sets live on the DramSpec (dram/spec.hh), so each
 * registered backend carries its own parameters; the runner resolves
 * them from the selected spec. A per-bank refresh draws a fraction of
 * an all-bank refresh's current given by the spec's refresh geometry
 * (EnergyParams::refPbCurrentDivisor, Section 4.3.3) -- native-REFpb
 * parts derive it from their per-bank tRFC table -- and a same-bank
 * slice (DDR5 REFsb) likewise via refSbCurrentDivisor.
 *
 * Self-refresh: SRE/SRX residency (ChannelStats::srTicks, the
 * refresh.selfRefresh.idleEntry protocol) is billed at the spec's
 * IDD6.
 */

#ifndef DSARP_SIM_ENERGY_HH
#define DSARP_SIM_ENERGY_HH

#include "dram/channel.hh"
#include "dram/spec.hh"
#include "dram/timing.hh"

namespace dsarp {

/** Energy in nanojoules, broken down by source. */
struct EnergyBreakdown
{
    double activateNj = 0.0;
    double readNj = 0.0;
    double writeNj = 0.0;
    double refreshNj = 0.0;
    double backgroundNj = 0.0;

    double
    totalNj() const
    {
        return activateNj + readNj + writeNj + refreshNj + backgroundNj;
    }
};

/** Energy consumed by one channel over its counted window. */
EnergyBreakdown channelEnergy(const ChannelStats &stats,
                              const TimingParams &timing,
                              const EnergyParams &params);

/** Energy per serviced access (reads + writes) in nJ; 0 if no accesses. */
double energyPerAccessNj(const ChannelStats &stats,
                         const TimingParams &timing,
                         const EnergyParams &params);

} // namespace dsarp

#endif // DSARP_SIM_ENERGY_HH
