#include "sim/energy.hh"

namespace dsarp {

EnergyBreakdown
channelEnergy(const ChannelStats &stats, const TimingParams &timing,
              const EnergyParams &p)
{
    EnergyBreakdown e;
    // mA * V * ns = pJ; divide by 1000 for nJ.
    const double tck = timing.tCkNs.ns();
    const double to_nj = 1e-3;

    // Cycle counts as doubles for the current-time products.
    const double t_rc = static_cast<double>(timing.tRc.count());
    const double t_ras = static_cast<double>(timing.tRas.count());
    const double t_bl = static_cast<double>(timing.tBl.count());

    // Activate/precharge energy: IDD0 covers a full tRC cycle including
    // the background component, which is subtracted to avoid double
    // counting (Micron TN-41-01 formulation).
    const double act_one = p.vdd *
        (p.idd0 * t_rc - (p.idd3n * t_ras + p.idd2n * (t_rc - t_ras))) *
        tck * to_nj;
    e.activateNj = act_one * static_cast<double>(stats.acts);

    const double rd_one =
        p.vdd * (p.idd4r - p.idd3n) * t_bl * tck * to_nj;
    const double wr_one =
        p.vdd * (p.idd4w - p.idd3n) * t_bl * tck * to_nj;
    e.readNj = rd_one * static_cast<double>(stats.reads);
    e.writeNj = wr_one * static_cast<double>(stats.writes);

    // Refresh: all-bank commands draw IDD5B; a per-bank refresh draws a
    // spec-geometry fraction of that above background (Section 4.3.3) --
    // the divisor comes from the spec's per-bank tRFC table, not from
    // whatever banksPerRank the config happens to use.
    const double ref_cur = p.vdd * (p.idd5b - p.idd3n) * tck * to_nj;
    e.refreshNj =
        ref_cur * static_cast<double>(stats.refAbCycles) +
        ref_cur / p.refPbCurrentDivisor *
            static_cast<double>(stats.refPbCycles) +
        // Same-bank slices: the divisor is derived per resolved
        // geometry/density (timing), not static spec data.
        ref_cur / timing.refSbEnergyDivisor *
            static_cast<double>(stats.refSbCycles);

    // Background: active standby while any bank is open or refreshing;
    // IDD6 for self-refresh residency (srTicks, the SRE/SRX protocol);
    // precharge standby otherwise.
    const double sref_ticks = static_cast<double>(stats.srTicks);
    const double idle_ticks = static_cast<double>(
        stats.rankTotalTicks - stats.rankActiveTicks) - sref_ticks;
    e.backgroundNj = p.vdd *
        (p.idd3n * static_cast<double>(stats.rankActiveTicks) +
         p.idd2n * idle_ticks + p.idd6 * sref_ticks) *
        tck * to_nj;
    return e;
}

double
energyPerAccessNj(const ChannelStats &stats, const TimingParams &timing,
                  const EnergyParams &params)
{
    const double accesses =
        static_cast<double>(stats.reads + stats.writes);
    if (accesses <= 0.0)
        return 0.0;
    return channelEnergy(stats, timing, params).totalNj() / accesses;
}

} // namespace dsarp
