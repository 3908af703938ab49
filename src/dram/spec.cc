#include "dram/spec.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "sim/config_keys.hh"

namespace dsarp {

int
densityIndex(Density d)
{
    switch (d) {
      case Density::k8Gb: return 0;
      case Density::k16Gb: return 1;
      case Density::k32Gb: return 2;
    }
    DSARP_PANIC("unknown density");
}

TimingParams
DramSpec::timingFor(const MemConfig &cfg) const
{
    TimingParams t;
    t.spec = name;
    t.tCkNs = tCkNs;
    t.tCl = tCl;
    t.tCwl = tCwl;
    t.tRcd = tRcd;
    t.tRp = tRp;
    t.tRas = tRas;
    t.tRc = tRc;
    t.tBl = tBl;
    t.tCcd = tCcd;
    t.tRtp = tRtp;
    t.tWr = tWr;
    t.tWtr = tWtr;
    t.tRrd = tRrd;
    t.tFaw = tFaw;
    t.tRtrs = tRtrs;

    // Derived, never stored per spec: the read-to-write gap covers the
    // read burst plus the bus turnaround before the write preamble.
    t.tRtw = tCl + tBl + Cycles(2) - tCwl;
    DSARP_ASSERT(t.tRtw > 0, "derived tRtw must be positive");

    t.refreshesPerRetention = refreshesPerRetention;
    t.fgrDivisor2x = fgrDivisor2x;
    t.fgrDivisor4x = fgrDivisor4x;

    // HiRA: the spec's characterized delay/coverage figures, with the
    // layered refresh.hiraDelay / refresh.hiraCoverage overrides on top.
    t.tHiRA = cfg.hiraDelayCycles > 0
        ? Cycles(cfg.hiraDelayCycles)
        : TimingParams::nsToCycles(tHiRANs, t.tCkNs);
    t.hiraActCoverage =
        cfg.hiraCoverage >= 0.0 ? cfg.hiraCoverage : hiraActCoverage;
    t.hiraRefCoverage = hiraRefCoverage;

    // Retention: refreshesPerRetention slots spread over the period.
    const Nanoseconds retentionNs{cfg.retentionMs * 1e6};
    Nanoseconds tRefiAbNs = retentionNs / refreshesPerRetention;

    Nanoseconds tRfcAbNs = tRfcAbNsFor(cfg.density);
    Nanoseconds tRfcPbNative = nativePerBankRefresh
        ? tRfcPbNs[densityIndex(cfg.density)]
        : Nanoseconds{};
    Nanoseconds tRfcSbNsVal = banksPerGroup > 0
        ? tRfcSbNs[densityIndex(cfg.density)]
        : Nanoseconds{};

    // Fine granularity refresh: the command rate rises by 2x/4x while
    // tRFC shrinks only by the spec's divisors (Section 6.5; native
    // tRFC2/tRFC4 ratios on DDR4). The explicit refresh.fgrRate key
    // generalizes the rate axis beyond the FGR2x/FGR4x profiles, so
    // per-bank mechanisms (HiRA, DARP) can run on FGR-scaled timing.
    int rate = 1;
    if (cfg.refresh == RefreshMode::kFgr2x)
        rate = 2;
    else if (cfg.refresh == RefreshMode::kFgr4x)
        rate = 4;
    if (cfg.fgrRate > 0)
        rate = cfg.fgrRate;
    if (rate > 1) {
        const double divisor = t.rfcDivisorFor(rate);
        tRefiAbNs = tRefiAbNs / rate;
        tRfcAbNs = tRfcAbNs / divisor;
        tRfcPbNative = tRfcPbNative / divisor;
        tRfcSbNsVal = tRfcSbNsVal / divisor;
    }
    const Nanoseconds tRfcPbNsVal = nativePerBankRefresh
        ? tRfcPbNative
        : tRfcAbNs / pbRfcDivisor;

    t.tRefiAb = TimingParams::nsToCyclesFloor(tRefiAbNs, t.tCkNs);
    t.tRfcAb = TimingParams::nsToCycles(tRfcAbNs, t.tCkNs);

    // Self-refresh protocol: the exit latency tracks the *active*
    // all-bank refresh latency (tRfcAbNs is already FGR-scaled here,
    // so FGR modes get their shorter exit -- DDR5's tXS_FGR
    // semantics); tXsFgr reports the data-sheet figure at the native
    // 2x granularity regardless of the selected rate. tCKESR is the
    // minimum residency, never below one cycle.
    t.tXs = TimingParams::nsToCycles(tRfcAbNs + tXsDeltaNs, t.tCkNs);
    t.tXsFgr = TimingParams::nsToCycles(
        tRfcAbNsFor(cfg.density) / fgrDivisor2x + tXsDeltaNs, t.tCkNs);
    t.tCkesr = std::max(Cycles(1),
                        TimingParams::nsToCycles(tCkesrNs, t.tCkNs));

    // Per-bank refresh: tREFIpb = tREFIab / banks; tRFCpb from the
    // native LPDDR table when the device has first-class REFpb,
    // otherwise the LPDDR2-derived tRFCab ratio (Section 3.1).
    t.tRefiPb = t.tRefiAb / cfg.org.banksPerRank;
    t.tRfcPb = TimingParams::nsToCycles(tRfcPbNsVal, t.tCkNs);

    // Same-bank refresh (DDR5 REFsb): one command refreshes a whole
    // bank-group slice, so a slice command is due every tREFIab /
    // (banks / slice size). The latency is the device's tRFCsb --
    // held at the data-sheet value even for re-sliced what-if
    // geometries (a conservative simplification). All three fields
    // stay zero on specs without same-bank refresh.
    if (banksPerGroup > 0) {
        const int slice = cfg.sameBankGroupSize > 0
            ? cfg.sameBankGroupSize
            : banksPerGroup;
        if (cfg.org.banksPerRank % slice == 0) {
            const int groups = cfg.org.banksPerRank / slice;
            t.banksPerGroup = slice;
            t.tRefiSb = t.tRefiAb / groups;
            t.tRfcSb = TimingParams::nsToCycles(tRfcSbNsVal, t.tCkNs);
            // Energy geometry at the resolved organization/density: a
            // full sweep of `groups` slice commands costs one REFab's
            // charge (FGR scales tRFCsb and tRFCab together, so the
            // ratio is rate-invariant).
            t.refSbEnergyDivisor =
                groups * (tRfcSbNs[densityIndex(cfg.density)] /
                          tRfcAbNsFor(cfg.density));
        }
    }

    // Each refresh command covers rowsPerBank/refreshesPerRetention
    // rows per bank, scaled by the FGR rate (more frequent commands
    // refresh fewer rows). Retention length does not change the
    // per-command row count, only the command spacing.
    t.rowsPerRefresh = cfg.org.rowsPerBank / refreshesPerRetention;
    if (rate > 1)
        t.rowsPerRefresh = std::max(1, t.rowsPerRefresh / rate);
    if (t.rowsPerRefresh < 1)
        t.rowsPerRefresh = 1;

    if (cfg.tFawOverride > 0)
        t.tFaw = Cycles(cfg.tFawOverride);
    if (cfg.tRrdOverride > 0)
        t.tRrd = Cycles(cfg.tRrdOverride);

    // Per-bank refresh must fit inside its command interval; FGR modes
    // never issue REFpb, so the constraint only binds when REFpb is
    // used.
    if (cfg.refresh == RefreshMode::kPerBank ||
        cfg.refresh == RefreshMode::kDarp) {
        if (t.tRefiPb <= t.tRfcPb) {
            DSARP_FATALF(
                "config key '%s'/'%s': per-bank refresh does not fit its "
                "command interval on spec '%s' (tREFIpb %lld <= tRFCpb "
                "%lld cycles at %s, FGR rate %dx); lower the rate or the "
                "density",
                keys::kFgrRate, keys::kDensityGb, name.c_str(),
                static_cast<long long>(t.tRefiPb.count()),
                static_cast<long long>(t.tRfcPb.count()),
                densityName(cfg.density), rate);
        }
    }
    if (cfg.refresh == RefreshMode::kSameBank) {
        DSARP_ASSERT(t.banksPerGroup > 0,
                     "same-bank refresh needs a spec with bank-group "
                     "support (and a slice that divides banksPerRank)");
        DSARP_ASSERT(t.tRefiSb > t.tRfcSb, "tREFIsb must exceed tRFCsb");
    }
    return t;
}

} // namespace dsarp
