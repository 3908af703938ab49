/**
 * @file
 * Unit tests for the IDD-based energy model: the DDR3-1333 golden
 * values (pinned to the pre-spec-registry numbers), linearity and
 * positivity invariants, the spec-geometry per-bank refresh divisor,
 * and per-spec invariants over every registered backend (vdd ordering,
 * LPDDR4 cheaper than DDR3 per access).
 */

#include <gtest/gtest.h>

#include "dram/spec.hh"
#include "sim/energy.hh"

using namespace dsarp;

namespace {

TimingParams
timing()
{
    MemConfig cfg;
    cfg.finalize();
    return TimingParams::forConfig(cfg);
}

/** Timing + energy set of a registered spec at the default org. */
std::pair<TimingParams, EnergyParams>
specParams(const std::string &name)
{
    MemConfig cfg;
    cfg.dramSpec = name;
    cfg.finalize();
    const DramSpec &spec = DramSpecRegistry::instance().at(name);
    return {spec.timingFor(cfg), spec.energy};
}

/** A representative counted window, identical across specs. */
ChannelStats
goldenStats(const TimingParams &t)
{
    ChannelStats stats;
    stats.acts = 1000;
    stats.reads = 800;
    stats.writes = 200;
    stats.refAb = 40;
    stats.refAbCycles = 40ULL * static_cast<std::uint64_t>(t.tRfcAb.count());
    stats.refPb = 320;
    stats.refPbCycles =
        320ULL * static_cast<std::uint64_t>(t.tRfcPb.count());
    stats.rankActiveTicks = 500000;
    stats.rankTotalTicks = 2000000;
    return stats;
}

} // namespace

TEST(Energy, ZeroStatsZeroEnergy)
{
    ChannelStats stats;
    const EnergyBreakdown e =
        channelEnergy(stats, timing(), EnergyParams::micron8GbDdr3());
    EXPECT_DOUBLE_EQ(e.totalNj(), 0.0);
}

TEST(Energy, Ddr3GoldenValuesUnchanged)
{
    // Golden pin: these literals were produced by the pre-change model
    // (hard-coded Micron 8 Gb DDR3 parameters, division by the config's
    // 8 banks/rank). Moving EnergyParams onto the spec must reproduce
    // DDR3-1333 bit-identically.
    const auto [t, p] = specParams("DDR3-1333");
    const ChannelStats stats = goldenStats(t);
    const EnergyBreakdown e = channelEnergy(stats, t, p);
    EXPECT_NEAR(e.activateNj, 3773.25, 1e-9);
    EXPECT_NEAR(e.readNj, 972.0, 1e-9);
    EXPECT_NEAR(e.writeNj, 252.0, 1e-9);
    EXPECT_NEAR(e.refreshNj, 5140.8, 1e-9);
    EXPECT_NEAR(e.backgroundNj, 192375.0, 1e-9);
    EXPECT_NEAR(e.totalNj(), 202513.05, 1e-8);
    EXPECT_NEAR(energyPerAccessNj(stats, t, p), 202.51305, 1e-9);
}

TEST(Energy, SpecEnergyMatchesLegacyDefaults)
{
    // The registered DDR3-1333 energy set IS the legacy micron set.
    const EnergyParams legacy = EnergyParams::micron8GbDdr3();
    const EnergyParams spec =
        DramSpecRegistry::instance().at("DDR3-1333").energy;
    EXPECT_DOUBLE_EQ(spec.vdd, legacy.vdd);
    EXPECT_DOUBLE_EQ(spec.idd0, legacy.idd0);
    EXPECT_DOUBLE_EQ(spec.idd2n, legacy.idd2n);
    EXPECT_DOUBLE_EQ(spec.idd3n, legacy.idd3n);
    EXPECT_DOUBLE_EQ(spec.idd4r, legacy.idd4r);
    EXPECT_DOUBLE_EQ(spec.idd4w, legacy.idd4w);
    EXPECT_DOUBLE_EQ(spec.idd5b, legacy.idd5b);
    EXPECT_DOUBLE_EQ(spec.refPbCurrentDivisor,
                     legacy.refPbCurrentDivisor);
}

TEST(Energy, ComponentsScaleLinearlyWithCounts)
{
    const TimingParams t = timing();
    const EnergyParams p = EnergyParams::micron8GbDdr3();
    ChannelStats one;
    one.acts = 1;
    one.reads = 1;
    one.writes = 1;
    ChannelStats ten;
    ten.acts = 10;
    ten.reads = 10;
    ten.writes = 10;
    const EnergyBreakdown e1 = channelEnergy(one, t, p);
    const EnergyBreakdown e10 = channelEnergy(ten, t, p);
    EXPECT_NEAR(e10.activateNj, 10 * e1.activateNj, 1e-9);
    EXPECT_NEAR(e10.readNj, 10 * e1.readNj, 1e-9);
    EXPECT_NEAR(e10.writeNj, 10 * e1.writeNj, 1e-9);
}

TEST(Energy, AllComponentsPositive)
{
    const TimingParams t = timing();
    ChannelStats stats;
    stats.acts = 100;
    stats.reads = 80;
    stats.writes = 20;
    stats.refAb = 4;
    stats.refAbCycles = 4ULL * static_cast<std::uint64_t>(t.tRfcAb.count());
    stats.refPb = 8;
    stats.refPbCycles = 8ULL * static_cast<std::uint64_t>(t.tRfcPb.count());
    stats.rankActiveTicks = 5000;
    stats.rankTotalTicks = 20000;
    const EnergyBreakdown e =
        channelEnergy(stats, t, EnergyParams::micron8GbDdr3());
    EXPECT_GT(e.activateNj, 0.0);
    EXPECT_GT(e.readNj, 0.0);
    EXPECT_GT(e.writeNj, 0.0);
    EXPECT_GT(e.refreshNj, 0.0);
    EXPECT_GT(e.backgroundNj, 0.0);
    EXPECT_DOUBLE_EQ(e.totalNj(), e.activateNj + e.readNj + e.writeNj +
                                      e.refreshNj + e.backgroundNj);
}

TEST(Energy, PerBankRefreshUsesSpecGeometryDivisor)
{
    // Equal refresh cycle counts: the ratio-model specs (DDR3) draw
    // 1/8 of the all-bank current per cycle -- the 8 banks the spec's
    // tRFC table assumes, NOT whatever banksPerRank the config uses.
    const TimingParams t = timing();
    ChannelStats ab;
    ab.refAbCycles = 1000;
    ChannelStats pb;
    pb.refPbCycles = 1000;
    const EnergyParams p = EnergyParams::micron8GbDdr3();
    const double e_ab = channelEnergy(ab, t, p).refreshNj;
    const double e_pb = channelEnergy(pb, t, p).refreshNj;
    EXPECT_NEAR(e_pb, e_ab / 8.0, 1e-9);
}

TEST(Energy, Lpddr4NativeRefPbNotUnderstated)
{
    // LPDDR4's native tRFCpb = tRFCab/2: an 8-bank REFpb sweep must
    // cost one REFab's charge, so per cycle it draws 1/4 (not 1/8) of
    // the all-bank current.
    const auto [t, p] = specParams("LPDDR4-3200");
    EXPECT_DOUBLE_EQ(p.refPbCurrentDivisor, 4.0);

    ChannelStats ab;
    ab.refAbCycles = static_cast<std::uint64_t>(t.tRfcAb.count());
    ChannelStats pb;
    // Full-rank sweep.
    pb.refPbCycles = 8ULL * static_cast<std::uint64_t>(t.tRfcPb.count());
    const double e_ab = channelEnergy(ab, t, p).refreshNj;
    const double e_pb = channelEnergy(pb, t, p).refreshNj;
    EXPECT_NEAR(e_pb, e_ab, e_ab * 0.01);  // Cycle rounding only.
}

TEST(Energy, PerSpecVddOrdering)
{
    // DDR3 1.5 V > DDR4 1.2 V > LPDDR4 1.1 V, and every registered
    // spec carries a physically plausible supply.
    const auto &registry = DramSpecRegistry::instance();
    const double vddDdr3 = registry.at("DDR3-1333").energy.vdd;
    const double vddDdr4 = registry.at("DDR4-2400").energy.vdd;
    const double vddLp4 = registry.at("LPDDR4-3200").energy.vdd;
    EXPECT_DOUBLE_EQ(vddDdr3, 1.5);
    EXPECT_DOUBLE_EQ(vddDdr4, 1.2);
    EXPECT_DOUBLE_EQ(vddLp4, 1.1);
    EXPECT_GT(vddDdr3, vddDdr4);
    EXPECT_GT(vddDdr4, vddLp4);
    for (const std::string &name : registry.names()) {
        const EnergyParams &p = registry.at(name).energy;
        EXPECT_GT(p.vdd, 0.9) << name;
        EXPECT_LE(p.vdd, 1.6) << name;
        EXPECT_GT(p.idd5b, p.idd3n) << name;
        EXPECT_GT(p.idd4r, p.idd3n) << name;
        EXPECT_GT(p.idd4w, p.idd3n) << name;
        EXPECT_GT(p.refPbCurrentDivisor, 1.0) << name;
    }
}

TEST(Energy, Lpddr4CheaperThanDdr3PerAccess)
{
    // Same operation counts under each spec's own timing and currents:
    // the mobile part must land below the DDR3 baseline per access.
    const auto [t3, p3] = specParams("DDR3-1333");
    const auto [t4, p4] = specParams("LPDDR4-3200");
    const ChannelStats s3 = goldenStats(t3);
    const ChannelStats s4 = goldenStats(t4);
    const double ddr3 = energyPerAccessNj(s3, t3, p3);
    const double lpddr4 = energyPerAccessNj(s4, t4, p4);
    EXPECT_GT(ddr3, 0.0);
    EXPECT_GT(lpddr4, 0.0);
    EXPECT_LT(lpddr4, ddr3);
}

TEST(Energy, Ddr5SameBankSweepCostsOneRefab)
{
    // A full sweep of same-bank slices (one command per bank group,
    // tRFCsb cycles each) must cost one REFab's charge at whatever
    // geometry the config resolved -- here the 8-bank default, i.e.
    // two groups per rank. The divisor is derived by timingFor(), not
    // static spec data.
    const auto [t, p] = specParams("DDR5-4800");
    const std::uint64_t groups = 8 / t.banksPerGroup;
    ChannelStats ab;
    ab.refAbCycles = static_cast<std::uint64_t>(t.tRfcAb.count());
    ChannelStats sb;
    sb.refSbCycles = groups * static_cast<std::uint64_t>(t.tRfcSb.count());
    const double e_ab = channelEnergy(ab, t, p).refreshNj;
    const double e_sb = channelEnergy(sb, t, p).refreshNj;
    EXPECT_GT(e_sb, 0.0);
    EXPECT_NEAR(e_sb, e_ab, e_ab * 0.01);  // Cycle rounding only.
}

TEST(Energy, RefreshBilledPerKind)
{
    // Golden numbers pinned on DDR3-1333: an all-bank refresh cycle
    // draws IDD5B - IDD3N, a per-bank one the spec's fraction of it.
    const auto [t, p] = specParams("DDR3-1333");
    ChannelStats stats;
    stats.refAbCycles = 1000;
    stats.refPbCycles = 500;
    // ref_cur = 1.5 V * (215 - 45) mA * 1.5 ns = 0.3825 nJ/cycle.
    EXPECT_NEAR(channelEnergy(stats, t, p).refreshNj, 382.5 + 23.90625,
                1e-9);
}

TEST(Energy, RealSelfRefreshResidencyBilledAtIdd6)
{
    // Command-level residency (srTicks) bills IDD6 instead of IDD2N:
    // the same idle window costs less, linearly in the residency.
    const auto [t, p] = specParams("DDR3-1333");
    ChannelStats idle;
    idle.rankTotalTicks = 10000;
    ChannelStats sr = idle;
    sr.srTicks = 4000;
    const double e_idle = channelEnergy(idle, t, p).backgroundNj;
    const double e_sr = channelEnergy(sr, t, p).backgroundNj;
    EXPECT_NEAR(e_idle - e_sr,
                p.vdd * (p.idd2n - p.idd6) * 4000 * t.tCkNs.ns() * 1e-3,
                1e-9);
    // Every spec must keep idd6 below idd2n for the state to make
    // physical sense.
    for (const std::string &name : DramSpecRegistry::instance().names()) {
        const EnergyParams &e = DramSpecRegistry::instance().at(name).energy;
        EXPECT_GT(e.idd6, 0.0) << name;
        EXPECT_LT(e.idd6, e.idd2n) << name;
    }
}

TEST(Energy, ActiveStandbyCostsMoreThanIdle)
{
    const TimingParams t = timing();
    const EnergyParams p = EnergyParams::micron8GbDdr3();
    ChannelStats active;
    active.rankTotalTicks = 1000;
    active.rankActiveTicks = 1000;
    ChannelStats idle;
    idle.rankTotalTicks = 1000;
    idle.rankActiveTicks = 0;
    EXPECT_GT(channelEnergy(active, t, p).backgroundNj,
              channelEnergy(idle, t, p).backgroundNj);
}

TEST(Energy, PerAccessDivision)
{
    const TimingParams t = timing();
    ChannelStats stats;
    stats.acts = 10;
    stats.reads = 8;
    stats.writes = 2;
    const EnergyParams p = EnergyParams::micron8GbDdr3();
    const double total = channelEnergy(stats, t, p).totalNj();
    EXPECT_NEAR(energyPerAccessNj(stats, t, p), total / 10.0, 1e-12);
    ChannelStats empty;
    EXPECT_DOUBLE_EQ(energyPerAccessNj(empty, t, p), 0.0);
}

TEST(Energy, SingleAccessEnergyInPlausibleRange)
{
    // One activate + one read should land in the nJ range for every
    // registered backend, not pJ or uJ.
    for (const std::string &name : DramSpecRegistry::instance().names()) {
        const auto [t, p] = specParams(name);
        ChannelStats stats;
        stats.acts = 1;
        stats.reads = 1;
        const double nj = channelEnergy(stats, t, p).totalNj();
        EXPECT_GT(nj, 0.3) << name;
        EXPECT_LT(nj, 20.0) << name;
    }
}
