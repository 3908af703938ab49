/**
 * @file
 * Unit tests for the DDR3-1333 timing derivation: density scaling,
 * retention scaling, FGR scaling, and the per-bank refresh ratio.
 */

#include <gtest/gtest.h>

#include "dram/spec.hh"
#include "dram/timing.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

MemConfig
cfgFor(Density d, int retention_ms = 32, const char *policy = "REFab")
{
    MemConfig cfg;
    cfg.density = d;
    cfg.retentionMs = retention_ms;
    cfg.policy = policy;
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    return cfg;
}

} // namespace

TEST(Timing, NsToCycles)
{
    const Nanoseconds tck{1.5};
    EXPECT_EQ(TimingParams::nsToCycles(Nanoseconds(1.5), tck), 1);
    EXPECT_EQ(TimingParams::nsToCycles(Nanoseconds(1.6), tck), 2);
    EXPECT_EQ(TimingParams::nsToCycles(Nanoseconds(350.0), tck), 234);
    EXPECT_EQ(TimingParams::nsToCycles(Nanoseconds(0.0), tck), 0);
}

TEST(Timing, Ddr3CoreParameters)
{
    const TimingParams t = TimingParams::forConfig(cfgFor(Density::k8Gb));
    EXPECT_EQ(t.tCl, 9);
    EXPECT_EQ(t.tCwl, 7);
    EXPECT_EQ(t.tRcd, 9);
    EXPECT_EQ(t.tRp, 9);
    EXPECT_EQ(t.tRas, 24);
    EXPECT_EQ(t.tRc, 33);
    EXPECT_EQ(t.tFaw, 20);  // Table 4 baseline: 20 DRAM cycles.
    EXPECT_EQ(t.tRrd, 4);
}

TEST(Timing, RefreshIntervals32ms)
{
    const TimingParams t = TimingParams::forConfig(cfgFor(Density::k8Gb));
    // 32 ms / 8192 = 3.9 us = 2604 cycles at 1.5 ns.
    EXPECT_NEAR(static_cast<double>(t.tRefiAb.count()), 2604.0, 2.0);
    EXPECT_EQ(t.tRefiPb, t.tRefiAb / 8);
}

TEST(Timing, RefreshIntervals64ms)
{
    const TimingParams t =
        TimingParams::forConfig(cfgFor(Density::k8Gb, 64));
    EXPECT_NEAR(static_cast<double>(t.tRefiAb.count()), 5208.0, 4.0);
}

TEST(Timing, RefreshLatencyScalesWithDensity)
{
    const TimingParams t8 = TimingParams::forConfig(cfgFor(Density::k8Gb));
    const TimingParams t16 =
        TimingParams::forConfig(cfgFor(Density::k16Gb));
    const TimingParams t32 =
        TimingParams::forConfig(cfgFor(Density::k32Gb));
    EXPECT_EQ(t8.tRfcAb, 234);   // 350 ns.
    EXPECT_EQ(t16.tRfcAb, 354);  // 530 ns.
    EXPECT_EQ(t32.tRfcAb, 594);  // 890 ns.
}

TEST(Timing, PerBankRatioIs2Point3)
{
    for (Density d : {Density::k8Gb, Density::k16Gb, Density::k32Gb}) {
        const TimingParams t = TimingParams::forConfig(cfgFor(d));
        const double ratio = static_cast<double>(t.tRfcAb.count()) /
            static_cast<double>(t.tRfcPb.count());
        EXPECT_NEAR(ratio, 2.3, 0.03) << densityName(d);
        EXPECT_GT(t.tRfcPb, t.tRfcAb / 8)
            << "tRFCpb must exceed tRFCab/8 (Figure 3b)";
    }
}

TEST(Timing, RowsPerRefresh)
{
    EXPECT_EQ(TimingParams::forConfig(cfgFor(Density::k8Gb)).rowsPerRefresh,
              8);
    EXPECT_EQ(
        TimingParams::forConfig(cfgFor(Density::k16Gb)).rowsPerRefresh, 16);
    EXPECT_EQ(
        TimingParams::forConfig(cfgFor(Density::k32Gb)).rowsPerRefresh, 32);
    // Retention does not change per-command coverage.
    EXPECT_EQ(
        TimingParams::forConfig(cfgFor(Density::k8Gb, 64)).rowsPerRefresh,
        8);
}

TEST(Timing, FgrScaling)
{
    const TimingParams base = TimingParams::forConfig(cfgFor(Density::k32Gb));
    const TimingParams f2 = TimingParams::forConfig(
        cfgFor(Density::k32Gb, 32, "FGR2x"));
    const TimingParams f4 = TimingParams::forConfig(
        cfgFor(Density::k32Gb, 32, "FGR4x"));

    EXPECT_EQ(f2.tRefiAb, base.tRefiAb / 2);
    EXPECT_EQ(f4.tRefiAb, base.tRefiAb / 4);

    // Section 6.5: tRFC shrinks by only 1.35x / 1.63x.
    EXPECT_NEAR(static_cast<double>(base.tRfcAb.count()) /
                    static_cast<double>(f2.tRfcAb.count()),
                1.35, 0.02);
    EXPECT_NEAR(static_cast<double>(base.tRfcAb.count()) /
                    static_cast<double>(f4.tRfcAb.count()),
                1.63, 0.02);

    // Worst-case lockout per retention grows (the paper's complaint).
    const double base_lockout =
        static_cast<double>(base.tRfcAb.count());
    EXPECT_GT(2.0 * f2.tRfcAb, base_lockout);
    EXPECT_GT(4.0 * f4.tRfcAb, base_lockout);

    EXPECT_EQ(f4.rowsPerRefresh, base.rowsPerRefresh / 4);
}

TEST(Timing, TfawOverride)
{
    MemConfig cfg = cfgFor(Density::k32Gb);
    cfg.tFawOverride = 5;
    cfg.tRrdOverride = 1;
    const TimingParams t = TimingParams::forConfig(cfg);
    EXPECT_EQ(t.tFaw, 5);
    EXPECT_EQ(t.tRrd, 1);
}

TEST(Timing, FgrDivisors)
{
    // The paper's Section 6.5 DDR3 projections, carried by the spec.
    const DramSpec &ddr3 = DramSpecRegistry::instance().at("DDR3-1333");
    EXPECT_DOUBLE_EQ(ddr3.fgrDivisor2x, 1.35);
    EXPECT_DOUBLE_EQ(ddr3.fgrDivisor4x, 1.63);
}
