/**
 * @file
 * DramSpecRegistry tests: registration/lookup semantics, a
 * parameterized invariant suite over every registered spec x density,
 * the bit-identical DDR3-1333 equivalence with the pre-registry
 * derivation, config-layer round-trips for the "dram.spec" key, and an
 * end-to-end smoke run per spec.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>

#include "dram/spec.hh"
#include "refresh/registry.hh"
#include "sim/simulation.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

MemConfig
cfgFor(const std::string &spec, Density d, int retention_ms = 32,
       const char *policy = "REFab")
{
    MemConfig cfg;
    cfg.dramSpec = spec;
    cfg.density = d;
    cfg.retentionMs = retention_ms;
    cfg.policy = policy;
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    return cfg;
}

} // namespace

TEST(DramSpecRegistry, AllSixSpecsRegistered)
{
    const auto &registry = DramSpecRegistry::instance();
    for (const char *name : {"DDR3-1066", "DDR3-1333", "DDR3-1600",
                             "DDR4-2400", "LPDDR4-3200", "DDR5-4800"}) {
        EXPECT_TRUE(registry.has(name)) << name;
    }
    EXPECT_GE(registry.names().size(), 6u);
}

TEST(DramSpecRegistry, LookupIsCaseInsensitiveAndAliased)
{
    const auto &registry = DramSpecRegistry::instance();
    EXPECT_EQ(registry.at("ddr3-1333").name, "DDR3-1333");
    EXPECT_EQ(registry.at("DDR3").name, "DDR3-1333");
    EXPECT_EQ(registry.at("ddr4").name, "DDR4-2400");
    EXPECT_EQ(registry.at("LPDDR4").name, "LPDDR4-3200");
    EXPECT_EQ(registry.at("ddr5").name, "DDR5-4800");
    EXPECT_EQ(registry.find("no-such-spec"), nullptr);
}

TEST(DramSpecRegistry, UnknownSpecIsNamedKeyError)
{
    const auto &registry = DramSpecRegistry::instance();
    const std::string msg = registry.unknownSpecMessage("DDR9-9999");
    EXPECT_NE(msg.find("config key 'dram.spec'"), std::string::npos);
    EXPECT_NE(msg.find("DDR9-9999"), std::string::npos);
    // The error must list every registered spec by canonical name.
    for (const std::string &name : registry.names())
        EXPECT_NE(msg.find(name), std::string::npos) << name;
    EXPECT_DEATH(registry.at("DDR9-9999"), "dram.spec");
}

// ---------------------------------------------------------------------
// Invariants that must hold for every registered spec x density.
// ---------------------------------------------------------------------

class SpecInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, Density>>
{
};

TEST_P(SpecInvariants, TimingConsistency)
{
    const auto [name, density] = GetParam();
    const DramSpec &spec = DramSpecRegistry::instance().at(name);
    const TimingParams t = spec.timingFor(cfgFor(name, density));

    // Refresh geometry: a per-bank refresh must fit inside its command
    // interval (otherwise REFpb schedules can never keep up), and the
    // per-bank interval must be the all-bank interval split over banks.
    EXPECT_GT(t.tRefiPb, t.tRfcPb);
    EXPECT_EQ(t.tRefiPb, t.tRefiAb / 8);
    EXPECT_GT(t.tRfcAb, 0);
    EXPECT_GE(t.tRfcAb, t.tRfcPb);

    // Core timing sanity: a row cycle covers activation + precharge.
    EXPECT_GE(t.tRc, t.tRas + t.tRp);

    // Derived values must match their defining formulas.
    EXPECT_EQ(t.tRtw, t.tCl + t.tBl + Cycles(2) - t.tCwl);
    EXPECT_GT(t.tRtw, 0);

    // FGR divisors: monotonically increasing in rate, yet sub-linear
    // (each finer command refreshes fewer rows but pays fixed
    // overheads), which is what makes FGR a net loss in the paper.
    EXPECT_DOUBLE_EQ(t.rfcDivisorFor(1), 1.0);
    EXPECT_GT(t.rfcDivisorFor(2), t.rfcDivisorFor(1));
    EXPECT_GT(t.rfcDivisorFor(4), t.rfcDivisorFor(2));
    EXPECT_LT(t.rfcDivisorFor(2), 2.0);
    EXPECT_LT(t.rfcDivisorFor(4), 4.0);
}

TEST_P(SpecInvariants, FgrRateScaling)
{
    const auto [name, density] = GetParam();
    const DramSpec &spec = DramSpecRegistry::instance().at(name);
    const TimingParams base = spec.timingFor(cfgFor(name, density));
    const TimingParams f2 = spec.timingFor(
        cfgFor(name, density, 32, "FGR2x"));
    const TimingParams f4 = spec.timingFor(
        cfgFor(name, density, 32, "FGR4x"));

    EXPECT_EQ(f2.tRefiAb, base.tRefiAb / 2);
    EXPECT_EQ(f4.tRefiAb, base.tRefiAb / 4);
    EXPECT_NEAR(static_cast<double>(base.tRfcAb.count()) /
                    static_cast<double>(f2.tRfcAb.count()),
                spec.fgrDivisor2x, 0.03);
    EXPECT_NEAR(static_cast<double>(base.tRfcAb.count()) /
                    static_cast<double>(f4.tRfcAb.count()),
                spec.fgrDivisor4x, 0.03);
    // Worst-case lockout per retention period grows with the rate (the
    // paper's complaint about FGR).
    EXPECT_GT(2 * f2.tRfcAb, base.tRfcAb);
    EXPECT_GT(4 * f4.tRfcAb, 2 * f2.tRfcAb);
}

TEST_P(SpecInvariants, SameBankGeometry)
{
    const auto [name, density] = GetParam();
    const DramSpec &spec = DramSpecRegistry::instance().at(name);
    const TimingParams t = spec.timingFor(cfgFor(name, density));

    if (spec.banksPerGroup <= 0) {
        // No same-bank refresh: every derived field must stay zeroed
        // (the checker and the REFsb policy key off this).
        EXPECT_EQ(t.banksPerGroup, 0);
        EXPECT_EQ(t.tRefiSb, 0u);
        EXPECT_EQ(t.tRfcSb, 0);
        return;
    }

    // A slice command must fit inside its interval, cover banks the
    // bank-group declaration promises, and cost no more than a full
    // all-bank refresh while beating one per-bank command per bank.
    EXPECT_GT(t.tRefiSb, t.tRfcSb);
    EXPECT_EQ(t.banksPerGroup, spec.banksPerGroup);
    EXPECT_EQ(8 % spec.banksPerGroup, 0)
        << "groups must tile the default 8-bank rank";
    EXPECT_EQ(t.tRefiSb, t.tRefiAb / (8 / spec.banksPerGroup));
    EXPECT_GT(t.tRfcSb, 0);
    EXPECT_LE(t.tRfcSb, t.tRfcAb);
    EXPECT_GE(t.tRfcSb, t.tRfcPb);
    EXPECT_LT(t.tRfcSb, spec.banksPerGroup * t.tRfcPb)
        << "one slice must beat refreshing its banks one by one";
}

TEST_P(SpecInvariants, RefreshGeometryCoversAllBanksPerRetention)
{
    // All-specs coverage property: the burst must tile the row, and
    // each refresh geometry -- all-bank, per-bank, same-bank -- must
    // cover every row of every bank exactly once per retention window
    // (tREFW): slots x rows-per-slot = rows-per-bank, and the
    // per-unit command interval tiles tREFIab with no uncovered
    // remainder larger than the unit count.
    const auto [name, density] = GetParam();
    const DramSpec &spec = DramSpecRegistry::instance().at(name);
    const MemConfig cfg = cfgFor(name, density);
    const TimingParams t = spec.timingFor(cfg);

    EXPECT_EQ(cfg.org.rowBytes % spec.burstBytes(), 0) << name;
    EXPECT_EQ(spec.burstBytes() % cfg.org.lineBytes, 0) << name;

    EXPECT_EQ(t.rowsPerRefresh * spec.refreshesPerRetention,
              cfg.org.rowsPerBank)
        << "refresh slots must cover the bank exactly once per tREFW";

    const int banks = cfg.org.banksPerRank;
    EXPECT_LE(t.tRefiPb * banks, t.tRefiAb);
    EXPECT_LT(t.tRefiAb - t.tRefiPb * banks, static_cast<Tick>(banks))
        << "per-bank slots must tile the all-bank interval";
    if (t.banksPerGroup > 0) {
        const int groups = banks / t.banksPerGroup;
        EXPECT_LE(t.tRefiSb * groups, t.tRefiAb);
        EXPECT_LT(t.tRefiAb - t.tRefiSb * groups,
                  static_cast<Tick>(groups))
            << "same-bank slices must tile the all-bank interval";
    }
}

TEST_P(SpecInvariants, RetentionScaling)
{
    const auto [name, density] = GetParam();
    const DramSpec &spec = DramSpecRegistry::instance().at(name);
    const TimingParams t32 = spec.timingFor(cfgFor(name, density, 32));
    const TimingParams t64 = spec.timingFor(cfgFor(name, density, 64));

    // Doubling retention doubles the command spacing but never the
    // latency or the per-command row coverage.
    EXPECT_NEAR(static_cast<double>(t64.tRefiAb.count()),
                2.0 * static_cast<double>(t32.tRefiAb.count()), 2.0);
    EXPECT_EQ(t64.tRfcAb, t32.tRfcAb);
    EXPECT_EQ(t64.rowsPerRefresh, t32.rowsPerRefresh);
}

namespace {

std::string
invariantName(
    const ::testing::TestParamInfo<std::tuple<std::string, Density>> &info)
{
    std::string out = std::get<0>(info.param) + "_" +
        densityName(std::get<1>(info.param));
    for (char &c : out) {
        if (c == '-')
            c = '_';
    }
    return out;
}

std::vector<std::string>
allSpecNames()
{
    return DramSpecRegistry::instance().names();
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, SpecInvariants,
    ::testing::Combine(::testing::ValuesIn(allSpecNames()),
                       ::testing::Values(Density::k8Gb, Density::k16Gb,
                                         Density::k32Gb)),
    invariantName);

// ---------------------------------------------------------------------
// Density monotonicity per spec: bigger chips refresh longer.
// ---------------------------------------------------------------------

TEST(DramSpec, TrfcGrowsWithDensity)
{
    for (const std::string &name : allSpecNames()) {
        const DramSpec &spec = DramSpecRegistry::instance().at(name);
        const TimingParams t8 = spec.timingFor(cfgFor(name, Density::k8Gb));
        const TimingParams t16 =
            spec.timingFor(cfgFor(name, Density::k16Gb));
        const TimingParams t32 =
            spec.timingFor(cfgFor(name, Density::k32Gb));
        EXPECT_LT(t8.tRfcAb, t16.tRfcAb) << name;
        EXPECT_LT(t16.tRfcAb, t32.tRfcAb) << name;
        EXPECT_LT(t8.tRfcPb, t16.tRfcPb) << name;
        EXPECT_LT(t16.tRfcPb, t32.tRfcPb) << name;
    }
}

TEST(DramSpec, LpddrUsesNativePerBankTable)
{
    const DramSpec &lp = DramSpecRegistry::instance().at("LPDDR4-3200");
    ASSERT_TRUE(lp.nativePerBankRefresh);
    const TimingParams t = lp.timingFor(cfgFor("LPDDR4-3200",
                                               Density::k8Gb));
    // 140 ns at tCK = 0.625 ns -> 224 cycles, straight from the native
    // table rather than tRFCab / 2.3 (= 179 cycles).
    EXPECT_EQ(t.tRfcPb,
              TimingParams::nsToCycles(Nanoseconds(140.0),
                                       Nanoseconds(0.625)));
    const double ratio = static_cast<double>(t.tRfcAb.count()) /
        static_cast<double>(t.tRfcPb.count());
    EXPECT_NEAR(ratio, 2.0, 0.01);
}

TEST(DramSpec, Ddr5CarriesSameBankRefresh)
{
    const DramSpec &d5 = DramSpecRegistry::instance().at("DDR5-4800");
    EXPECT_EQ(d5.banksPerGroup, 4);
    // tRFCsb = 115/130/190 ns at 8/16/32 Gb, always below tRFC1.
    for (int i = 0; i < 3; ++i) {
        EXPECT_GT(d5.tRfcSbNs[i].ns(), 0.0) << i;
        EXPECT_LT(d5.tRfcSbNs[i], d5.tRfcAbNs[i]) << i;
    }
    // Native tRFC1/tRFC2 FGR divisor (195/130 ns at 8 Gb); the 4x
    // divisor is a projection but must stay steeper than 2x.
    EXPECT_NEAR(d5.fgrDivisor2x, 195.0 / 130.0, 1e-9);
    EXPECT_GT(d5.fgrDivisor4x, d5.fgrDivisor2x);
    // Same-bank slice energy is derived at the resolved geometry and
    // density -- a full sweep of slices costs one REFab's charge
    // (groups x tRFCsb / tRFCab) -- never a static spec constant that
    // would misprice re-sliced or non-canonical bank counts.
    const TimingParams t8 =
        d5.timingFor(cfgFor("DDR5-4800", Density::k8Gb));
    EXPECT_NEAR(t8.refSbEnergyDivisor, 2.0 * 115.0 / 195.0, 1e-9)
        << "8 banks -> 2 groups";
    MemConfig canonical = cfgFor("DDR5-4800", Density::k32Gb);
    canonical.org.banksPerRank = 32;
    EXPECT_NEAR(d5.timingFor(canonical).refSbEnergyDivisor,
                8.0 * 190.0 / 410.0, 1e-9)
        << "32 banks -> 8 groups at the 32 Gb ratio";
    EXPECT_LT(d5.energy.idd6, d5.energy.idd2n)
        << "self-refresh must undercut precharge standby";
}

TEST(DramSpec, Ddr4CarriesNativeFgrDivisors)
{
    const DramSpec &d4 = DramSpecRegistry::instance().at("DDR4-2400");
    // tRFC1/tRFC2/tRFC4 = 350/260/160 ns at 8 Gb.
    EXPECT_NEAR(d4.fgrDivisor2x, 350.0 / 260.0, 1e-9);
    EXPECT_NEAR(d4.fgrDivisor4x, 350.0 / 160.0, 1e-9);
    // Strictly steeper than the paper's DDR3 projections at 4x.
    EXPECT_GT(d4.fgrDivisor4x,
              DramSpecRegistry::instance().at("DDR3-1333").fgrDivisor4x);
}

// ---------------------------------------------------------------------
// The default spec must reproduce the pre-registry derivation exactly.
// ---------------------------------------------------------------------

TEST(DramSpec, DefaultSpecMatchesLegacyDerivation)
{
    // The legacy frozen tRtw = 8 must equal the derived formula on the
    // default spec, or the pre-refactor seed would not be reproduced.
    const TimingParams t =
        TimingParams::forConfig(cfgFor("DDR3-1333", Density::k8Gb));
    EXPECT_EQ(t.tRtw, 8);
    EXPECT_EQ(t.tRefiPb, t.tRefiAb / 8);
}

TEST(DramSpec, DefaultSpecSmokeRunIsBitIdentical)
{
    // Same seed, same workload: selecting DDR3-1333 through the
    // registry (via an alias, even) must produce the exact IPC/WS of a
    // config that never mentions dram.spec.
    auto run = [](const std::string &spec) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.mem.org.channels = 1;
        cfg.mem.policy = "DSARP";
        cfg.seed = 7;
        if (!spec.empty())
            cfg.mem.dramSpec = spec;
        System sys(cfg, {benchmarkIndex("mcf-like"),
                         benchmarkIndex("gcc-like")});
        sys.run(30000);
        return sys.coreIpc();
    };
    const auto base = run("");
    const auto named = run("ddr3-1333");
    ASSERT_EQ(base.size(), named.size());
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(base[i], named[i]) << "core " << i;
}

// ---------------------------------------------------------------------
// Config-layer round-trips for the "dram.spec" key.
// ---------------------------------------------------------------------

TEST(DramSpecConfig, KeyRoundTripsThroughSetFileAndEnv)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.sys.mem.dramSpec, "DDR3-1333");

    // Programmatic / CLI layer.
    cfg.set("dram.spec", "ddr4");
    EXPECT_EQ(cfg.dramSpecName(), "DDR4-2400");

    // Config-file layer.
    const std::string path = ::testing::TempDir() + "dram_spec_test.cfg";
    {
        std::ofstream out(path);
        out << "# backend selection\n"
            << "dram.spec = DDR3-1600\n";
    }
    cfg.applyFile(path);
    EXPECT_EQ(cfg.sys.mem.dramSpec, "DDR3-1600");
    std::remove(path.c_str());

    // Environment layer (highest of the three applied here).
    ::setenv("DSARP_SET", "dram.spec=lpddr4-3200", 1);
    cfg.applyEnv();
    ::unsetenv("DSARP_SET");
    EXPECT_EQ(cfg.dramSpecName(), "LPDDR4-3200");
}

TEST(DramSpecConfig, UnknownSpecFailsValidationWithNamedKey)
{
    ExperimentConfig cfg;
    cfg.sys.mem.dramSpec = "HBM3-9999";
    const std::string errors = cfg.validate();
    EXPECT_NE(errors.find("config key 'dram.spec'"), std::string::npos);
    EXPECT_NE(errors.find("HBM3-9999"), std::string::npos);
    EXPECT_NE(errors.find("DDR4-2400"), std::string::npos);
}

TEST(DramSpecConfig, EmptySpecValueIsRejected)
{
    ExperimentConfig cfg;
    const std::string err = cfg.trySet("dram.spec", "");
    EXPECT_NE(err.find("dram.spec"), std::string::npos);
    EXPECT_EQ(cfg.sys.mem.dramSpec, "DDR3-1333");
}

TEST(DramSpecConfig, SimulationResolvesAndCachesSpec)
{
    Simulation sim = Simulation::builder()
                         .policy("REFab")
                         .dramSpec("lpddr4")
                         .cores(2)
                         .warmupCycles(500)
                         .measureCycles(2000)
                         .build();
    EXPECT_EQ(sim.dramSpecName(), "LPDDR4-3200");
    EXPECT_EQ(sim.config().sys.mem.dramSpec, "LPDDR4-3200");
    EXPECT_TRUE(sim.dramSpec().nativePerBankRefresh);
}

// ---------------------------------------------------------------------
// Every registered spec must run end-to-end.
// ---------------------------------------------------------------------

class SpecEndToEnd : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpecEndToEnd, SystemMakesProgressUnderDsarp)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.policy = "DSARP";
    cfg.mem.dramSpec = GetParam();
    cfg.seed = 11;
    System sys(cfg, {benchmarkIndex("milc-like"),
                     benchmarkIndex("soplex-like")});
    sys.run(Tick(0) + 4 * sys.timing().tRefiAb);

    EXPECT_EQ(sys.timing().spec, GetParam());
    std::uint64_t reads = 0, refreshes = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        reads += sys.controller(ch).stats().readsCompleted;
        const auto &cs = sys.controller(ch).channel().stats();
        refreshes += cs.refAb + cs.refPb;
    }
    EXPECT_GT(reads, 100u);
    EXPECT_GT(refreshes, 0u);
}

namespace {

std::string
specName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string out = info.param;
    for (char &c : out) {
        if (c == '-')
            c = '_';
    }
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecEndToEnd,
                         ::testing::ValuesIn(allSpecNames()), specName);
