/**
 * @file
 * Tests for the layered ExperimentConfig (key=value overrides from
 * code, files, and the environment, with named-key errors) and the
 * Simulation facade built on top of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/config_keys.hh"
#include "sim/experiment.hh"
#include "sim/simulation.hh"

using namespace dsarp;

TEST(ExperimentConfig, SetParsesEveryFieldKind)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.trySet("policy", "REFpb"), "");
    EXPECT_EQ(cfg.trySet("densityGb", "16"), "");
    EXPECT_EQ(cfg.trySet("numCores", "4"), "");
    EXPECT_EQ(cfg.trySet("seed", "99"), "");
    EXPECT_EQ(cfg.trySet("darpWriteRefresh", "false"), "");
    EXPECT_EQ(cfg.trySet("enableChecker", "on"), "");

    EXPECT_EQ(cfg.sys.mem.policy, "REFpb");
    EXPECT_EQ(cfg.sys.mem.density, Density::k16Gb);
    EXPECT_EQ(cfg.sys.numCores, 4);
    EXPECT_EQ(cfg.sys.seed, 99u);
    EXPECT_FALSE(cfg.sys.mem.darpWriteRefresh);
    EXPECT_TRUE(cfg.sys.enableChecker);
}

TEST(ExperimentConfig, KeysAreCaseInsensitiveAndTrimmed)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.trySet("NUMCORES", " 2 "), "");
    EXPECT_EQ(cfg.sys.numCores, 2);
}

TEST(ExperimentConfig, UnknownKeyNamesItselfAndListsKnown)
{
    ExperimentConfig cfg;
    const std::string err = cfg.trySet("writeWatermark", "10");
    EXPECT_NE(err.find("unknown config key 'writeWatermark'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("writeHighWatermark"), std::string::npos) << err;
}

TEST(ExperimentConfig, RemovedKeyNamesItsReplacement)
{
    ExperimentConfig cfg;
    const std::string err = cfg.trySet("energy.selfRefreshIdle", "1000");
    EXPECT_NE(err.find("config key 'energy.selfRefreshIdle': removed; "
                       "use 'refresh.selfRefresh.idleEntry'"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("known:"), std::string::npos) << err;
}

TEST(ExperimentConfigDeath, RemovedKeyInAConfigFileNamesTheLine)
{
    const std::string path =
        ::testing::TempDir() + "/dsarp_removed_key.cfg";
    {
        std::ofstream out(path);
        out << "policy = REFab\n"
            << "energy.selfRefreshIdle = 1000\n";
    }
    ExperimentConfig cfg;
    EXPECT_EXIT(cfg.applyFile(path), testing::ExitedWithCode(1),
                "dsarp_removed_key.cfg:2: config key "
                "'energy.selfRefreshIdle': removed; use "
                "'refresh.selfRefresh.idleEntry'");
    std::remove(path.c_str());
}

TEST(ExperimentConfig, BadValueNamesTheKey)
{
    ExperimentConfig cfg;
    const std::string err = cfg.trySet("numCores", "eight");
    EXPECT_NE(err.find("config key 'numCores'"), std::string::npos) << err;
    EXPECT_NE(err.find("expected an integer"), std::string::npos) << err;
    EXPECT_EQ(cfg.sys.numCores, 8);  // Unchanged on error.

    const std::string bool_err = cfg.trySet("enableChecker", "maybe");
    EXPECT_NE(bool_err.find("config key 'enableChecker'"),
              std::string::npos)
        << bool_err;

    // densityGb parses straight to a Density: 8, 16 or 32 only.
    const std::string density_err = cfg.trySet("densityGb", "12");
    EXPECT_NE(density_err.find("config key 'densityGb': must be 8, 16 or "
                               "32 (got 12)"),
              std::string::npos)
        << density_err;
    EXPECT_EQ(cfg.sys.mem.density, Density::k32Gb);  // Unchanged.
}

TEST(ExperimentConfig, ValidateReportsEveryBadKey)
{
    ExperimentConfig cfg;
    cfg.sys.mem.policy = "nonesuch";
    cfg.sys.numCores = 0;
    cfg.intensityPct = 40;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'policy'"), std::string::npos) << err;
    EXPECT_NE(err.find("config key 'numCores'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("config key 'intensityPct'"), std::string::npos)
        << err;
}

TEST(ExperimentConfig, ValidateDelegatesMemChecks)
{
    ExperimentConfig cfg;
    cfg.sys.mem.writeLowWatermark = 60;
    cfg.sys.mem.writeHighWatermark = 50;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("writeLowWatermark"), std::string::npos) << err;

    ExperimentConfig ok;
    EXPECT_EQ(ok.validate(), "");
}

TEST(ExperimentConfig, ConfigFileLayering)
{
    const std::string path =
        ::testing::TempDir() + "/dsarp_experiment_test.cfg";
    {
        std::ofstream out(path);
        out << "# an experiment preset\n"
            << "policy = SARPpb\n"
            << "densityGb=8   # inline comment\n"
            << "\n"
            << "numCores=2\n";
    }
    ExperimentConfig cfg;
    cfg.applyFile(path);
    EXPECT_EQ(cfg.sys.mem.policy, "SARPpb");
    EXPECT_EQ(cfg.sys.mem.density, Density::k8Gb);
    EXPECT_EQ(cfg.sys.numCores, 2);

    // Later layers (env, CLI) override earlier ones.
    cfg.set("densityGb", "32");
    EXPECT_EQ(cfg.sys.mem.density, Density::k32Gb);
    std::remove(path.c_str());
}

TEST(ExperimentConfig, EnvOverridesViaDsarpSet)
{
    setenv("DSARP_SET", "policy=Elastic, numCores=4", 1);
    ExperimentConfig cfg;
    cfg.applyEnv();
    unsetenv("DSARP_SET");
    EXPECT_EQ(cfg.sys.mem.policy, "Elastic");
    EXPECT_EQ(cfg.sys.numCores, 4);
}

namespace {

/** One config key, a valid non-default value for it, the field it
 *  must land in, and any assignment the value needs to be valid. */
struct KeyLanding
{
    const char *key;
    const char *value;
    std::function<bool(const ExperimentConfig &)> landed;
    const char *needs = nullptr;
};

#define LANDS_IN(field, expected)                                       \
    [](const ExperimentConfig &c) { return c.field == (expected); }

const std::vector<KeyLanding> &
keyLandings()
{
    static const std::vector<KeyLanding> table = {
        {keys::kPolicy, "REFpb", LANDS_IN(sys.mem.policy, "REFpb")},
        {keys::kDramSpec, "DDR4-2400",
         LANDS_IN(sys.mem.dramSpec, "DDR4-2400")},
        {keys::kDensityGb, "16", LANDS_IN(sys.mem.density, Density::k16Gb)},
        {keys::kRetentionMs, "64", LANDS_IN(sys.mem.retentionMs, 64)},
        {keys::kSubarraysPerBank, "4",
         LANDS_IN(sys.mem.org.subarraysPerBank, 4)},
        {keys::kChannels, "4", LANDS_IN(sys.mem.org.channels, 4)},
        {keys::kAddressMap, "row-ch", LANDS_IN(sys.mem.addressMap, "row-ch")},
        {keys::kChannelStagger, "-1",
         LANDS_IN(sys.mem.channelStaggerCycles, -1)},
        {keys::kRanksPerChannel, "4",
         LANDS_IN(sys.mem.org.ranksPerChannel, 4)},
        {keys::kBanksPerRank, "16", LANDS_IN(sys.mem.org.banksPerRank, 16)},
        {keys::kReadQueueSize, "32", LANDS_IN(sys.mem.readQueueSize, 32)},
        {keys::kWriteQueueSize, "60", LANDS_IN(sys.mem.writeQueueSize, 60)},
        {keys::kWriteHighWatermark, "40",
         LANDS_IN(sys.mem.writeHighWatermark, 40)},
        {keys::kWriteLowWatermark, "0",
         LANDS_IN(sys.mem.writeLowWatermark, 0)},
        {keys::kRefabStaggerDivisor, "2",
         LANDS_IN(sys.mem.refabStaggerDivisor, 2)},
        {keys::kMaxOverlappedRefPb, "2",
         LANDS_IN(sys.mem.maxOverlappedRefPb, 2)},
        {keys::kTFawOverride, "40", LANDS_IN(sys.mem.tFawOverride, 40)},
        {keys::kTRrdOverride, "8", LANDS_IN(sys.mem.tRrdOverride, 8)},
        {keys::kDarpWriteRefresh, "false",
         LANDS_IN(sys.mem.darpWriteRefresh, false)},
        {keys::kHiraCoverage, "0.5", LANDS_IN(sys.mem.hiraCoverage, 0.5)},
        {keys::kHiraDelay, "8", LANDS_IN(sys.mem.hiraDelayCycles, 8)},
        {keys::kSameBankGroupSize, "2",
         LANDS_IN(sys.mem.sameBankGroupSize, 2), "dram.spec=DDR5-4800"},
        {keys::kSameBankPullIn, "off", LANDS_IN(sys.mem.sameBankPullIn, false)},
        {keys::kSrIdleEntry, "750", LANDS_IN(sys.mem.srIdleEntryCycles, 750)},
        {keys::kFgrRate, "2", LANDS_IN(sys.mem.fgrRate, 2)},
        {keys::kNumCores, "4", LANDS_IN(sys.numCores, 4)},
        {keys::kSeed, "7", LANDS_IN(sys.seed, 7u)},
        {keys::kEnableChecker, "on", LANDS_IN(sys.enableChecker, true)},
        {keys::kWarmupCycles, "2000", LANDS_IN(warmupCycles, 2000u)},
        {keys::kMeasureCycles, "20000", LANDS_IN(measureCycles, 20000u)},
        {keys::kWorkloadSeed, "3", LANDS_IN(workloadSeed, 3u)},
        {keys::kIntensityPct, "50", LANDS_IN(intensityPct, 50)},
        {keys::kSimEngine, "event", LANDS_IN(sys.engine, "event")},
        {keys::kTrafficMode, "Poisson", LANDS_IN(sys.traffic.mode, "poisson")},
        {keys::kTrafficRate, "60",
         LANDS_IN(sys.traffic.ratePerKilocycle, 60.0)},
        {keys::kTrafficReadPct, "80", LANDS_IN(sys.traffic.readPct, 80)},
        {keys::kTrafficHotRowPct, "25", LANDS_IN(sys.traffic.hotRowPct, 25.0)},
        {keys::kTrafficHotRows, "8", LANDS_IN(sys.traffic.hotRows, 8)},
        {keys::kTrafficBurstFactor, "4",
         LANDS_IN(sys.traffic.burstFactor, 4.0)},
        {keys::kTrafficBurstLen, "100",
         LANDS_IN(sys.traffic.burstLenCycles, 100)},
        {keys::kTrafficDiurnalPeriod, "5000",
         LANDS_IN(sys.traffic.diurnalPeriod, 5000)},
        {keys::kTrafficDiurnalAmp, "0.5",
         LANDS_IN(sys.traffic.diurnalAmp, 0.5)},
        {keys::kTrafficTrace, "replay.trc",
         LANDS_IN(sys.traffic.tracePath, "replay.trc"), "traffic.mode=trace"},
        {keys::kTenantCount, "3", LANDS_IN(sys.traffic.tenants, 3)},
        {keys::kTenantPriorities, "2",
         LANDS_IN(sys.traffic.tenantPriorities, "2")},
    };
    return table;
}

#undef LANDS_IN

} // namespace

TEST(ExperimentConfig, EveryKeyLandsInItsField)
{
    // A key that parses but never reaches the SystemConfig that System
    // runs (or the run-level field it names) fails here.
    for (const KeyLanding &k : keyLandings()) {
        ExperimentConfig cfg;
        EXPECT_FALSE(k.landed(cfg)) << k.key << ": value is the default";
        if (k.needs)
            cfg.applyOverride(k.needs);
        EXPECT_EQ(cfg.trySet(k.key, k.value), "") << k.key;
        EXPECT_TRUE(k.landed(cfg)) << k.key;
        EXPECT_EQ(cfg.validate(), "") << k.key;
    }
}

TEST(ExperimentConfig, KeyTablesCoverKAllKeysExactly)
{
    std::vector<std::string> all(std::begin(keys::kAllKeys),
                                 std::end(keys::kAllKeys));
    std::vector<std::string> landed;
    for (const KeyLanding &k : keyLandings())
        landed.push_back(k.key);
    std::sort(all.begin(), all.end());
    std::sort(landed.begin(), landed.end());
    EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(),
              all.size())
        << "kAllKeys lists a key twice";
    EXPECT_EQ(landed, all);
    EXPECT_EQ(ExperimentConfig::knownKeys(), all);
}

TEST(ExperimentConfig, FormerSentinelMinusOneIsANamedError)
{
    // writeHighWatermark, writeLowWatermark, refabStaggerDivisor and
    // maxOverlappedRefPb once took -1 for "keep the default"; it is
    // now an ordinary bad value, named whichever layer sets it.
    const std::string path =
        ::testing::TempDir() + "/dsarp_sentinel_test.cfg";
    for (const char *key :
         {keys::kWriteHighWatermark, keys::kWriteLowWatermark,
          keys::kRefabStaggerDivisor, keys::kMaxOverlappedRefPb}) {
        const std::string assignment = std::string(key) + "=-1";
        const std::string named = std::string("config key '") + key + "'";

        const CliResult cli = parseCommandLine({"--set", assignment});
        ASSERT_EQ(cli.action, CliAction::Run) << key;
        EXPECT_NE(cli.config.validate().find(named), std::string::npos)
            << key << ": " << cli.config.validate();

        {
            std::ofstream out(path);
            out << assignment << "\n";
        }
        ExperimentConfig file;
        file.applyFile(path);
        EXPECT_NE(file.validate().find(named), std::string::npos)
            << key << ": " << file.validate();

        setenv("DSARP_SET", assignment.c_str(), 1);
        ExperimentConfig env;
        env.applyEnv();
        unsetenv("DSARP_SET");
        EXPECT_NE(env.validate().find(named), std::string::npos)
            << key << ": " << env.validate();
    }
    std::remove(path.c_str());
}

TEST(ExperimentConfig, MechanismNameCanonicalises)
{
    ExperimentConfig cfg;
    cfg.sys.mem.policy = "sarp_ab";
    EXPECT_EQ(cfg.mechanismName(), "SARPab");
}

TEST(Simulation, BuilderRunsTheFullPipeline)
{
    RunResult res = Simulation::builder()
                        .policy("REFab")
                        .densityGb(8)
                        .cores(2)
                        .intensityPct(100)
                        .warmupCycles(2000)
                        .measureCycles(15000)
                        .build()
                        .run();
    ASSERT_EQ(res.ipc.size(), 2u);
    EXPECT_GT(res.ipc[0], 0.0);
    EXPECT_GT(res.ws, 0.0);
    EXPECT_GT(res.readsCompleted, 0u);
    EXPECT_GT(res.refAb, 0u);
    EXPECT_GT(res.energyPerAccessNj, 0.0);
}

TEST(Simulation, KeyValueOverridesReachTheSystem)
{
    Simulation sim = Simulation::builder()
                         .apply("policy=REFpb")
                         .set("numCores", "2")
                         .set("densityGb", "8")
                         .warmupCycles(1000)
                         .measureCycles(10000)
                         .build();
    EXPECT_EQ(sim.mechanismName(), "REFpb");
    EXPECT_EQ(sim.workload().benchIdx.size(), 2u);
    const RunResult res = sim.run();
    EXPECT_GT(res.refPb, 0u);  // Per-bank commands prove the override.
    EXPECT_EQ(res.refAb, 0u);
}

TEST(SimulationDeath, InvalidConfigNamesTheKey)
{
    EXPECT_EXIT(Simulation::builder().policy("REFab").cores(-3).build(),
                testing::ExitedWithCode(1), "numCores");
    EXPECT_EXIT(Simulation::builder().policy("what").build(),
                testing::ExitedWithCode(1),
                "unknown refresh policy 'what'");
}
