/**
 * @file
 * Tests for the layered ExperimentConfig (key=value overrides from
 * code, files, and the environment, with named-key errors) and the
 * Simulation facade built on top of it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

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

    EXPECT_EQ(cfg.policy, "REFpb");
    EXPECT_EQ(cfg.densityGb, 16);
    EXPECT_EQ(cfg.numCores, 4);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_FALSE(cfg.darpWriteRefresh);
    EXPECT_TRUE(cfg.enableChecker);
}

TEST(ExperimentConfig, KeysAreCaseInsensitiveAndTrimmed)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.trySet("NUMCORES", " 2 "), "");
    EXPECT_EQ(cfg.numCores, 2);
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
    EXPECT_EQ(cfg.numCores, 8);  // Unchanged on error.

    const std::string bool_err = cfg.trySet("enableChecker", "maybe");
    EXPECT_NE(bool_err.find("config key 'enableChecker'"),
              std::string::npos)
        << bool_err;
}

TEST(ExperimentConfig, ValidateReportsEveryBadKey)
{
    ExperimentConfig cfg;
    cfg.policy = "nonesuch";
    cfg.densityGb = 12;
    cfg.intensityPct = 40;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'policy'"), std::string::npos) << err;
    EXPECT_NE(err.find("config key 'densityGb'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("config key 'intensityPct'"), std::string::npos)
        << err;
}

TEST(ExperimentConfig, ValidateDelegatesMemChecks)
{
    ExperimentConfig cfg;
    cfg.writeLowWatermark = 60;
    cfg.writeHighWatermark = 50;
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
    EXPECT_EQ(cfg.policy, "SARPpb");
    EXPECT_EQ(cfg.densityGb, 8);
    EXPECT_EQ(cfg.numCores, 2);

    // Later layers (env, CLI) override earlier ones.
    cfg.set("densityGb", "32");
    EXPECT_EQ(cfg.densityGb, 32);
    std::remove(path.c_str());
}

TEST(ExperimentConfig, EnvOverridesViaDsarpSet)
{
    setenv("DSARP_SET", "policy=Elastic, numCores=4", 1);
    ExperimentConfig cfg;
    cfg.applyEnv();
    unsetenv("DSARP_SET");
    EXPECT_EQ(cfg.policy, "Elastic");
    EXPECT_EQ(cfg.numCores, 4);
}

TEST(ExperimentConfig, ToSystemConfigProjection)
{
    ExperimentConfig cfg;
    cfg.policy = "dsarp";
    cfg.densityGb = 16;
    cfg.retentionMs = 64;
    cfg.subarraysPerBank = 4;
    cfg.numCores = 2;
    cfg.writeLowWatermark = 16;
    cfg.writeHighWatermark = 40;
    cfg.maxOverlappedRefPb = 2;
    cfg.seed = 7;

    const SystemConfig sys = cfg.toSystemConfig();
    EXPECT_EQ(sys.mem.policy, "dsarp");
    EXPECT_EQ(sys.mem.density, Density::k16Gb);
    EXPECT_EQ(sys.mem.retentionMs, 64);
    EXPECT_EQ(sys.mem.org.subarraysPerBank, 4);
    EXPECT_EQ(sys.mem.writeLowWatermark, 16);
    EXPECT_EQ(sys.mem.writeHighWatermark, 40);
    EXPECT_EQ(sys.mem.maxOverlappedRefPb, 2);
    EXPECT_EQ(sys.numCores, 2);
    EXPECT_EQ(sys.seed, 7u);

    // The -1 sentinels keep the MemConfig defaults...
    const SystemConfig defaults = ExperimentConfig{}.toSystemConfig();
    EXPECT_EQ(defaults.mem.writeLowWatermark, 32);
    EXPECT_EQ(defaults.mem.writeHighWatermark, 54);
    EXPECT_EQ(defaults.mem.maxOverlappedRefPb, 1);

    // ...but an explicit 0 is an override, not a fallback.
    ExperimentConfig zero;
    zero.writeLowWatermark = 0;
    EXPECT_EQ(zero.validate(), "");
    EXPECT_EQ(zero.toSystemConfig().mem.writeLowWatermark, 0);

    // And negative values (other than the -1 sentinel) are named, not
    // silently replaced by the default.
    ExperimentConfig negative;
    negative.writeHighWatermark = -5;
    const std::string err = negative.validate();
    EXPECT_NE(err.find("'writeHighWatermark'"), std::string::npos) << err;
}

TEST(ExperimentConfig, MechanismNameCanonicalises)
{
    ExperimentConfig cfg;
    cfg.policy = "sarp_ab";
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
