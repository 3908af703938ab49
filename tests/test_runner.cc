/**
 * @file
 * Unit tests for the experiment runner: config copying, environment
 * knobs, alone-IPC caching, and metric plumbing.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/log.hh"
#include "sim/runner.hh"

using namespace dsarp;

TEST(RunnerConfig, DefaultMechanismIsREFab)
{
    EXPECT_EQ(Runner::makeSystemConfig(RunConfig{}).mem.policy, "REFab");
}

TEST(RunnerConfig, MakeSystemConfigCopiesKnobs)
{
    RunConfig cfg;
    cfg.policy = "DSARP";
    cfg.density = Density::k16Gb;
    cfg.subarraysPerBank = 32;
    cfg.tFawOverride = 10;
    cfg.numCores = 4;
    cfg.retentionMs = 64;
    const SystemConfig sys = Runner::makeSystemConfig(cfg);
    EXPECT_EQ(sys.mem.density, Density::k16Gb);
    EXPECT_EQ(sys.mem.org.subarraysPerBank, 32);
    EXPECT_EQ(sys.mem.tFawOverride, 10);
    EXPECT_EQ(sys.numCores, 4);
    EXPECT_EQ(sys.mem.retentionMs, 64);
    EXPECT_EQ(sys.mem.policy, "DSARP");
}

TEST(RunnerConfig, OptionalKnobsDefaultToMemConfig)
{
    RunConfig cfg;
    cfg.policy = "REFpb";
    const SystemConfig sys = Runner::makeSystemConfig(cfg);
    const MemConfig defaults;
    EXPECT_EQ(sys.mem.writeHighWatermark, defaults.writeHighWatermark);
    EXPECT_EQ(sys.mem.writeLowWatermark, defaults.writeLowWatermark);
    EXPECT_EQ(sys.mem.refabStaggerDivisor, defaults.refabStaggerDivisor);
    EXPECT_EQ(sys.mem.maxOverlappedRefPb, defaults.maxOverlappedRefPb);
}

TEST(RunnerConfig, OptionalKnobsOverrideWhenSet)
{
    RunConfig cfg;
    cfg.policy = "REFpb";
    cfg.writeHighWatermark = 48;
    cfg.writeLowWatermark = 16;
    cfg.refabStaggerDivisor = 2;
    cfg.maxOverlappedRefPb = 4;
    const SystemConfig sys = Runner::makeSystemConfig(cfg);
    EXPECT_EQ(sys.mem.writeHighWatermark, 48);
    EXPECT_EQ(sys.mem.writeLowWatermark, 16);
    EXPECT_EQ(sys.mem.refabStaggerDivisor, 2);
    EXPECT_EQ(sys.mem.maxOverlappedRefPb, 4);
}

TEST(RunnerConfig, EnvKnob)
{
    unsetenv("DSARP_TEST_KNOB");
    EXPECT_EQ(envKnob("DSARP_TEST_KNOB", 7), 7u);
    setenv("DSARP_TEST_KNOB", "123", 1);
    EXPECT_EQ(envKnob("DSARP_TEST_KNOB", 7), 123u);
    unsetenv("DSARP_TEST_KNOB");
}

TEST(RunnerConfig, EnvKnobRejectsMalformedValues)
{
    // A set-but-broken knob is a named fatal error, not a silent
    // fallback: "100x" used to run a 100-cycle benchmark without a
    // word. Trailing junk, out-of-range, negative, and non-numeric
    // values must all be rejected.
    struct Catcher
    {
        static void handler(const char *, int, const char *) { throw 1; }
    };
    const FatalHandler prev = setFatalHandler(&Catcher::handler);
    for (const char *bad :
         {"garbage", "100x", "-5", "0", "99999999999999999999"}) {
        setenv("DSARP_TEST_KNOB", bad, 1);
        EXPECT_THROW(envKnob("DSARP_TEST_KNOB", 7), int)
            << "value '" << bad << "' should be fatal";
    }
    unsetenv("DSARP_TEST_KNOB");
    setFatalHandler(prev);
}

namespace {

/** Runner with short windows for fast tests. */
class ShortRunner : public ::testing::Test
{
  protected:
    ShortRunner()
    {
        setenv("DSARP_BENCH_CYCLES", "40000", 1);
        setenv("DSARP_BENCH_WARMUP", "8000", 1);
        runner_ = std::make_unique<Runner>();
    }

    ~ShortRunner() override
    {
        unsetenv("DSARP_BENCH_CYCLES");
        unsetenv("DSARP_BENCH_WARMUP");
    }

    std::unique_ptr<Runner> runner_;
};

} // namespace

TEST_F(ShortRunner, EnvControlsWindows)
{
    EXPECT_EQ(runner_->measureTicks(), 40000u);
    EXPECT_EQ(runner_->warmupTicks(), 8000u);
}

TEST_F(ShortRunner, AloneIpcCachedAndPositive)
{
    RunConfig cfg;  // REFab at 8 Gb.
    const double a = runner_->aloneIpc(10, cfg);
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, 3.0);
    // Second call must be a cache hit with the identical value.
    EXPECT_DOUBLE_EQ(runner_->aloneIpc(10, cfg), a);
    // A different density is a different cache entry (footprints move).
    cfg.density = Density::k32Gb;
    const double b = runner_->aloneIpc(10, cfg);
    EXPECT_GT(b, 0.0);
}

TEST_F(ShortRunner, AloneIpcRunsAtTheDefaultSeed)
{
    // The memo key leaves the seed out, so the baseline must not depend
    // on it: a fresh key asked for at seed 7 gets the seed-1 IPC.
    SystemConfig sys;
    sys.mem.readQueueSize = 40;  // A key no other test asks for.
    sys.seed = 7;
    const double cached = runner_->aloneIpc(3, sys);

    SystemConfig alone = sys;
    alone.seed = 1;
    alone.mem.policy = "NoREF";
    alone.numCores = 1;
    alone.enableChecker = false;
    System direct(alone, std::vector<int>{3});
    direct.run(runner_->warmupTicks());
    direct.resetStats();
    direct.run(runner_->measureTicks());
    EXPECT_DOUBLE_EQ(cached, direct.coreIpc()[0]);
}

TEST_F(ShortRunner, RunProducesConsistentMetrics)
{
    const auto workloads = makeIntensiveWorkloads(1, 8, 11);
    RunConfig cfg;
    cfg.policy = "REFpb";
    const RunResult res = runner_->run(cfg, workloads[0]);
    ASSERT_EQ(res.ipc.size(), 8u);
    ASSERT_EQ(res.aloneIpc.size(), 8u);
    EXPECT_GT(res.ws, 0.0);
    EXPECT_LE(res.ws, 8.0 + 1e-9);
    EXPECT_GT(res.hs, 0.0);
    EXPECT_GE(res.maxSlowdown, 1.0 - 1e-6);
    EXPECT_GT(res.energyPerAccessNj, 0.0);
    EXPECT_GT(res.readsCompleted, 0u);
    EXPECT_GT(res.refPb, 0u);
    EXPECT_EQ(res.refAb, 0u);
}

TEST_F(ShortRunner, DeterministicAcrossRuns)
{
    const auto workloads = makeIntensiveWorkloads(1, 8, 13);
    RunConfig darp;
    darp.policy = "DARP";
    const RunResult a = runner_->run(darp, workloads[0]);
    const RunResult b = runner_->run(darp, workloads[0]);
    EXPECT_DOUBLE_EQ(a.ws, b.ws);
    EXPECT_EQ(a.readsCompleted, b.readsCompleted);
}
