/**
 * @file
 * Golden paper-reproduction baselines.
 *
 * PR 3 pinned the energy model's DDR3-1333 golden values; this suite
 * pins the *end-to-end* numbers the paper reproduction rests on: the
 * DDR3-1333 REFab and DSARP weighted speedups and energies per access
 * of a fixed workload under fixed run lengths and seeds, plus the
 * DDR5-4800 REFsb golden added with the same-bank backend. Two more
 * anchor paths those three never reach: a DDR4 open-loop DSARP run
 * and a near-idle DDR5 self-refresh DSARP run. Any refactor that
 * silently shifts scheduling, timing derivation, the address map, a
 * fast path's certificate, or the energy model trips these literals
 * loudly.
 *
 * Two more goldens assemble the same run from key=value overrides
 * through the Simulation builder, so the path from a config key to
 * the SystemConfig the System runs is pinned too.
 *
 * Each golden also pins the run's command-stream digest (every
 * command's tick, type and target, in issue order), which moves on a
 * reordered command that leaves every counter and speedup unchanged.
 *
 * The literals were produced by this exact configuration at the
 * commit that introduced (or last intentionally changed) them. An
 * intentional behaviour change must update them in the same commit,
 * with the rationale in the commit message. Run lengths are explicit
 * (never the DSARP_BENCH_* environment knobs), so the goldens cannot
 * drift with CI scaling.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

/** Fixed-scale run: explicit lengths, one 50%-intensive 8-core mix. */
RunResult
goldenRun(const std::string &spec, const std::string &policy,
          int banksPerRank = 8)
{
    Runner runner(2000, 20000, 1);
    RunConfig cfg;
    cfg.density = Density::k32Gb;
    cfg.dramSpec = spec;
    cfg.policy = policy;
    cfg.seed = 1;
    SystemConfig sys = Runner::makeSystemConfig(cfg);
    sys.mem.org.banksPerRank = banksPerRank;
    const Workload w = makeWorkloads(1, 8, 1)[2];  // The 50% category.
    return runner.run(sys, w);
}

/**
 * The same fixed-scale run (8 cores, 32 Gb, the 50% mix, 2000 + 20000
 * cycles) assembled the way dsarp_sim assembles it: key=value
 * overrides through the Simulation builder. Pins the path from a key
 * to the SystemConfig the System runs.
 */
RunResult
keyPathRun(const std::vector<std::string> &overrides)
{
    Simulation::Builder builder = Simulation::builder();
    for (const std::string &assignment : overrides)
        builder.apply(assignment);
    return builder.apply("intensityPct=50")
        .apply("warmupCycles=2000")
        .apply("measureCycles=20000")
        .build()
        .run();
}

} // namespace

TEST(GoldenBaselines, Ddr3RefabPinned)
{
    const RunResult res = goldenRun("DDR3-1333", "REFab");
    EXPECT_NEAR(res.ws, 3.7907750040236921, 1e-9);
    EXPECT_NEAR(res.energyPerAccessNj, 7.8361748942917551, 1e-6);
    EXPECT_EQ(res.refAb, 32u);
    EXPECT_EQ(res.readsCompleted, 3618u);
    EXPECT_EQ(res.cmdDigest, 0xf9314189d726e125ULL);
}

TEST(GoldenBaselines, Ddr3DsarpPinned)
{
    const RunResult res = goldenRun("DDR3-1333", "DSARP");
    EXPECT_NEAR(res.ws, 4.8628814159595795, 1e-9);
    EXPECT_NEAR(res.energyPerAccessNj, 6.3576246540214916, 1e-6);
    EXPECT_EQ(res.refPb, 237u);
    EXPECT_EQ(res.readsCompleted, 4701u);
    EXPECT_EQ(res.cmdDigest, 0x95f654e6736ff1f3ULL);
}

TEST(GoldenBaselines, Ddr5RefsbPinned)
{
    // The canonical DDR5 geometry: 8 bank groups x 4 banks per rank.
    const RunResult res = goldenRun("DDR5-4800", "REFsb", 32);
    EXPECT_NEAR(res.ws, 5.6283843098162691, 1e-9);
    EXPECT_NEAR(res.energyPerAccessNj, 2.0697898624249702, 1e-6);
    EXPECT_EQ(res.refSb, 90u);
    EXPECT_EQ(res.refPb, 0u);
    EXPECT_EQ(res.readsCompleted, 1925u);
    EXPECT_EQ(res.cmdDigest, 0x6f1867453a019542ULL);
}

TEST(GoldenBaselines, Ddr4OpenLoopDsarpPinned)
{
    // Open loop, no core model: the injector, write drain and DARP's
    // write-refresh overlap, which the closed-loop goldens never reach.
    Runner runner(2000, 20000, 1);
    RunConfig cfg;
    cfg.density = Density::k32Gb;
    cfg.dramSpec = "DDR4-2400";
    cfg.policy = "DSARP";
    cfg.seed = 1;
    cfg.traffic.mode = "poisson";
    cfg.traffic.ratePerKilocycle = 200.0;
    cfg.traffic.tenants = 4;
    cfg.traffic.readPct = 60;
    cfg.traffic.hotRowPct = 50.0;
    const RunResult res = runner.runTraffic(cfg);
    EXPECT_NEAR(res.readLatency.percentile(99), 293.56000000000040, 1e-9);
    EXPECT_EQ(res.readsCompleted, 2422u);
    EXPECT_EQ(res.cmdDigest, 0xc3d70f0a8e7d545cULL);
}

TEST(GoldenBaselines, Ddr5SelfRefreshDsarpPinned)
{
    // Near-idle DDR5 sub-channels with command-level self-refresh:
    // SRE/SRX and ledger pause/resume, on a 0%-intensive mix.
    Runner runner(2000, 20000, 1);
    RunConfig cfg;
    cfg.density = Density::k32Gb;
    cfg.dramSpec = "DDR5-4800";
    cfg.addressMap = "ddr5-subch";
    cfg.policy = "DSARP";
    cfg.srIdleEntryCycles = 750;
    cfg.seed = 1;
    const RunResult res = runner.run(cfg, makeWorkloads(4, 8, 1)[2]);
    EXPECT_NEAR(res.ws, 5.7734940124650853, 1e-9);
    EXPECT_NEAR(res.energyPerAccessNj, 7.0569467063282341, 1e-6);
    EXPECT_EQ(res.srEnters, 23u);
    EXPECT_EQ(res.srExits, 22u);
    EXPECT_EQ(res.cmdDigest, 0xaa766736ef0b734eULL);
}

TEST(GoldenBaselines, KeyPathHiraKnobsPinned)
{
    // HiRA's delay, overlapped per-bank refresh, both write watermarks
    // and the even cross-channel stagger, each set by its key.
    const RunResult res = keyPathRun(
        {"policy=HiRA", "refresh.hiraDelay=8", "maxOverlappedRefPb=2",
         "writeHighWatermark=40", "writeLowWatermark=16",
         "refresh.channelStagger=-1"});
    EXPECT_NEAR(res.ws, 4.2207915563313581, 1e-9);
    EXPECT_EQ(res.refPbHidden, 657u);
    EXPECT_EQ(res.cmdDigest, 0xe16f6062bb5b5e84ULL);
}

TEST(GoldenBaselines, KeyPathRefabKnobsPinned)
{
    // REFab's rank stagger, an explicit zero low watermark and an
    // explicit cross-channel stagger, each set by its key.
    const RunResult res = keyPathRun(
        {"policy=REFab", "refabStaggerDivisor=2", "writeLowWatermark=0",
         "writeHighWatermark=48", "refresh.channelStagger=700"});
    EXPECT_NEAR(res.ws, 2.5578814924087001, 1e-9);
    EXPECT_EQ(res.refAb, 31u);
    EXPECT_EQ(res.cmdDigest, 0xc908612be810cd45ULL);
}
