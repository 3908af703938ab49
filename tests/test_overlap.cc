/**
 * @file
 * Tests for the overlapped per-bank refresh extension (paper footnote 5:
 * a modified standard that lets a subset of banks refresh concurrently
 * within a rank).
 */

#include <gtest/gtest.h>

#include "refresh/registry.hh"
#include "sim/checker.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

class OverlapTest : public ::testing::Test
{
  protected:
    MemConfig
    makeCfg(int max_overlap)
    {
        MemConfig cfg;
        cfg.policy = "REFpb";
        RefreshPolicyRegistry::instance().resolve(cfg);
        cfg.maxOverlappedRefPb = max_overlap;
        cfg.finalize();
        return cfg;
    }
};

} // namespace

TEST_F(OverlapTest, StandardDisallowsOverlap)
{
    MemConfig cfg = makeCfg(1);
    const TimingParams timing = TimingParams::forConfig(cfg);
    Rank rank(&cfg, &timing);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    EXPECT_FALSE(rank.canRefPbRankLevel(1));
    EXPECT_TRUE(rank.canRefPbRankLevel(Tick(0) + timing.tRfcPb));
}

TEST_F(OverlapTest, ExtensionAllowsBoundedOverlap)
{
    MemConfig cfg = makeCfg(3);
    const TimingParams timing = TimingParams::forConfig(cfg);
    Rank rank(&cfg, &timing);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    EXPECT_TRUE(rank.canRefPbRankLevel(1));
    rank.onRefresh(1, {.type = CommandType::kRefPb, .bank = 1});
    EXPECT_TRUE(rank.canRefPbRankLevel(2));
    rank.onRefresh(2, {.type = CommandType::kRefPb, .bank = 2});
    EXPECT_EQ(rank.refPbCount(3), 3);
    EXPECT_FALSE(rank.canRefPbRankLevel(3)) << "limit is 3";
    // The first refresh finishing frees a slot.
    EXPECT_TRUE(rank.canRefPbRankLevel(Tick(0) + timing.tRfcPb));
}

TEST_F(OverlapTest, RefAbStillNeedsQuietRank)
{
    MemConfig cfg = makeCfg(4);
    const TimingParams timing = TimingParams::forConfig(cfg);
    Rank rank(&cfg, &timing);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    EXPECT_FALSE(rank.canRefAb(1));
    EXPECT_TRUE(rank.canRefAb(Tick(0) + timing.tRfcPb));
}

TEST_F(OverlapTest, InflationScalesWithInFlightCount)
{
    MemConfig cfg = makeCfg(4);
    EXPECT_DOUBLE_EQ(Rank::refreshInflationMult(cfg, false, 0), 1.0);
    const double one = Rank::refreshInflationMult(cfg, false, 1);
    const double two = Rank::refreshInflationMult(cfg, false, 2);
    EXPECT_DOUBLE_EQ(one, cfg.sarpInflationPb);
    EXPECT_NEAR(two - 1.0, 2.0 * (one - 1.0), 1e-12);

    // Baseline (no SARP, no overlap): no inflation ever.
    MemConfig plain = makeCfg(1);
    EXPECT_DOUBLE_EQ(Rank::refreshInflationMult(plain, false, 1), 1.0);
}

TEST_F(OverlapTest, CheckerFlagsOverlapBeyondLimit)
{
    MemConfig cfg = makeCfg(2);
    const TimingParams timing = TimingParams::forConfig(cfg);
    const auto ref = [](Tick t, BankId b) {
        Command cmd;
        cmd.type = CommandType::kRefPb;
        cmd.rank = 0;
        cmd.bank = b;
        return TimedCommand{t, cmd};
    };
    // Two concurrent: legal at limit 2; a third overlapping: violation.
    const std::vector<TimedCommand> ok = {ref(0, 0), ref(1, 1)};
    EXPECT_TRUE(verifyCommandLog(ok, cfg, timing, 0).ok());
    const std::vector<TimedCommand> bad = {ref(0, 0), ref(1, 1),
                                           ref(2, 2)};
    EXPECT_FALSE(verifyCommandLog(bad, cfg, timing, 0).ok());
}

TEST_F(OverlapTest, SystemRunsLegallyWithOverlap)
{
    for (int overlap : {2, 4}) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.mem.org.channels = 1;
        cfg.mem.density = Density::k32Gb;
        cfg.mem.policy = "DSARP";
        cfg.mem.maxOverlappedRefPb = overlap;
        cfg.enableChecker = true;
        System sys(cfg, {benchmarkIndex("mcf-like"),
                         benchmarkIndex("stream-like")});
        sys.run(Tick(0) + 10 * sys.timing().tRefiAb);
        const CheckerReport report = verifyCommandLog(
            sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
        EXPECT_TRUE(report.ok())
            << "overlap " << overlap << ": "
            << (report.violations.empty() ? ""
                                          : report.violations.front());
        EXPECT_GT(sys.controller(0).stats().readsCompleted, 100u);
    }
}

TEST_F(OverlapTest, OverlapRelievesRefpbSerializationPathology)
{
    // Paper Section 6.1: REFpb's serialized refreshes cost ~3.5x tRFCab
    // per full rank sweep. With overlap the sweep compresses; catch-up
    // after a congested phase is faster, so at minimum the system must
    // not do worse.
    auto reads_with = [&](int overlap) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.mem.org.channels = 1;
        cfg.mem.density = Density::k32Gb;
        cfg.mem.policy = "REFpb";
        cfg.mem.maxOverlappedRefPb = overlap;
        cfg.seed = 11;
        System sys(cfg, {benchmarkIndex("mcf-like"),
                         benchmarkIndex("randacc-like")});
        sys.run(120000);
        return sys.controller(0).stats().readsCompleted;
    };
    const auto base = reads_with(1);
    const auto overlapped = reads_with(4);
    EXPECT_GE(overlapped, base * 97 / 100);
}
