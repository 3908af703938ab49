/**
 * @file
 * Parameterized geometry sweep: the simulator must stay legal and make
 * progress across channel/rank counts and retention settings, for the
 * paper's three headline mechanisms. Complements test_property.cc,
 * which sweeps mechanisms x densities at fixed geometry.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/checker.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

/** (channels, ranks, retentionMs, mechanism) */
using GeomPoint = std::tuple<int, int, int, const char *>;

class GeometryProperty : public ::testing::TestWithParam<GeomPoint>
{
};

std::string
name(const ::testing::TestParamInfo<GeomPoint> &info)
{
    const auto [ch, ranks, ret, mech] = info.param;
    return "ch" + std::to_string(ch) + "_rk" + std::to_string(ranks) +
        "_ret" + std::to_string(ret) + "_" + mech;
}

} // namespace

TEST_P(GeometryProperty, LegalAndLive)
{
    const auto [channels, ranks, retention, mech] = GetParam();

    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = channels;
    cfg.mem.org.ranksPerChannel = ranks;
    cfg.mem.retentionMs = retention;
    cfg.mem.policy = mech;
    cfg.enableChecker = true;
    cfg.seed = 29;

    System sys(cfg, {benchmarkIndex("milc-like"),
                     benchmarkIndex("soplex-like")});
    sys.run(Tick(0) + 8 * sys.timing().tRefiAb);

    std::uint64_t reads = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        reads += sys.controller(ch).stats().readsCompleted;
        const CheckerReport report =
            verifyCommandLog(sys.commandLog(ch), sys.config().mem,
                             sys.timing(), sys.now());
        EXPECT_TRUE(report.ok())
            << "ch" << ch << ": "
            << (report.violations.empty() ? ""
                                          : report.violations.front());
        EXPECT_GT(report.refreshesChecked, 0u);
    }
    EXPECT_GT(reads, 200u);
    EXPECT_GT(sys.core(0).stats().instructionsRetired, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Channels, GeometryProperty,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(32),
                       ::testing::Values("REFab", "REFpb", "DARP")),
    name);

INSTANTIATE_TEST_SUITE_P(
    Retention64, GeometryProperty,
    ::testing::Combine(::testing::Values(1), ::testing::Values(2),
                       ::testing::Values(64),
                       ::testing::Values("REFab", "REFpb", "DARP",
                                         "SARPab", "SARPpb", "DSARP")),
    name);

namespace {

/** Retention halves the refresh rate: commands should too. */
TEST(GeometryExtras, RetentionScalesRefreshCount)
{
    auto refs_at = [](int retention) {
        SystemConfig cfg;
        cfg.numCores = 2;
        cfg.mem.org.channels = 1;
        cfg.mem.retentionMs = retention;
        cfg.mem.policy = "REFab";
        System sys(cfg, {benchmarkIndex("gcc-like"),
                         benchmarkIndex("milc-like")});
        sys.run(60000);
        return sys.controller(0).channel().stats().refAb;
    };
    const auto at32 = refs_at(32);
    const auto at64 = refs_at(64);
    EXPECT_GT(at32, at64);
    EXPECT_NEAR(static_cast<double>(at32) / at64, 2.0, 0.3);
}

TEST(GeometryExtras, MoreChannelsMoreThroughput)
{
    auto reads_with = [](int channels) {
        SystemConfig cfg;
        cfg.numCores = 4;
        cfg.mem.org.channels = channels;
        cfg.mem.policy = "REFpb";
        System sys(cfg, {benchmarkIndex("stream-like"),
                         benchmarkIndex("mcf-like"),
                         benchmarkIndex("milc-like"),
                         benchmarkIndex("lbm-like")});
        sys.run(80000);
        std::uint64_t reads = 0;
        for (int ch = 0; ch < sys.numChannels(); ++ch)
            reads += sys.controller(ch).stats().readsCompleted;
        return reads;
    };
    EXPECT_GT(reads_with(2), reads_with(1) * 14 / 10)
        << "doubling channels should add substantial bandwidth";
}

} // namespace
