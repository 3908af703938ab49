/**
 * @file
 * Parameterized property sweep: every (mechanism, density) point
 * must produce a JEDEC-legal command stream (independent checker), keep
 * every bank's refresh obligations inside the postpone window, and make
 * forward progress.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/checker.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

using Point = std::tuple<const char *, Density>;

class RefreshProperty : public ::testing::TestWithParam<Point>
{
};

std::string
pointName(const ::testing::TestParamInfo<Point> &info)
{
    const auto [mech, density] = info.param;
    return std::string(mech) + "_" + densityName(density);
}

} // namespace

TEST_P(RefreshProperty, LegalStreamAndProgress)
{
    const auto [mech, density] = GetParam();

    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.density = density;
    cfg.mem.policy = mech;
    cfg.enableChecker = true;
    cfg.seed = 17;

    System sys(cfg, {benchmarkIndex("milc-like"),
                     benchmarkIndex("lbm-like")});
    const Tick horizon = Tick(0) + 15 * sys.timing().tRefiAb;
    sys.run(horizon);

    // 1. Forward progress.
    EXPECT_GT(sys.core(0).stats().instructionsRetired, 1000u);
    EXPECT_GT(sys.controller(0).stats().readsCompleted, 100u);

    // 2. Independent legality check, including refresh completeness.
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    if (sys.config().mem.refresh != RefreshMode::kNoRefresh) {
        EXPECT_GT(report.refreshesChecked, 0u);
    }

    // 3. No request starves: queues drain (occupancy stays bounded).
    const ControllerStats &cs = sys.controller(0).stats();
    EXPECT_LT(static_cast<double>(cs.readQueueOccupancySum) / cs.ticks,
              63.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, RefreshProperty,
    ::testing::Combine(
        ::testing::Values("NoREF", "REFab", "REFpb", "Elastic", "DARP",
                          "FGR2x", "FGR4x", "AR"),
        ::testing::Values(Density::k8Gb, Density::k32Gb)),
    pointName);

INSTANTIATE_TEST_SUITE_P(
    SarpMechanisms, RefreshProperty,
    ::testing::Combine(
        ::testing::Values("SARPab", "SARPpb", "DSARP"),
        ::testing::Values(Density::k8Gb, Density::k16Gb, Density::k32Gb)),
    pointName);

namespace {

using SubarrayPoint = std::tuple<int, Density>;

class SubarrayProperty : public ::testing::TestWithParam<SubarrayPoint>
{
};

} // namespace

TEST_P(SubarrayProperty, SarpLegalAcrossSubarrayCounts)
{
    const auto [subarrays, density] = GetParam();
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.org.subarraysPerBank = subarrays;
    cfg.mem.density = density;
    cfg.mem.policy = "SARPpb";
    cfg.enableChecker = true;
    cfg.seed = 23;

    System sys(cfg, {benchmarkIndex("mcf-like"),
                     benchmarkIndex("stream-like")});
    sys.run(Tick(0) + 10 * sys.timing().tRefiAb);

    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    EXPECT_GT(sys.controller(0).stats().readsCompleted, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Table5Sweep, SubarrayProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32, 64),
                       ::testing::Values(Density::k32Gb)),
    [](const ::testing::TestParamInfo<SubarrayPoint> &info) {
        return "sa" + std::to_string(std::get<0>(info.param)) + "_" +
            densityName(std::get<1>(info.param));
    });
