/**
 * @file
 * Determinism contract of the sharded sweep layer (sim/parallel.hh).
 *
 * The SweepRunner promises that result i corresponds to points[i] and
 * is byte-identical for ANY job count and ANY shard order -- that is
 * the property that lets every fig/table binary grow a --jobs flag
 * without perturbing a single published number. This suite pins it:
 *
 *   - jobs 1 / 2 / 8 produce exactly equal RunResult vectors (every
 *     field, doubles compared with ==, no tolerance),
 *   - permuting the point list permutes the results and nothing else
 *     (no cross-point leakage through the shared alone-IPC memo),
 *   - parallelFor runs each index exactly once and rethrows worker
 *     exceptions on the caller,
 *   - pointSeed depends only on (base, index),
 *   - a point with open-loop traffic enabled runs through
 *     Runner::runTraffic.
 *
 * The whole file runs under the CI sanitizer matrix (including TSan),
 * so the jobs=8 legs double as a data-race probe of Runner::run's
 * shared memo cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/parallel.hh"
#include "sim/runner.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

/** Short but non-trivial run lengths: long enough for refreshes and
 *  real WS numbers, short enough for an 18-point x 4-leg suite. */
Runner &
testRunner()
{
    static Runner runner(Tick(2000), Tick(12000), 1);
    return runner;
}

std::vector<SweepPoint>
makePoints()
{
    std::vector<SweepPoint> points;
    const auto workloads = makeWorkloads(1, 4, 7);
    const char *const mechs[] = {"REFab", "REFpb", "DSARP"};
    for (const char *mech : mechs) {
        for (const Workload &w : workloads) {
            SweepPoint p;
            p.cfg.mem.policy = mech;
            p.cfg.numCores = 4;
            p.cfg.mem.density = Density::k16Gb;
            p.workload = w;
            points.push_back(p);
        }
    }
    return points;
}

void
expectResultsEqual(const RunResult &a, const RunResult &b,
                   const std::string &ctx)
{
    EXPECT_EQ(a.ipc, b.ipc) << ctx;
    EXPECT_EQ(a.aloneIpc, b.aloneIpc) << ctx;
    EXPECT_EQ(a.ws, b.ws) << ctx;
    EXPECT_EQ(a.hs, b.hs) << ctx;
    EXPECT_EQ(a.maxSlowdown, b.maxSlowdown) << ctx;
    EXPECT_EQ(a.energyPerAccessNj, b.energyPerAccessNj) << ctx;
    EXPECT_EQ(a.readsCompleted, b.readsCompleted) << ctx;
    EXPECT_EQ(a.writesIssued, b.writesIssued) << ctx;
    EXPECT_EQ(a.refAb, b.refAb) << ctx;
    EXPECT_EQ(a.refPb, b.refPb) << ctx;
    EXPECT_EQ(a.refSb, b.refSb) << ctx;
    EXPECT_EQ(a.refPbHidden, b.refPbHidden) << ctx;
    EXPECT_EQ(a.srEnters, b.srEnters) << ctx;
    EXPECT_EQ(a.srExits, b.srExits) << ctx;
    EXPECT_EQ(a.srTicks, b.srTicks) << ctx;
}

} // namespace

TEST(ParallelFor, RunsEveryIndexExactlyOnceAtAnyWidth)
{
    for (int jobs : {1, 2, 8, 64}) {
        std::vector<std::atomic<int>> hits(97);
        for (auto &h : hits)
            h = 0;
        parallelFor(jobs, hits.size(),
                    [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(ParallelFor, ZeroItemsIsANoOp)
{
    bool ran = false;
    parallelFor(8, 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, WorkerExceptionRethrownOnCaller)
{
    std::atomic<int> completed{0};
    EXPECT_THROW(
        parallelFor(4, 32,
                    [&](std::size_t i) {
                        if (i == 13)
                            throw std::runtime_error("boom");
                        ++completed;
                    }),
        std::runtime_error);
    // All workers drained before the rethrow: nothing is still
    // touching `completed` once parallelFor returns.
    EXPECT_GE(completed.load(), 0);
}

TEST(PointSeed, DependsOnlyOnBaseAndIndex)
{
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 100; ++i) {
        const std::uint64_t s = SweepRunner::pointSeed(42, i);
        EXPECT_EQ(s, SweepRunner::pointSeed(42, i)) << i;
        EXPECT_TRUE(seen.insert(s).second)
            << "collision at index " << i;
    }
    EXPECT_NE(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(43, 0));
}

TEST(SweepRunner, JobCountNeverChangesAResult)
{
    const auto points = makePoints();
    ASSERT_GE(points.size(), 3u);

    const auto baseline = SweepRunner(testRunner(), 1).run(points);
    ASSERT_EQ(baseline.size(), points.size());
    for (int jobs : {2, 8}) {
        const auto got = SweepRunner(testRunner(), jobs).run(points);
        ASSERT_EQ(got.size(), points.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < points.size(); ++i) {
            expectResultsEqual(baseline[i], got[i],
                               "jobs=" + std::to_string(jobs) +
                                   " point=" + std::to_string(i));
        }
    }
}

TEST(SweepRunner, ShardOrderIndependent)
{
    // Reversing the point list must exactly reverse the results: each
    // point's outcome is a pure function of the point, not of its
    // neighbours, its slot, or which worker claimed it first.
    const auto points = makePoints();
    std::vector<SweepPoint> reversed(points.rbegin(), points.rend());

    const auto fwd = SweepRunner(testRunner(), 8).run(points);
    const auto rev = SweepRunner(testRunner(), 8).run(reversed);
    ASSERT_EQ(fwd.size(), rev.size());
    for (std::size_t i = 0; i < fwd.size(); ++i) {
        expectResultsEqual(fwd[i], rev[fwd.size() - 1 - i],
                           "point=" + std::to_string(i));
    }
}

TEST(SweepRunner, TrafficPointsRunOpenLoop)
{
    // An open-loop point has no workload: the sweep hands it to
    // Runner::runTraffic, next to closed-loop points in the same list.
    SystemConfig traffic;
    traffic.mem.policy = "DSARP";
    traffic.traffic.mode = "poisson";
    traffic.traffic.ratePerKilocycle = 40.0;
    std::vector<SweepPoint> points = makePoints();
    points.insert(points.begin() + 1, {traffic, Workload{}});

    const auto got = SweepRunner(testRunner(), 4).run(points);
    ASSERT_EQ(got.size(), points.size());
    const RunResult want = testRunner().runTraffic(traffic);
    expectResultsEqual(got[1], want, "traffic point");
    EXPECT_EQ(got[1].cmdDigest, want.cmdDigest);
    EXPECT_GT(got[1].readsCompleted, 0u);
    EXPECT_TRUE(got[1].ipc.empty());
    expectResultsEqual(got[0], testRunner().run(points[0].cfg,
                                                points[0].workload),
                       "closed-loop point");
}
