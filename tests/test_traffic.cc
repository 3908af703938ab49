/**
 * @file
 * Tests for the open-loop traffic front end (workload/arrival.hh):
 * histogram accuracy against an exact sorted reference, tenant
 * partitioning, engine/jobs bit-identity, the DRAMSim-style trace
 * reader, and full traffic runs through the Runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "dram/address.hh"
#include "sim/parallel.hh"
#include "sim/runner.hh"
#include "workload/arrival.hh"

using namespace dsarp;

namespace {

/** Exact percentile of a sorted sample (nearest-rank). */
double
exactPercentile(std::vector<std::uint64_t> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    const double target = p / 100.0 * static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(target);
    if (rank >= sorted.size())
        rank = sorted.size() - 1;
    return static_cast<double>(sorted[rank]);
}

/** A finalized AddressMap for the default DDR3 geometry. */
std::unique_ptr<AddressMap>
defaultMap()
{
    MemConfig cfg;
    cfg.finalize();
    return AddressMapRegistry::instance().make(cfg.addressMap, cfg.org);
}

TrafficConfig
poissonConfig(int tenants = 1)
{
    TrafficConfig cfg;
    cfg.mode = "poisson";
    cfg.ratePerKilocycle = 80.0;
    cfg.hotRowPct = 25.0;
    cfg.tenants = tenants;
    EXPECT_EQ(cfg.validate(), "");
    return cfg;
}

TEST(TrafficConfig, RejectsTracePathWithoutTraceMode)
{
    // A trace path under a non-trace mode must be a named error, not
    // silently dead config (the CLI's --trace implies the mode, but
    // the raw key layers can still disagree).
    TrafficConfig cfg = poissonConfig();
    cfg.tracePath = "mixed.trc";
    EXPECT_NE(cfg.validate().find("traffic.trace"), std::string::npos);
    EXPECT_NE(cfg.validate().find("traffic.mode=trace"),
              std::string::npos);
    cfg.mode = "off";
    EXPECT_NE(cfg.validate().find("traffic.trace"), std::string::npos);
}

TEST(TrafficConfig, RejectsOutOfRangePriorities)
{
    // An out-of-long-range priority used to pass the `v < 1` check
    // (strtol saturates to LONG_MAX) and then truncate to a garbage
    // int in priorityList(); anything that cannot survive the int
    // narrowing must fail validation by name.
    TrafficConfig cfg = poissonConfig(2);
    cfg.tenantPriorities = "99999999999999999999,1";
    EXPECT_NE(cfg.validate().find("tenant.priorities"),
              std::string::npos);
    cfg.tenantPriorities = "2147483648,1"; // INT_MAX + 1.
    EXPECT_NE(cfg.validate().find("tenant.priorities"),
              std::string::npos);
    cfg.tenantPriorities = "2147483647,1"; // INT_MAX itself is fine.
    EXPECT_EQ(cfg.validate(), "");
    EXPECT_EQ(cfg.priorityList()[0], 2147483647);
}

std::string
writeTemp(const std::string &name, const std::string &content)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram percentiles against an exact sorted reference.
// ---------------------------------------------------------------------

TEST(TrafficHistogram, PercentilesTrackExactReferenceWithinBound)
{
    // Log-normal-ish latencies spanning several octaves, like a real
    // latency distribution with a long tail.
    Rng rng(42);
    LatencyHistogram h;
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        const std::uint64_t v =
            50 + static_cast<std::uint64_t>(u * u * u * 20000.0);
        samples.push_back(v);
        h.add(v);
    }
    for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double exact = exactPercentile(samples, p);
        const double approx = h.percentile(p);
        // Documented contract: within kMaxRelativeError of the true
        // sample (plus one sample of rank slack at the extreme tail).
        EXPECT_NEAR(approx, exact,
                    exact * LatencyHistogram::kMaxRelativeError + 1.0)
            << "p" << p;
    }
}

TEST(TrafficHistogram, UniformSampleAccuracy)
{
    LatencyHistogram h;
    std::vector<std::uint64_t> samples;
    for (std::uint64_t v = 1; v <= 5000; ++v) {
        samples.push_back(v);
        h.add(v);
    }
    for (const double p : {25.0, 50.0, 75.0, 99.0}) {
        const double exact = exactPercentile(samples, p);
        EXPECT_NEAR(h.percentile(p), exact,
                    exact * LatencyHistogram::kMaxRelativeError + 1.0);
    }
}

// ---------------------------------------------------------------------
// Tenant partitioning.
// ---------------------------------------------------------------------

TEST(TrafficInjectorTest, TenantPartitionsDisjointAndRowAligned)
{
    const auto map = defaultMap();
    TrafficInjector inj(poissonConfig(4), *map, 1);
    ASSERT_EQ(inj.tenants(), 4);
    const Addr rowBytes = static_cast<Addr>(map->org().rowBytes);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(inj.tenantBase(i) % rowBytes, 0u);
        EXPECT_EQ(inj.tenantSize(i) % rowBytes, 0u);
        EXPECT_GE(inj.tenantSize(i), rowBytes);
        if (i > 0) {
            // Partitions tile the address space without overlap.
            EXPECT_EQ(inj.tenantBase(i),
                      inj.tenantBase(i - 1) + inj.tenantSize(i - 1));
        }
    }
    EXPECT_LE(inj.tenantBase(3) + inj.tenantSize(3),
              map->capacityBytes());
}

TEST(TrafficInjectorTest, GeneratedAddressesStayInTenantPartition)
{
    const auto map = defaultMap();
    TrafficConfig cfg = poissonConfig(3);
    cfg.ratePerKilocycle = 300.0;
    TrafficInjector inj(cfg, *map, 7);
    std::vector<Request> seen;
    inj.bind(
        [&](const Request &r) {
            seen.push_back(r);
            return true;
        },
        [&](const Request &r) {
            seen.push_back(r);
            return true;
        });
    for (Tick t = 0; t < 20000; ++t)
        inj.tick(t);
    ASSERT_GT(seen.size(), 100u);
    for (const Request &r : seen) {
        ASSERT_GE(r.core, 0);
        ASSERT_LT(r.core, 3);
        EXPECT_GE(r.addr, inj.tenantBase(r.core));
        EXPECT_LT(r.addr,
                  inj.tenantBase(r.core) + inj.tenantSize(r.core));
    }
}

TEST(TrafficInjectorTest, DeterministicStreamAcrossInstances)
{
    const auto map = defaultMap();
    auto collect = [&](std::uint64_t seed) {
        TrafficInjector inj(poissonConfig(2), *map, seed);
        std::vector<Request> seen;
        auto sink = [&](const Request &r) {
            seen.push_back(r);
            return true;
        };
        inj.bind(sink, sink);
        for (Tick t = 0; t < 5000; ++t)
            inj.tick(t);
        return seen;
    };
    const auto a = collect(3);
    const auto b = collect(3);
    const auto c = collect(4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].isWrite, b[i].isWrite);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].core, b[i].core);
    }
    EXPECT_NE(a.size(), 0u);
    // A different seed must not replay the same stream.
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].addr != c[i].addr;
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// DRAMSim-style trace round trip.
// ---------------------------------------------------------------------

TEST(DramSimTrace, RoundTripThroughWriter)
{
    std::vector<TrafficRecord> records;
    for (int i = 0; i < 8; ++i) {
        TrafficRecord rec;
        rec.addr = static_cast<Addr>(i) * 0x1340;
        rec.isWrite = (i % 3) == 0;
        rec.cycle = static_cast<Tick>(i) * 17;
        records.push_back(rec);
    }
    const std::string path =
        testing::TempDir() + "dsarp_dramsim_rt.txt";
    writeDramSimTrace(path, records);
    const auto got = readDramSimTrace(path);
    ASSERT_EQ(got.size(), records.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].addr, records[i].addr);
        EXPECT_EQ(got[i].isWrite, records[i].isWrite);
        EXPECT_EQ(got[i].cycle, records[i].cycle);
    }
}

TEST(DramSimTrace, ParsesCaseInsensitiveOpsAndComments)
{
    const std::string path = writeTemp("dsarp_dramsim_ops.txt",
                                       "# header\n"
                                       "0x40 read 0\n"
                                       "0x80 Write 5\n"
                                       "0xc0 READ 5\n");
    const auto got = readDramSimTrace(path);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_FALSE(got[0].isWrite);
    EXPECT_TRUE(got[1].isWrite);
    EXPECT_FALSE(got[2].isWrite);
}

TEST(DramSimTrace, RejectsMalformedLines)
{
    const std::string badOp =
        writeTemp("dsarp_dramsim_badop.txt", "0x40 FETCH 0\n");
    EXPECT_EXIT(readDramSimTrace(badOp), testing::ExitedWithCode(1),
                "READ or WRITE");

    const std::string badAddr =
        writeTemp("dsarp_dramsim_badaddr.txt", "0xZZ READ 0\n");
    EXPECT_EXIT(readDramSimTrace(badAddr), testing::ExitedWithCode(1),
                "address");

    const std::string badCycle =
        writeTemp("dsarp_dramsim_badcycle.txt", "0x40 READ -5\n");
    EXPECT_EXIT(readDramSimTrace(badCycle), testing::ExitedWithCode(1),
                "cycle");

    const std::string backwards = writeTemp(
        "dsarp_dramsim_backwards.txt", "0x40 READ 10\n0x80 READ 3\n");
    EXPECT_EXIT(readDramSimTrace(backwards), testing::ExitedWithCode(1),
                "backwards");

    const std::string fields =
        writeTemp("dsarp_dramsim_fields.txt", "0x40 READ\n");
    EXPECT_EXIT(readDramSimTrace(fields), testing::ExitedWithCode(1),
                "field");

    const std::string empty =
        writeTemp("dsarp_dramsim_empty.txt", "# nothing\n");
    EXPECT_EXIT(readDramSimTrace(empty), testing::ExitedWithCode(1),
                "no records");
}

// ---------------------------------------------------------------------
// Full traffic runs through the Runner.
// ---------------------------------------------------------------------

namespace {

/** Short windows so full-system traffic runs stay fast. */
class TrafficRun : public ::testing::Test
{
  protected:
    TrafficRun()
    {
        setenv("DSARP_BENCH_CYCLES", "30000", 1);
        setenv("DSARP_BENCH_WARMUP", "5000", 1);
        runner_ = std::make_unique<Runner>();
    }

    ~TrafficRun() override
    {
        unsetenv("DSARP_BENCH_CYCLES");
        unsetenv("DSARP_BENCH_WARMUP");
    }

    static RunConfig
    trafficPoint(const std::string &mode)
    {
        RunConfig cfg;
        cfg.policy = "DSARP";
        cfg.traffic.mode = mode;
        cfg.traffic.ratePerKilocycle = 60.0;
        cfg.traffic.hotRowPct = 30.0;
        return cfg;
    }

    static void
    expectIdentical(const RunResult &a, const RunResult &b)
    {
        EXPECT_EQ(a.readsCompleted, b.readsCompleted);
        EXPECT_EQ(a.writesIssued, b.writesIssued);
        EXPECT_EQ(a.refAb, b.refAb);
        EXPECT_EQ(a.refPb, b.refPb);
        ASSERT_EQ(a.readLatency.count(), b.readLatency.count());
        for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
            ASSERT_EQ(a.readLatency.bucket(i), b.readLatency.bucket(i));
        ASSERT_EQ(a.tenants.size(), b.tenants.size());
        for (std::size_t i = 0; i < a.tenants.size(); ++i) {
            EXPECT_EQ(a.tenants[i].generated, b.tenants[i].generated);
            EXPECT_EQ(a.tenants[i].injected, b.tenants[i].injected);
            EXPECT_DOUBLE_EQ(a.tenants[i].p99, b.tenants[i].p99);
        }
    }

    std::unique_ptr<Runner> runner_;
};

} // namespace

TEST_F(TrafficRun, PoissonRunReportsLatencyPercentiles)
{
    const RunResult res = runner_->runTraffic(trafficPoint("poisson"));
    EXPECT_GT(res.readsCompleted, 0u);
    EXPECT_GT(res.readLatency.count(), 0u);
    EXPECT_GT(res.readLatency.percentile(50), 0.0);
    EXPECT_LE(res.readLatency.percentile(50),
              res.readLatency.percentile(99));
    EXPECT_LE(res.readLatency.percentile(99),
              res.readLatency.percentile(99.9));
    // Open loop: no cores, so the closed-loop metrics stay empty.
    EXPECT_TRUE(res.ipc.empty());
    EXPECT_DOUBLE_EQ(res.ws, 0.0);
    ASSERT_EQ(res.tenants.size(), 1u);
    EXPECT_GT(res.tenants[0].generated, 0u);
    EXPECT_GE(res.tenants[0].generated, res.tenants[0].injected);
}

TEST_F(TrafficRun, CycleAndEventEnginesBitIdentical)
{
    for (const char *mode : {"poisson", "bursty"}) {
        RunConfig cfg = trafficPoint(mode);
        cfg.engine = "cycle";
        const RunResult cycle = runner_->runTraffic(cfg);
        cfg.engine = "event";
        const RunResult event = runner_->runTraffic(cfg);
        expectIdentical(cycle, event);
    }
}

TEST_F(TrafficRun, ShardedRunsBitIdenticalToSerial)
{
    // The same three points serially and under parallelFor sharding:
    // traffic seeding depends only on (seed, tenant), never on thread
    // assignment, so the results must match slot for slot.
    std::vector<RunConfig> points;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        RunConfig cfg = trafficPoint("poisson");
        cfg.seed = seed;
        points.push_back(cfg);
    }
    std::vector<RunResult> serial(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        serial[i] = runner_->runTraffic(points[i]);
    std::vector<RunResult> sharded(points.size());
    parallelFor(3, points.size(), [&](std::size_t i) {
        sharded[i] = runner_->runTraffic(points[i]);
    });
    for (std::size_t i = 0; i < points.size(); ++i)
        expectIdentical(serial[i], sharded[i]);
}

TEST_F(TrafficRun, MultiTenantReportsFairness)
{
    RunConfig cfg = trafficPoint("poisson");
    cfg.traffic.tenants = 3;
    cfg.traffic.tenantPriorities = "4,2,1";
    const RunResult res = runner_->runTraffic(cfg);
    ASSERT_EQ(res.tenants.size(), 3u);
    EXPECT_EQ(res.tenants[0].priority, 4);
    EXPECT_EQ(res.tenants[2].priority, 1);
    EXPECT_GE(res.tenantFairness, 1.0 - 1e-9);
    for (const TenantResult &t : res.tenants) {
        EXPECT_GT(t.generated, 0u);
        if (t.reads > 0) {
            EXPECT_GE(t.slowdown, 1.0 - 1e-9);
        }
    }
}

TEST_F(TrafficRun, TraceModeDrivesSystem)
{
    std::vector<TrafficRecord> records;
    Rng rng(11);
    Tick cycle = 0;
    for (int i = 0; i < 400; ++i) {
        TrafficRecord rec;
        rec.addr = rng.below(1u << 24) * 64;
        rec.isWrite = (i % 4) == 0;
        rec.cycle = cycle;
        cycle += rng.below(20);
        records.push_back(rec);
    }
    const std::string path =
        testing::TempDir() + "dsarp_traffic_replay.txt";
    writeDramSimTrace(path, records);

    RunConfig cfg = trafficPoint("trace");
    cfg.traffic.tracePath = path;
    const RunResult res = runner_->runTraffic(cfg);
    EXPECT_GT(res.readsCompleted, 0u);
    EXPECT_GT(res.writesIssued, 0u);
    EXPECT_GT(res.readLatency.count(), 0u);

    // Replay is deterministic and engine-independent too.
    cfg.engine = "event";
    expectIdentical(res, runner_->runTraffic(cfg));
}

TEST_F(TrafficRun, ClosedLoopRunsStillPopulateLatencyHistogram)
{
    // Satellite: the per-controller histogram now surfaces on every
    // run path, not just traffic runs.
    const auto workloads = makeIntensiveWorkloads(1, 8, 5);
    const RunResult res = runner_->run(RunConfig{}, workloads[0]);  // REFab.
    EXPECT_GT(res.readLatency.count(), 0u);
    EXPECT_EQ(res.readLatency.count(), res.readsCompleted);
    EXPECT_GT(res.readLatency.percentile(99), 0.0);
}
