/**
 * @file
 * Bit-identity regression for the repo's determinism contracts.
 *
 * One experiment, run under every combination the contracts promise is
 * equivalent -- {cycle, event} engine x {1, 4} baseline-sharding jobs
 * -- must produce a bit-identical RunResult: every counter equal and
 * every double equal as a bit pattern, not within a tolerance. A
 * tolerance would hide exactly the bug class this test exists for
 * (iteration-order-dependent floating-point folds, RNG draws keyed to
 * engine scheduling, shard-count-dependent accumulation).
 *
 * Three seeds guard against a fix that happens to work for one
 * arrival pattern.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulation.hh"

using namespace dsarp;

namespace {

/** The exact bits of a double, so EQ means identical, not close. */
std::uint64_t
bits(double v)
{
    std::uint64_t out;
    static_assert(sizeof(out) == sizeof(v));
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

/**
 * Serialize everything RunResult reports into one comparable string.
 * Doubles go in as hex bit patterns; a mismatch anywhere shows up as
 * a readable diff in the assertion message.
 */
std::string
signature(const RunResult &res)
{
    std::ostringstream out;
    out << std::hex;
    out << "ipc:";
    for (double v : res.ipc)
        out << " " << bits(v);
    out << "\nalone:";
    for (double v : res.aloneIpc)
        out << " " << bits(v);
    out << "\nws=" << bits(res.ws) << " hs=" << bits(res.hs)
        << " maxSlowdown=" << bits(res.maxSlowdown)
        << " energy=" << bits(res.energyPerAccessNj);
    out << "\nlatency: n=" << res.readLatency.count()
        << " mean=" << bits(res.readLatency.mean())
        << " p50=" << bits(res.readLatency.percentile(50))
        << " p99=" << bits(res.readLatency.percentile(99));
    out << "\ncounters: " << res.readsCompleted << " "
        << res.writesIssued << " " << res.refAb << " " << res.refPb
        << " " << res.refSb << " " << res.refPbHidden << " "
        << res.srEnters << " " << res.srExits << " " << res.srTicks
        << " " << res.refOverlapTicks;
    out << "\ncommands: " << res.cmdDigest;
    out << "\ntenants:";
    for (const TenantResult &t : res.tenants) {
        out << " [" << t.priority << " " << t.generated << " "
            << t.injected << " " << bits(t.meanLatency) << " "
            << bits(t.p50) << " " << bits(t.p99) << " " << bits(t.p999)
            << " " << bits(t.slowdown) << "]";
    }
    out << " fairness=" << bits(res.tenantFairness);
    return out.str();
}

ExperimentConfig
smallConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.sys.mem.policy = "DSARP";
    cfg.sys.numCores = 4;
    cfg.sys.mem.org.channels = 2;
    cfg.sys.seed = seed;
    cfg.workloadSeed = seed + 1;
    // Explicit run lengths: the DSARP_BENCH_* env knobs must not be
    // able to change what this test pins.
    cfg.warmupCycles = 4000;
    cfg.measureCycles = 24000;
    return cfg;
}

RunResult
runOne(const ExperimentConfig &cfg, const std::string &engine, int jobs)
{
    ExperimentConfig c = cfg;
    c.sys.engine = engine;
    Simulation sim = Simulation::builder().config(c).build();
    sim.prewarmBaselines(jobs);
    return sim.run();
}

} // namespace

TEST(Determinism, BitIdenticalAcrossEnginesAndJobShards)
{
    for (const std::uint64_t seed : {2ull, 7ull, 19ull}) {
        const ExperimentConfig cfg = smallConfig(seed);
        const std::string reference =
            signature(runOne(cfg, "cycle", 1));
        for (const char *engine : {"cycle", "event"}) {
            for (const int jobs : {1, 4}) {
                if (std::string(engine) == "cycle" && jobs == 1)
                    continue;
                EXPECT_EQ(signature(runOne(cfg, engine, jobs)),
                          reference)
                    << "seed=" << seed << " engine=" << engine
                    << " jobs=" << jobs;
            }
        }
    }
}

TEST(Determinism, BitIdenticalOpenLoopTraffic)
{
    // The open-loop front end has its own RNG streams (one per
    // tenant) and its own latency accounting; pin those the same way.
    for (const std::uint64_t seed : {3ull, 11ull}) {
        ExperimentConfig cfg = smallConfig(seed);
        cfg.sys.traffic.mode = "poisson";
        cfg.sys.traffic.ratePerKilocycle = 60.0;
        cfg.sys.traffic.tenants = 2;
        const std::string reference =
            signature(runOne(cfg, "cycle", 1));
        for (const char *engine : {"cycle", "event"}) {
            for (const int jobs : {1, 4}) {
                if (std::string(engine) == "cycle" && jobs == 1)
                    continue;
                EXPECT_EQ(signature(runOne(cfg, engine, jobs)),
                          reference)
                    << "seed=" << seed << " engine=" << engine
                    << " jobs=" << jobs;
            }
        }
    }
}
