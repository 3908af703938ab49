/**
 * @file
 * Concurrent-construction smoke tests for the process-wide state:
 * registries, the Runner alone-IPC memo cache, and whole Systems
 * built in parallel. These pass trivially single-threaded; their
 * value is under TSan (the tsan CMake preset / CI leg), where any
 * unguarded shared state in the singletons becomes a hard failure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dram/spec.hh"
#include "refresh/registry.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

constexpr int kThreads = 8;

/** Run @p fn concurrently on kThreads threads, all released at once. */
void
inParallel(const std::function<void(int)> &fn)
{
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (!go.load(std::memory_order_acquire)) {
            }
            fn(i);
        });
    }
    while (ready.load() != kThreads) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
}

} // namespace

TEST(ThreadClean, ConcurrentRegistryLookups)
{
    inParallel([](int i) {
        auto &policies = RefreshPolicyRegistry::instance();
        auto &specs = DramSpecRegistry::instance();
        for (int iter = 0; iter < 50; ++iter) {
            EXPECT_TRUE(policies.has("DSARP"));
            EXPECT_NE(policies.find("REFab"), nullptr);
            EXPECT_FALSE(policies.names().empty());
            EXPECT_TRUE(specs.has("DDR3-1333"));
            EXPECT_NE(specs.find("DDR5-4800"), nullptr);
            EXPECT_FALSE(specs.names().empty());
            // Misses exercise the error-message path's lock too.
            EXPECT_EQ(specs.find("no-such-spec"), nullptr);
            EXPECT_FALSE(policies.unknownMessage("no-such-policy").empty());
        }
        (void)i;
    });
}

TEST(ThreadClean, ConcurrentResolveAndTimingDerivation)
{
    inParallel([](int i) {
        for (int iter = 0; iter < 20; ++iter) {
            MemConfig cfg;
            cfg.policy = (i + iter) % 2 == 0 ? "DSARP" : "REFpb";
            RefreshPolicyRegistry::instance().resolve(cfg);
            cfg.finalize();
            const TimingParams t = TimingParams::forConfig(cfg);
            EXPECT_GT(t.tRefiAb, Cycles(0));
            EXPECT_GT(t.tRfcPb, Cycles(0));
        }
    });
}

TEST(ThreadClean, RegistryEntryPointersSurviveRuntimeRegistration)
{
    // Regression: entries live in a std::deque precisely so pointers
    // handed out by find()/at() stay valid when a later registration
    // grows the registry. A vector would invalidate them on growth.
    auto &specs = DramSpecRegistry::instance();
    const DramSpec *before = specs.find("DDR3-1333");
    ASSERT_NE(before, nullptr);
    const std::string name_before = before->name;

    DramSpec extra;
    extra.name = "TEST-THREADCLEAN-SPEC";
    extra.tCkNs = Nanoseconds(1.0);
    specs.add(extra);

    EXPECT_EQ(before->name, name_before)
        << "registry growth must not move existing entries";
    EXPECT_TRUE(specs.has("TEST-THREADCLEAN-SPEC"));
}

TEST(ThreadClean, ConcurrentAloneIpcCache)
{
    // All threads demand the same alone baselines: every cache slot is
    // computed once (first-insert-wins) while the rest hit the memo.
    Runner runner(/*warmup=*/200, /*measure=*/2000, /*perCategory=*/1);
    const RunConfig cfg{};  // REFab at 8 Gb.
    const int bench_a = benchmarkIndex("mcf-like");
    const int bench_b = benchmarkIndex("milc-like");
    std::vector<double> results(kThreads, -1.0);

    inParallel([&](int i) {
        Runner local(/*warmup=*/200, /*measure=*/2000, /*perCategory=*/1);
        Runner &r = i % 2 == 0 ? runner : local;
        const int bench = i % 4 < 2 ? bench_a : bench_b;
        results[i] = r.aloneIpc(bench, cfg);
    });

    for (int i = 0; i < kThreads; ++i) {
        EXPECT_GT(results[i], 0.0) << "thread " << i;
        // The cache is process-wide: same bench -> identical value, on
        // every Runner instance.
        const int peer = i ^ 1;  // Same bench, other runner parity.
        EXPECT_EQ(results[i], results[peer]);
    }
}

TEST(ThreadClean, ConcurrentSystemConstructionAndRun)
{
    inParallel([](int i) {
        SystemConfig cfg;
        cfg.numCores = 1;
        cfg.mem.org.channels = 1;
        cfg.mem.policy = i % 2 == 0 ? "DSARP" : "REFab";
        cfg.seed = 100 + i;
        System sys(cfg,
                   std::vector<int>{benchmarkIndex("mcf-like")});
        sys.run(Tick(0) + 2 * sys.timing().tRefiAb);
        EXPECT_GT(sys.controller(0).stats().readsCompleted +
                      sys.controller(0).channel().stats().refAb +
                      sys.controller(0).channel().stats().refPb,
                  0u);
    });
}
