/**
 * @file
 * SARP behaviour tests (Section 4.3): a bank under refresh serves
 * accesses to idle subarrays, performance improves over the plain
 * policies, the benefit grows with subarray count, and the generated
 * command streams stay JEDEC-legal under the independent checker.
 */

#include <gtest/gtest.h>

#include "sim/checker.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

/** Small, fast system: 1 channel, 2 cores, intensive benchmarks. */
SystemConfig
smallConfig(const char *policy, int subarrays = 8)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.density = Density::k32Gb;  // Longest refresh: biggest signal.
    cfg.mem.policy = policy;
    cfg.mem.org.subarraysPerBank = subarrays;
    cfg.seed = 7;
    return cfg;
}

std::vector<int>
intensivePair()
{
    return {benchmarkIndex("mcf-like"), benchmarkIndex("stream-like")};
}

/** Run and return aggregate reads completed over the window. */
std::uint64_t
readsServed(const SystemConfig &cfg, Tick ticks)
{
    System sys(cfg, intensivePair());
    sys.run(ticks / 5);
    sys.resetStats();
    sys.run(ticks);
    std::uint64_t reads = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch)
        reads += sys.controller(ch).stats().readsCompleted;
    return reads;
}

} // namespace

TEST(Sarp, ServesAccessesDuringPerBankRefresh)
{
    // With SARP the same workload completes more reads than without,
    // because banks keep serving idle subarrays while refreshing.
    const Tick window = 120000;
    const std::uint64_t base =
        readsServed(smallConfig("REFpb"), window);
    const std::uint64_t with_sarp =
        readsServed(smallConfig("SARPpb"), window);
    EXPECT_GT(with_sarp, base);
}

TEST(Sarp, HelpsAllBankRefreshToo)
{
    const Tick window = 120000;
    const std::uint64_t base =
        readsServed(smallConfig("REFab"), window);
    const std::uint64_t with_sarp =
        readsServed(smallConfig("SARPab"), window);
    EXPECT_GT(with_sarp, base);
}

TEST(Sarp, BenefitGrowsWithSubarrayCount)
{
    // Table 5: more subarrays -> lower conflict probability.
    const Tick window = 120000;
    const std::uint64_t s1 =
        readsServed(smallConfig("SARPpb", 1), window);
    const std::uint64_t s8 =
        readsServed(smallConfig("SARPpb", 8), window);
    const std::uint64_t s64 =
        readsServed(smallConfig("SARPpb", 64), window);
    EXPECT_GE(s8, s1);
    EXPECT_GE(s64, s8);
}

TEST(Sarp, SingleSubarrayEquivalentToNoSarp)
{
    // With one subarray per bank every access conflicts with the
    // refresh, so SARP degenerates to the baseline (Table 5: 0%).
    const Tick window = 120000;
    const std::uint64_t base =
        readsServed(smallConfig("REFpb"), window);
    const std::uint64_t s1 =
        readsServed(smallConfig("SARPpb", 1), window);
    const double delta =
        std::abs(static_cast<double>(s1) - static_cast<double>(base)) /
        static_cast<double>(base);
    EXPECT_LT(delta, 0.03);
}

TEST(Sarp, CommandStreamLegalUnderChecker)
{
    SystemConfig cfg = smallConfig("SARPpb");
    cfg.enableChecker = true;
    System sys(cfg, intensivePair());
    sys.run(60000);
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    EXPECT_GT(report.refreshesChecked, 0u);
}

TEST(Sarp, DsarpCommandStreamLegalUnderChecker)
{
    SystemConfig cfg = smallConfig("DSARP");
    cfg.enableChecker = true;
    System sys(cfg, intensivePair());
    sys.run(60000);
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
}
