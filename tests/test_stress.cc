/**
 * @file
 * Stress and failure-injection tests: pathological workloads (single-row
 * hammering, pure random, write floods), unusual geometries, and
 * adversarial queue pressure. Every case must keep making progress,
 * stay JEDEC-legal, and never starve refresh.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/checker.hh"
#include "sim/system.hh"

using namespace dsarp;

namespace {

/** All cores hammer a single row of a single bank. */
class SingleRowTrace : public TraceSource
{
  public:
    explicit SingleRowTrace(const AddressMap &map) : map_(map) {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.gap = 2;
        DecodedAddr d;
        d.channel = 0;
        d.rank = 0;
        d.bank = 0;
        d.row = 7;
        d.column = col_;
        col_ = (col_ + 1) % map_.org().columns();
        rec.readAddr = map_.encode(d);
        return rec;
    }

  private:
    const AddressMap &map_;
    int col_ = 0;
};

/** Every record writes; reads are rare. */
class WriteFloodTrace : public TraceSource
{
  public:
    explicit WriteFloodTrace(const AddressMap &map) : map_(map), rng_(5) {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.gap = 3;
        DecodedAddr d;
        d.channel = static_cast<int>(rng_.below(map_.org().channels));
        d.rank = static_cast<int>(rng_.below(map_.org().ranksPerChannel));
        d.bank = static_cast<int>(rng_.below(map_.org().banksPerRank));
        d.row = static_cast<int>(rng_.below(1024));
        d.column = static_cast<int>(rng_.below(map_.org().columns()));
        rec.readAddr = map_.encode(d);
        rec.hasWriteback = true;
        d.row = static_cast<int>(rng_.below(1024));
        rec.writebackAddr = map_.encode(d);
        return rec;
    }

  private:
    const AddressMap &map_;
    Rng rng_;
};

struct StressOutcome
{
    std::uint64_t reads = 0;
    std::uint64_t instructions = 0;
    CheckerReport report;
};

template <typename TraceT>
StressOutcome
runStress(const char *policy, int cores = 2)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.mem.org.channels = 1;
    cfg.mem.density = Density::k32Gb;
    cfg.mem.policy = policy;
    cfg.enableChecker = true;
    cfg.finalize();

    AddressMap map(cfg.mem.org);
    std::vector<std::unique_ptr<TraceT>> traces;
    std::vector<TraceSource *> sources;
    for (int c = 0; c < cores; ++c) {
        traces.push_back(std::make_unique<TraceT>(map));
        sources.push_back(traces.back().get());
    }
    System sys(cfg, sources);
    sys.run(Tick(0) + 12 * sys.timing().tRefiAb);

    StressOutcome out;
    out.reads = sys.controller(0).stats().readsCompleted;
    for (int c = 0; c < cores; ++c)
        out.instructions += sys.core(c).stats().instructionsRetired;
    out.report = verifyCommandLog(sys.commandLog(0), sys.config().mem,
                                  sys.timing(), sys.now());
    return out;
}

} // namespace

TEST(Stress, SingleRowHammerPerBank)
{
    for (const char *mech : {"REFab", "REFpb", "DARP"}) {
        const StressOutcome out = runStress<SingleRowTrace>(mech);
        EXPECT_GT(out.reads, 1000u) << mech;
        EXPECT_TRUE(out.report.ok())
            << mech << ": "
            << (out.report.violations.empty()
                    ? ""
                    : out.report.violations.front());
        EXPECT_GT(out.report.refreshesChecked, 0u) << mech;
    }
}

TEST(Stress, SingleRowHammerWithSarp)
{
    // The hammered row's subarray periodically refreshes; SARP must
    // arbitrate the conflicts legally.
    const StressOutcome out = runStress<SingleRowTrace>("DSARP");
    EXPECT_GT(out.reads, 1000u);
    EXPECT_TRUE(out.report.ok()) << (out.report.violations.empty()
                                         ? ""
                                         : out.report.violations.front());
}

TEST(Stress, WriteFloodDrainsAndRefreshes)
{
    for (const char *mech : {"REFpb", "DARP"}) {
        const StressOutcome out = runStress<WriteFloodTrace>(mech);
        EXPECT_GT(out.instructions, 5000u) << mech;
        EXPECT_TRUE(out.report.ok())
            << mech << ": "
            << (out.report.violations.empty()
                    ? ""
                    : out.report.violations.front());
    }
}

TEST(Stress, SingleRankGeometry)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.org.ranksPerChannel = 1;
    cfg.mem.policy = "DSARP";
    cfg.enableChecker = true;
    System sys(cfg, {10, 15});
    sys.run(Tick(0) + 10 * sys.timing().tRefiAb);
    EXPECT_GT(sys.controller(0).stats().readsCompleted, 500u);
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
}

TEST(Stress, FourRankGeometry)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mem.org.channels = 1;
    cfg.mem.org.ranksPerChannel = 4;
    cfg.mem.policy = "REFpb";
    cfg.enableChecker = true;
    System sys(cfg, {10, 12, 14, 16});
    sys.run(Tick(0) + 8 * sys.timing().tRefiAb);
    EXPECT_GT(sys.controller(0).stats().readsCompleted, 500u);
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
}

TEST(Stress, TinyQueuesStillProgress)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mem.readQueueSize = 8;
    cfg.mem.writeQueueSize = 8;
    cfg.mem.writeHighWatermark = 6;
    cfg.mem.writeLowWatermark = 2;
    cfg.mem.policy = "DSARP";
    System sys(cfg, {10, 14, 16, 17});
    sys.run(30000);
    std::uint64_t reads = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch)
        reads += sys.controller(ch).stats().readsCompleted;
    EXPECT_GT(reads, 500u);
}
