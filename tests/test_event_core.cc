/**
 * @file
 * Event-engine equivalence suite: the skip-to-next-deadline engine
 * (sim.engine=event) must be observationally indistinguishable from
 * the legacy cycle loop -- not approximately, bit for bit. Every case
 * runs the same seeded workload twice, once per engine, and asserts
 *
 *   - identical command logs (tick and every Command field),
 *   - identical per-core IPCs (exact doubles -- the RNG streams and
 *     retirement schedules must line up cycle for cycle),
 *   - identical channel stats, including the background-energy inputs
 *     (rank active/total ticks, srTicks) and the derived energy,
 *   - identical refresh-policy counters (postponed, pulled in, forced,
 *     issued),
 *   - a clean offline-checker replay of the event run's log.
 *
 * The matrix extends test_checker_fuzz.cc's: every registered DRAM spec
 * x {REFab, REFpb, Elastic, AR, DSARP, HiRA, REFsb, HiRAsb}, which
 * covers every refresh scheduler class (REFsb and HiRAsb only on specs
 * with bank groups), with the same seed-derived config knobs (density,
 * geometry, core count, self-refresh arming), so any divergence the
 * fuzzer's space can produce is caught here as a first-class diff
 * rather than a downstream checker violation.
 *
 * A separate case widens the same configs to two channels on every
 * spec, and to DDR5-4800's four sub-channels, comparing per-channel
 * command digests and counters: the cross-channel paths (a core
 * waking another channel's controller, deliveries, refresh overlap)
 * only exist there.
 *
 * DSARP_EVENT_SEEDS scales the seeds per (spec, mechanism) pair
 * (default 2; set it before the binary on the command line).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/spec.hh"
#include "sim/checker.hh"
#include "sim/energy.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

const char *const kMechs[] = {"REFab", "REFpb", "Elastic", "AR",
                              "DSARP", "HiRA",  "REFsb",   "HiRAsb"};

/** REFsb and HiRAsb refresh bank-group slices. */
bool
sameBank(const std::string &mech)
{
    return mech == "REFsb" || mech == "HiRAsb";
}

/** Everything an engine run can be observed by. */
struct RunObservation
{
    std::vector<std::vector<TimedCommand>> logs;
    std::vector<ControllerStats> controllers;
    std::vector<ChannelStats> channels;
    std::vector<RefreshSchedStats> refresh;
    std::vector<double> ipc;
    std::vector<double> energyNj;
    Tick end{};
};

/** The seed-to-config derivation shared with the checker fuzzer, so
 *  both suites walk the same configuration space. */
SystemConfig
deriveConfig(const std::string &spec, const std::string &mech,
             std::uint64_t seed, bool self_refresh)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + (self_refresh ? 2 : 1));

    SystemConfig cfg;
    cfg.mem.dramSpec = spec;
    cfg.mem.policy = mech;
    cfg.mem.org.channels = 1;
    cfg.mem.org.subarraysPerBank = rng.chance(0.5) ? 8 : 4;
    const Density densities[] = {Density::k8Gb, Density::k16Gb,
                                 Density::k32Gb};
    cfg.mem.density = densities[rng.below(3)];
    if (sameBank(mech) && rng.chance(0.5))
        cfg.mem.org.banksPerRank = 32;
    cfg.numCores = 2 + static_cast<int>(rng.below(3));
    if (self_refresh) {
        cfg.mem.srIdleEntryCycles =
            200 + static_cast<int>(rng.below(1200));
        cfg.numCores = 1 + static_cast<int>(rng.below(2));
    }
    cfg.seed = seed;
    cfg.enableChecker = true;
    return cfg;
}

RunObservation
runOnce(SystemConfig cfg, const std::string &engine, std::uint64_t seed)
{
    cfg.engine = engine;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const auto workloads = makeWorkloads(1, cfg.numCores, seed);
    const Workload &w = workloads[rng.below(workloads.size())];

    System sys(cfg, w.benchIdx);
    sys.run(Tick(0) + 8 * sys.timing().tRefiAb);

    const EnergyParams &energy =
        DramSpecRegistry::instance().at(cfg.mem.dramSpec).energy;
    RunObservation obs;
    obs.end = sys.now();
    obs.ipc = sys.coreIpc();
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        obs.logs.push_back(sys.commandLog(ch));
        obs.controllers.push_back(sys.controller(ch).stats());
        const ChannelStats &cs = sys.controller(ch).channel().stats();
        obs.channels.push_back(cs);
        obs.refresh.push_back(sys.controller(ch).refreshStats());
        obs.energyNj.push_back(
            channelEnergy(cs, sys.timing(), energy).totalNj());
    }
    return obs;
}

/** Render one log entry for a first-divergence message. */
std::string
describe(const TimedCommand &tc)
{
    std::ostringstream os;
    os << "t=" << tc.tick << " " << commandName(tc.cmd.type) << " r"
       << tc.cmd.rank << " b" << tc.cmd.bank << " row" << tc.cmd.row
       << " col" << tc.cmd.column << " sa" << tc.cmd.subarray
       << " rfc=" << tc.cmd.tRfcOverride
       << " rows=" << tc.cmd.rowsOverride
       << " hidden=" << tc.cmd.hidden;
    return os.str();
}

void
expectStatsEqual(const ChannelStats &c, const ChannelStats &e,
                 const std::string &ctx)
{
#define DSARP_EQ(field) EXPECT_EQ(c.field, e.field) << ctx << " " #field
    DSARP_EQ(acts);
    DSARP_EQ(reads);
    DSARP_EQ(writes);
    DSARP_EQ(pres);
    DSARP_EQ(refAb);
    DSARP_EQ(refPb);
    DSARP_EQ(refSb);
    DSARP_EQ(refPbHidden);
    DSARP_EQ(refAbCycles);
    DSARP_EQ(refPbCycles);
    DSARP_EQ(refSbCycles);
    DSARP_EQ(rankActiveTicks);
    DSARP_EQ(rankTotalTicks);
    DSARP_EQ(srEnter);
    DSARP_EQ(srExit);
    DSARP_EQ(srTicks);
#undef DSARP_EQ
}

void
expectRefreshStatsEqual(const RefreshSchedStats &c,
                        const RefreshSchedStats &e, const std::string &ctx)
{
    EXPECT_EQ(c.postponed, e.postponed) << ctx << " postponed";
    EXPECT_EQ(c.pulledIn, e.pulledIn) << ctx << " pulledIn";
    EXPECT_EQ(c.forced, e.forced) << ctx << " forced";
    EXPECT_EQ(c.issued, e.issued) << ctx << " issued";
}

void
equivalentOne(const std::string &spec, const std::string &mech,
              std::uint64_t seed, bool self_refresh)
{
    const SystemConfig cfg = deriveConfig(spec, mech, seed, self_refresh);
    const RunObservation cyc = runOnce(cfg, "cycle", seed);
    const RunObservation evt = runOnce(cfg, "event", seed);

    std::ostringstream ctx;
    ctx << "spec=" << spec << " mech=" << mech << " seed=" << seed
        << " sr=" << self_refresh
        << " density=" << densityName(cfg.mem.density)
        << " cores=" << cfg.numCores
        << " banks=" << cfg.mem.org.banksPerRank;

    ASSERT_EQ(cyc.end, evt.end) << ctx.str();
    ASSERT_EQ(cyc.logs.size(), evt.logs.size()) << ctx.str();

    for (std::size_t ch = 0; ch < cyc.logs.size(); ++ch) {
        const auto &cl = cyc.logs[ch];
        const auto &el = evt.logs[ch];
        // Find the first divergence instead of dumping both logs.
        const std::size_t n = std::min(cl.size(), el.size());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(cl[i].tick == el[i].tick && cl[i].cmd == el[i].cmd)
                << ctx.str() << " channel=" << ch << " index=" << i
                << "\n  cycle: " << describe(cl[i])
                << "\n  event: " << describe(el[i]);
        }
        ASSERT_EQ(cl.size(), el.size())
            << ctx.str() << " channel=" << ch
            << " (logs agree up to the shorter one)";
        EXPECT_GT(el.size(), 0u) << ctx.str();

        const std::string where = ctx.str() + " channel=" +
            std::to_string(ch);
        expectStatsEqual(cyc.channels[ch], evt.channels[ch], where);
        expectRefreshStatsEqual(cyc.refresh[ch], evt.refresh[ch], where);
        // Exact double equality is intentional: both runs must feed
        // the model the same integer counters.
        EXPECT_EQ(cyc.energyNj[ch], evt.energyNj[ch])
            << ctx.str() << " channel=" << ch;
    }

    ASSERT_EQ(cyc.ipc.size(), evt.ipc.size()) << ctx.str();
    for (std::size_t i = 0; i < cyc.ipc.size(); ++i) {
        EXPECT_EQ(cyc.ipc[i], evt.ipc[i])
            << ctx.str() << " core=" << i;
    }
}

} // namespace

class EventEngineEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EventEngineEquivalence, BitIdenticalToCycleLoop)
{
    const std::string spec = GetParam();
    const bool sameBankSupported =
        DramSpecRegistry::instance().at(spec).banksPerGroup > 0;
    const std::uint64_t seeds = envKnob("DSARP_EVENT_SEEDS", 2);

    for (const char *mech : kMechs) {
        if (sameBank(mech) && !sameBankSupported)
            continue;
        for (std::uint64_t s = 1; s <= seeds; ++s) {
            equivalentOne(spec, mech, s, /*self_refresh=*/false);
            equivalentOne(spec, mech, s, /*self_refresh=*/true);
        }
    }
}

namespace {

std::string
specName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string out = info.param;
    for (char &c : out) {
        if (c == '-')
            c = '_';
    }
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, EventEngineEquivalence,
    ::testing::ValuesIn(DramSpecRegistry::instance().names()), specName);

namespace {

void
expectControllerStatsEqual(const ControllerStats &c,
                           const ControllerStats &e, const std::string &ctx)
{
#define DSARP_EQ(field) EXPECT_EQ(c.field, e.field) << ctx << " " #field
    DSARP_EQ(cmdDigest);
    DSARP_EQ(readsEnqueued);
    DSARP_EQ(writesEnqueued);
    DSARP_EQ(readsCompleted);
    DSARP_EQ(writesIssued);
    DSARP_EQ(readLatencySum);
    DSARP_EQ(forwardedReads);
    DSARP_EQ(writebackModeTicks);
    DSARP_EQ(ticks);
    DSARP_EQ(readQueueOccupancySum);
    DSARP_EQ(writeQueueOccupancySum);
#undef DSARP_EQ
}

/** One seed-derived config widened to several channels (or the
 *  sub-channel map), run on both engines. The single-channel matrix
 *  above never exercises a core's enqueue waking another channel's
 *  controller, deliveries from several channels to one core, or the
 *  cross-channel refresh-overlap callback. */
void
equivalentChannels(const std::string &spec, const std::string &mech,
                   std::uint64_t seed, bool self_refresh,
                   const std::string &address_map)
{
    // Digests stand in for the command logs, so the widened matrix
    // stays cheap.
    SystemConfig cfg = deriveConfig(spec, mech, seed, self_refresh);
    cfg.mem.org.channels = 2;
    cfg.mem.addressMap = address_map;
    cfg.enableChecker = false;
    const RunObservation cyc = runOnce(cfg, "cycle", seed);
    const RunObservation evt = runOnce(cfg, "event", seed);

    std::ostringstream ctx;
    ctx << "spec=" << spec << " mech=" << mech << " seed=" << seed
        << " sr=" << self_refresh << " map=" << address_map
        << " density=" << densityName(cfg.mem.density)
        << " cores=" << cfg.numCores
        << " banks=" << cfg.mem.org.banksPerRank;

    ASSERT_EQ(cyc.controllers.size(), evt.controllers.size()) << ctx.str();
    ASSERT_GE(evt.controllers.size(), 2u) << ctx.str();
    for (std::size_t ch = 0; ch < cyc.controllers.size(); ++ch) {
        const std::string where = ctx.str() + " channel=" +
            std::to_string(ch);
        expectControllerStatsEqual(cyc.controllers[ch],
                                   evt.controllers[ch], where);
        expectStatsEqual(cyc.channels[ch], evt.channels[ch], where);
        EXPECT_EQ(cyc.channels[ch].refOverlapTicks,
                  evt.channels[ch].refOverlapTicks)
            << where << " refOverlapTicks";
        expectRefreshStatsEqual(cyc.refresh[ch], evt.refresh[ch], where);
    }
    ASSERT_EQ(cyc.ipc.size(), evt.ipc.size()) << ctx.str();
    for (std::size_t i = 0; i < cyc.ipc.size(); ++i)
        EXPECT_EQ(cyc.ipc[i], evt.ipc[i]) << ctx.str() << " core=" << i;
}

} // namespace

TEST(EventEngineEquivalence, MultiChannelBitIdenticalToCycleLoop)
{
    // Two channels on every spec, then DDR5-4800's sub-channel map,
    // which expands the two channels into four.
    const std::uint64_t seeds = envKnob("DSARP_EVENT_SEEDS", 2);
    for (const std::string &spec : DramSpecRegistry::instance().names()) {
        const bool sameBankSupported =
            DramSpecRegistry::instance().at(spec).banksPerGroup > 0;
        const bool subChannels =
            DramSpecRegistry::instance().at(spec).subChannels > 1;
        for (const char *mech : kMechs) {
            if (sameBank(mech) && !sameBankSupported)
                continue;
            for (std::uint64_t s = 1; s <= seeds; ++s) {
                for (const bool sr : {false, true}) {
                    equivalentChannels(spec, mech, s, sr, "burst-ch");
                    if (subChannels)
                        equivalentChannels(spec, mech, s, sr, "ddr5-subch");
                }
            }
        }
    }
}

TEST(EventEngineEquivalence, EventRunPassesOfflineChecker)
{
    // One full checker replay per mechanism on the reference spec:
    // identical logs alone would also hide a shared bug, so the event
    // log is independently validated against the JEDEC constraints.
    for (const char *mech : kMechs) {
        const std::string spec =
            sameBank(mech) ? "DDR5-4800" : "DDR3-1333";
        SystemConfig cfg = deriveConfig(spec, mech, 1, false);
        cfg.engine = "event";
        Rng rng(1 * 0x9e3779b97f4a7c15ULL + 11);
        const auto workloads = makeWorkloads(1, cfg.numCores, 1);
        const Workload &w = workloads[rng.below(workloads.size())];
        System sys(cfg, w.benchIdx);
        sys.run(Tick(0) + 8 * sys.timing().tRefiAb);
        for (int ch = 0; ch < sys.numChannels(); ++ch) {
            const CheckerReport report = verifyCommandLog(
                sys.commandLog(ch), sys.config().mem, sys.timing(),
                sys.now());
            std::ostringstream detail;
            for (std::size_t i = 0;
                 i < report.violations.size() && i < 3; ++i) {
                detail << "\n  " << report.violations[i];
            }
            EXPECT_TRUE(report.ok())
                << "mech=" << mech << " channel=" << ch << detail.str();
            EXPECT_GT(report.commandsChecked, 0u) << "mech=" << mech;
        }
    }
}

TEST(EventEngineEquivalence, UnknownEngineRejected)
{
    SystemConfig cfg;
    cfg.engine = "warp";
    cfg.numCores = 1;
    const std::vector<int> bench = {0};
    EXPECT_DEATH(System(cfg, bench), "sim.engine");
}
