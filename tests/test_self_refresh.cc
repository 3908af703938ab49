/**
 * @file
 * Tests for the command-level self-refresh protocol (SRE/SRX):
 * per-spec tXS/tCKESR derivation, the rank state machine (entry
 * legality, demand lockout, tCKESR minimum residency, tXS exit
 * charge), channel stats, the ledger's pause/resume-with-re-anchor
 * semantics, the offline checker's SR rules, the idle-entry policy
 * end-to-end (zero checker violations, ledger still retires), the
 * no-free-lunch acceptance point (energy drops, weighted speedup
 * degrades), and the named-key validation of the new and legacy
 * config keys.
 */

#include <gtest/gtest.h>

#include "dram/channel.hh"
#include "dram/spec.hh"
#include "refresh/ledger.hh"
#include "refresh/registry.hh"
#include "sim/checker.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

TimingParams
ddr3Timing()
{
    MemConfig cfg;
    cfg.finalize();
    return TimingParams::forConfig(cfg);
}

MemConfig
ddr3Config()
{
    MemConfig cfg;
    cfg.finalize();
    return cfg;
}

TimedCommand
cmdAt(Tick tick, CommandType type, RankId rank = 0, BankId bank = 0,
      RowId row = 0)
{
    Command cmd;
    cmd.type = type;
    cmd.rank = rank;
    cmd.bank = bank;
    cmd.row = row;
    return {tick, cmd};
}

} // namespace

// ---------------------------------------------------------------------
// Timing derivation.
// ---------------------------------------------------------------------

TEST(SelfRefreshTiming, ExitLatencyExceedsRefreshLatencyOnEverySpec)
{
    // tXS = tRFCab + settle delta: always strictly above tRFCab, and
    // tCKESR is at least one cycle, on every registered backend and
    // density.
    for (const std::string &name : DramSpecRegistry::instance().names()) {
        for (Density d :
             {Density::k8Gb, Density::k16Gb, Density::k32Gb}) {
            MemConfig cfg;
            cfg.dramSpec = name;
            cfg.density = d;
            cfg.finalize();
            const TimingParams t = TimingParams::forConfig(cfg);
            EXPECT_GT(t.tXs, t.tRfcAb) << name << " " << densityName(d);
            EXPECT_GE(t.tCkesr, 1) << name;
            // The native-2x exit (DDR5's tXS_FGR) is shorter than the
            // full-granularity exit whenever the spec's divisor
            // actually shrinks tRFC.
            EXPECT_LT(t.tXsFgr, t.tXs) << name << " " << densityName(d);
        }
    }
}

TEST(SelfRefreshTiming, FgrModeShortensExitLatency)
{
    // Under an active FGR profile the exit tracks the scaled tRFC:
    // DDR5-4800 at FGR2x must exit in its data-sheet tXS_FGR, not the
    // 1x tXS.
    MemConfig base;
    base.dramSpec = "DDR5-4800";
    base.finalize();
    const TimingParams t1 = TimingParams::forConfig(base);

    MemConfig fgr = base;
    fgr.policy = "FGR2x";
    RefreshPolicyRegistry::instance().resolve(fgr);
    const TimingParams t2 = TimingParams::forConfig(fgr);
    EXPECT_LT(t2.tXs, t1.tXs);
    EXPECT_EQ(t2.tXs, t1.tXsFgr);
}

TEST(SelfRefreshTiming, Ddr3GoldenValues)
{
    // DDR3-1333 at 8 Gb: tXS = (350 + 10) ns / 1.5 = 240 cycles,
    // tCKESR = 7.5 ns / 1.5 = 5 cycles.
    const TimingParams t = ddr3Timing();
    EXPECT_EQ(t.tXs, 240);
    EXPECT_EQ(t.tCkesr, 5);
}

// ---------------------------------------------------------------------
// Rank state machine.
// ---------------------------------------------------------------------

TEST(SelfRefreshRank, EntryRequiresQuiescedRank)
{
    const MemConfig cfg = ddr3Config();
    const TimingParams t = ddr3Timing();
    Rank rank(&cfg, &t);
    EXPECT_TRUE(rank.canSrEnter(10));

    // A refresh in flight blocks entry until it drains.
    rank.onRefresh(10, {.type = CommandType::kRefAb});
    EXPECT_FALSE(rank.canSrEnter(Tick(10) + t.tRfcAb - Cycles(1)));
    EXPECT_TRUE(rank.canSrEnter(Tick(10) + t.tRfcAb));

    // An open row blocks entry.
    rank.bank(2).onAct(1000, 7, 0);
    EXPECT_FALSE(rank.canSrEnter(1001));
}

TEST(SelfRefreshRank, DemandAndRefreshIllegalWhileInSelfRefresh)
{
    const MemConfig cfg = ddr3Config();
    const TimingParams t = ddr3Timing();
    Rank rank(&cfg, &t);
    rank.onSrEnter(100);
    EXPECT_TRUE(rank.inSelfRefresh(100));
    EXPECT_FALSE(rank.canSrEnter(150));
    EXPECT_FALSE(rank.canActRankLevel(150));
    EXPECT_FALSE(rank.canRefAb(150));
    EXPECT_FALSE(rank.canRefPbRankLevel(150));
    EXPECT_FALSE(rank.canRefSb(150, 0));
}

TEST(SelfRefreshRank, ExitHonoursMinimumResidencyAndChargesTxs)
{
    const MemConfig cfg = ddr3Config();
    const TimingParams t = ddr3Timing();
    Rank rank(&cfg, &t);
    rank.onSrEnter(100);

    // tCKESR gates the exit...
    EXPECT_FALSE(rank.canSrExit(Tick(100) + t.tCkesr - Cycles(1)));
    EXPECT_TRUE(rank.canSrExit(Tick(100) + t.tCkesr));

    // ...and the first command after it is charged the full tXS.
    const Tick exit_at = Tick(100) + t.tCkesr;
    rank.onSrExit(exit_at);
    EXPECT_FALSE(rank.inSelfRefresh(exit_at));
    EXPECT_TRUE(rank.selfRefreshLockout(exit_at));
    EXPECT_FALSE(rank.canActRankLevel(exit_at + t.tXs - 1));
    EXPECT_TRUE(rank.canActRankLevel(exit_at + t.tXs));
    EXPECT_FALSE(rank.canSrEnter(exit_at + t.tXs - 1));
    EXPECT_TRUE(rank.canSrEnter(exit_at + t.tXs));
}

// ---------------------------------------------------------------------
// Channel integration.
// ---------------------------------------------------------------------

TEST(SelfRefreshChannel, CommandsAndStats)
{
    MemConfig cfg = ddr3Config();
    const TimingParams t = TimingParams::forConfig(cfg);
    Channel ch(&cfg, &t);

    Command sre;
    sre.type = CommandType::kSrEnter;
    sre.rank = 0;
    ASSERT_TRUE(ch.canIssue(sre, 50));
    ch.issue(sre, 50);
    EXPECT_EQ(ch.stats().srEnter, 1u);

    // Everything except SRX is illegal on the sleeping rank; the other
    // rank is unaffected.
    Command act;
    act.type = CommandType::kAct;
    act.rank = 0;
    act.bank = 1;
    act.row = 3;
    EXPECT_FALSE(ch.canIssue(act, 60));
    Command ref;
    ref.type = CommandType::kRefAb;
    ref.rank = 0;
    EXPECT_FALSE(ch.canIssue(ref, 60));
    act.rank = 1;
    EXPECT_TRUE(ch.canIssue(act, 60));

    // Residency ticks accumulate for the sleeping rank only, and a
    // sleeping rank is never billed active standby.
    ch.sampleActivity(60);
    EXPECT_EQ(ch.stats().srTicks, 1u);
    EXPECT_EQ(ch.stats().rankTotalTicks, 2u);
    EXPECT_EQ(ch.stats().rankActiveTicks, 0u);

    Command srx;
    srx.type = CommandType::kSrExit;
    srx.rank = 0;
    EXPECT_FALSE(ch.canIssue(srx, Tick(50) + t.tCkesr - Cycles(1)));
    ASSERT_TRUE(ch.canIssue(srx, Tick(50) + t.tCkesr));
    ch.issue(srx, Tick(50) + t.tCkesr);
    EXPECT_EQ(ch.stats().srExit, 1u);

    // tXS lockout, then the rank serves again.
    act.rank = 0;
    EXPECT_FALSE(
        ch.canIssue(act, Tick(50) + t.tCkesr + t.tXs - Cycles(1)));
    EXPECT_TRUE(ch.canIssue(act, Tick(50) + t.tCkesr + t.tXs));
}

// ---------------------------------------------------------------------
// Ledger pause/resume.
// ---------------------------------------------------------------------

TEST(SelfRefreshLedger, PausedRankStopsAccruing)
{
    RefreshLedger ledger(2, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(1000);
    EXPECT_EQ(ledger.owed(0), 1);
    EXPECT_EQ(ledger.owed(1), 1);

    ledger.pauseRank(0, 1500);
    EXPECT_TRUE(ledger.rankPaused(0));
    ledger.advanceTo(5000);
    EXPECT_EQ(ledger.owed(0), 1) << "paused rank must not accrue";
    EXPECT_EQ(ledger.owed(1), 5) << "other ranks keep accruing";
}

TEST(SelfRefreshLedger, ResumeRetiresOwedAtInternalRate)
{
    RefreshLedger ledger(1, 2, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(3999);  // Both banks owe 3.
    EXPECT_EQ(ledger.owed(0, 0), 3);

    ledger.pauseRank(0, 4000);
    // 2.5 periods of residency: the device retires 2 slots internally.
    ledger.resumeRank(0, 6500);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    EXPECT_EQ(ledger.owed(0, 1), 1);

    // A long residency floors at zero -- the device catches up, it
    // never banks pull-in credit.
    ledger.pauseRank(0, 7000);
    ledger.resumeRank(0, 90000);
    EXPECT_EQ(ledger.owed(0, 0), 0);
}

TEST(SelfRefreshLedger, ResumeReanchorsTheSchedule)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(1000);
    ledger.onRefresh(0);
    EXPECT_EQ(ledger.owed(0), 0);

    ledger.pauseRank(0, 1500);
    ledger.resumeRank(0, 9500);  // 8 periods paused.

    // The next accrual lands one (shifted) period after the pre-pause
    // instant, not in a burst of 8 missed slots: the window re-anchors
    // on the exit tick.
    ledger.advanceTo(9999);
    EXPECT_EQ(ledger.owed(0), 0);
    ledger.advanceTo(10000);  // 2000 (old next) + 8000 shift.
    EXPECT_EQ(ledger.owed(0), 1);
    EXPECT_FALSE(ledger.mustForce(0));

    // Per-tick accruedBetween queries (the DARP usage pattern) see
    // nothing until the re-anchored instant.
    EXPECT_FALSE(ledger.accruedBetween(0, 0, 9500, 9999));
    EXPECT_TRUE(ledger.accruedBetween(0, 0, 9999, 10000));
}

// ---------------------------------------------------------------------
// Checker rules.
// ---------------------------------------------------------------------

namespace {

/** Violation-message match over a hand-built log fragment. */
bool
logFails(const std::vector<TimedCommand> &log, const std::string &what)
{
    const MemConfig cfg = ddr3Config();
    const TimingParams t = TimingParams::forConfig(cfg);
    const CheckerReport report = verifyCommandLog(log, cfg, t, 0);
    for (const std::string &v : report.violations) {
        if (v.find(what) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(SelfRefreshChecker, DemandDuringSelfRefreshCaught)
{
    EXPECT_TRUE(logFails({cmdAt(10, CommandType::kSrEnter),
                          cmdAt(50, CommandType::kAct, 0, 0, 3)},
                         "rank in self-refresh"));
    EXPECT_TRUE(logFails({cmdAt(10, CommandType::kSrEnter),
                          cmdAt(50, CommandType::kRefAb)},
                         "rank in self-refresh"));
}

TEST(SelfRefreshChecker, ResidencyAndExitRulesCaught)
{
    const TimingParams t = ddr3Timing();
    // SRX below tCKESR.
    EXPECT_TRUE(logFails(
        {cmdAt(10, CommandType::kSrEnter),
         cmdAt(Tick(10) + t.tCkesr - Cycles(1), CommandType::kSrExit)},
        "tCKESR"));
    // ACT inside the tXS window.
    EXPECT_TRUE(logFails(
        {cmdAt(10, CommandType::kSrEnter),
         cmdAt(Tick(10) + t.tCkesr, CommandType::kSrExit),
         cmdAt(Tick(10) + t.tCkesr + t.tXs - Cycles(1),
               CommandType::kAct, 0, 0, 3)},
        "tXS"));
    // SRX without a preceding SRE; double SRE.
    EXPECT_TRUE(logFails({cmdAt(10, CommandType::kSrExit)},
                         "outside self-refresh"));
    EXPECT_TRUE(logFails({cmdAt(10, CommandType::kSrEnter),
                          cmdAt(50, CommandType::kSrEnter)},
                         "already in self-refresh"));
    // SRE over a refresh still in flight.
    EXPECT_TRUE(logFails({cmdAt(10, CommandType::kRefAb),
                          cmdAt(11, CommandType::kSrEnter)},
                         "refresh is in flight"));
}

TEST(SelfRefreshChecker, LegalProtocolSequencePasses)
{
    const MemConfig cfg = ddr3Config();
    const TimingParams t = TimingParams::forConfig(cfg);
    const Tick exit_at = Tick(100) + t.tCkesr;
    const std::vector<TimedCommand> log = {
        cmdAt(100, CommandType::kSrEnter),
        cmdAt(exit_at, CommandType::kSrExit),
        cmdAt(exit_at + t.tXs, CommandType::kAct, 0, 0, 3),
    };
    const CheckerReport report = verifyCommandLog(log, cfg, t, 0);
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
}

TEST(SelfRefreshChecker, ResidencyCreditsRefreshCompleteness)
{
    // A rank asleep for the whole window issues no refresh command at
    // all, yet must not be reported as behind: the device covered its
    // rows internally. Rank 1 (awake, never refreshed) must still be
    // caught.
    MemConfig cfg = ddr3Config();
    const TimingParams t = TimingParams::forConfig(cfg);
    const Tick end = Tick(0) + 12 * t.tRefiAb;
    const CheckerReport report = verifyCommandLog(
        {cmdAt(10, CommandType::kSrEnter)}, cfg, t, end);
    bool rank0_behind = false;
    bool rank1_behind = false;
    for (const std::string &v : report.violations) {
        if (v.find("rank=0") != std::string::npos)
            rank0_behind = true;
        if (v.find("rank=1") != std::string::npos)
            rank1_behind = true;
    }
    EXPECT_FALSE(rank0_behind)
        << "self-refresh residency must credit coverage";
    EXPECT_TRUE(rank1_behind)
        << "an awake, unrefreshed rank must still fall behind";
}

// ---------------------------------------------------------------------
// End-to-end: idle entry under real schedulers.
// ---------------------------------------------------------------------

namespace {

/** Run one mechanism end-to-end with the checker attached; return the
 *  total SRE count and assert zero violations + refresh liveness. */
std::uint64_t
endToEnd(const std::string &spec, const std::string &mech,
         int idle_entry, int banks_per_rank = 8)
{
    SystemConfig cfg;
    cfg.mem.dramSpec = spec;
    cfg.mem.policy = mech;
    cfg.mem.org.channels = 1;
    cfg.mem.org.banksPerRank = banks_per_rank;
    cfg.mem.srIdleEntryCycles = idle_entry;
    // One core of the 0%-intensive mix: demand-idle stretches long
    // enough for the idle-entry policy to actually fire.
    cfg.numCores = 1;
    cfg.enableChecker = true;
    const auto workloads = makeWorkloads(1, cfg.numCores, 1);
    System sys(cfg, workloads[0].benchIdx);
    sys.run(Tick(0) + 10 * sys.timing().tRefiAb);

    std::uint64_t sre = 0;
    std::uint64_t refreshes = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch) {
        const CheckerReport report = verifyCommandLog(
            sys.commandLog(ch), sys.config().mem, sys.timing(),
            sys.now());
        std::string detail;
        for (std::size_t i = 0;
             i < report.violations.size() && i < 3; ++i) {
            detail += "\n  " + report.violations[i];
        }
        EXPECT_TRUE(report.ok())
            << spec << "/" << mech << " idleEntry=" << idle_entry
            << detail;
        const ChannelStats &cs = sys.controller(ch).channel().stats();
        sre += cs.srEnter;
        refreshes += cs.refAb + cs.refPb + cs.refSb;
        std::uint64_t still_resident = 0;
        for (RankId r = 0; r < sys.controller(ch).channel().numRanks();
             ++r) {
            if (sys.controller(ch).channel().rank(r).inSelfRefresh(
                    sys.now())) {
                ++still_resident;
            }
        }
        EXPECT_EQ(cs.srEnter, cs.srExit + still_resident)
            << "every SRE pairs with an SRX unless still resident";
    }
    // Liveness: external refreshes, internal residency, or both.
    EXPECT_GT(refreshes + sre, 0u) << spec << "/" << mech;
    return sre;
}

} // namespace

TEST(SelfRefreshEndToEnd, RefabEntersAndStaysLegal)
{
    EXPECT_GT(endToEnd("DDR3-1333", "REFab", 300), 0u);
}

TEST(SelfRefreshEndToEnd, DsarpEntersAndStaysLegal)
{
    EXPECT_GT(endToEnd("DDR3-1333", "DSARP", 300), 0u);
}

TEST(SelfRefreshEndToEnd, Ddr5RefsbEntersAndStaysLegal)
{
    EXPECT_GT(endToEnd("DDR5-4800", "REFsb", 500, 32), 0u);
}

TEST(SelfRefreshEndToEnd, DisabledKeyIsBitIdenticalToDefault)
{
    // refresh.selfRefresh.idleEntry=0 must leave every reported number
    // of the PR-4 configuration untouched (the golden-baseline suite
    // pins the absolute values; this pins the equivalence).
    Runner runner(1000, 10000, 1);
    RunConfig base;
    base.density = Density::k32Gb;
    base.policy = "REFab";
    RunConfig off = base;
    off.srIdleEntryCycles = 0;
    const Workload w = makeWorkloads(1, 8, 1)[2];
    const RunResult a = runner.run(base, w);
    const RunResult b = runner.run(off, w);
    EXPECT_EQ(a.readsCompleted, b.readsCompleted);
    EXPECT_EQ(a.refAb, b.refAb);
    EXPECT_DOUBLE_EQ(a.ws, b.ws);
    EXPECT_DOUBLE_EQ(a.energyPerAccessNj, b.energyPerAccessNj);
    EXPECT_EQ(b.srEnters, 0u);
}

TEST(SelfRefreshEndToEnd, NoFreeLunch)
{
    // The acceptance point: on a low-intensity workload, enabling
    // idle entry must cut total energy (the ranks really do sleep at
    // IDD6) while weighted speedup measurably degrades (tCKESR
    // residency + the tXS exit charge delay demand) -- the exact
    // latency/energy trade an energy-only model would hide.
    Runner runner(2000, 60000, 1);
    const Workload w = makeWorkloads(1, 2, 1)[0];  // 0%-intensive.

    RunConfig base;
    base.density = Density::k32Gb;
    base.policy = "REFab";
    base.numCores = 2;
    RunConfig sr = base;
    sr.srIdleEntryCycles = 750;

    const RunResult off = runner.run(base, w);
    const RunResult on = runner.run(sr, w);

    ASSERT_GT(on.srEnters, 0u);
    ASSERT_GT(on.srTicks, 0u);

    const double total_off = off.energyPerAccessNj *
        static_cast<double>(off.readsCompleted + off.writesIssued);
    const double total_on = on.energyPerAccessNj *
        static_cast<double>(on.readsCompleted + on.writesIssued);
    EXPECT_LT(total_on, total_off) << "sleeping ranks must save energy";
    EXPECT_LT(on.ws, off.ws) << "the exit latency must cost performance";
}

// ---------------------------------------------------------------------
// Config-key validation.
// ---------------------------------------------------------------------

TEST(SelfRefreshConfig, NamedKeyValidation)
{
    ExperimentConfig cfg;
    cfg.sys.mem.srIdleEntryCycles = -1;
    EXPECT_NE(cfg.validate().find("refresh.selfRefresh.idleEntry"),
              std::string::npos);
    cfg.sys.mem.srIdleEntryCycles = 1000;
    EXPECT_EQ(cfg.validate(), "") << cfg.validate();

    // refresh.fgrRate accepts only 0/1/2/4.
    cfg = ExperimentConfig{};
    cfg.sys.mem.fgrRate = 3;
    EXPECT_NE(cfg.validate().find("refresh.fgrRate"), std::string::npos);
}

TEST(SelfRefreshConfig, KeysRoundTripThroughTheLayeredSurface)
{
    ExperimentConfig cfg;
    EXPECT_EQ(cfg.trySet("refresh.selfRefresh.idleEntry", "4000"), "");
    EXPECT_EQ(cfg.sys.mem.srIdleEntryCycles, 4000);
    EXPECT_EQ(cfg.trySet("refresh.fgrRate", "2"), "");
    EXPECT_EQ(cfg.sys.mem.fgrRate, 2);
}
