/**
 * @file
 * DDR5 same-bank refresh (REFsb) tests: registry entries and config
 * bundles, the derived slice timing, multi-bank refresh occupancy in
 * the rank/bank/channel state machines, the scheduler's
 * postpone/pull-in/pairing behaviour on a mock view, checker legality
 * rules for the REFsb command, and deterministic checker-verified
 * end-to-end runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dram/spec.hh"
#include "mock_view.hh"
#include "refresh/darp.hh"
#include "refresh/registry.hh"
#include "sim/checker.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

MemConfig
ddr5Config(int banks_per_rank = 8, int group_size = 0,
           bool hira = false)
{
    MemConfig cfg;
    cfg.dramSpec = "DDR5-4800";
    cfg.org.banksPerRank = banks_per_rank;
    cfg.sameBankGroupSize = group_size;
    cfg.policy = hira ? "HiRAsb" : "REFsb";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Registry and config bundles.
// ---------------------------------------------------------------------

TEST(SameBankRegistry, EntriesAndAliases)
{
    const auto &registry = RefreshPolicyRegistry::instance();
    EXPECT_EQ(registry.at("REFsb").name, "REFsb");
    EXPECT_EQ(registry.at("same_bank").name, "REFsb");
    EXPECT_EQ(registry.at("refsb").name, "REFsb");
    EXPECT_EQ(registry.at("HiRAsb").name, "HiRAsb");
    EXPECT_EQ(registry.at("refsb+hira").name, "HiRAsb");
}

TEST(SameBankRegistry, ConfigBundles)
{
    MemConfig cfg;
    cfg.dramSpec = "DDR5-4800";
    cfg.policy = "REFsb";
    RefreshPolicyRegistry::instance().resolve(cfg);
    EXPECT_EQ(cfg.refresh, RefreshMode::kSameBank);
    EXPECT_FALSE(cfg.sarp);
    EXPECT_FALSE(cfg.hira);

    cfg.policy = "HiRAsb";
    RefreshPolicyRegistry::instance().resolve(cfg);
    EXPECT_EQ(cfg.refresh, RefreshMode::kSameBank);
    EXPECT_TRUE(cfg.hira);
}

// ---------------------------------------------------------------------
// Derived slice timing.
// ---------------------------------------------------------------------

TEST(SameBankTiming, CanonicalDdr5Geometry)
{
    // 32 banks/rank = 8 bank groups of 4: a slice every tREFIab / 8.
    MemConfig cfg = ddr5Config(32);
    cfg.density = Density::k8Gb;
    const TimingParams t = TimingParams::forConfig(cfg);
    EXPECT_EQ(t.banksPerGroup, 4);
    EXPECT_EQ(t.tRefiSb, t.tRefiAb / 8);
    EXPECT_EQ(t.tRfcSb,
              TimingParams::nsToCycles(Nanoseconds(115.0), t.tCkNs));
    EXPECT_GT(t.tRefiSb, t.tRfcSb);
    // A slice refreshes 4 banks in less than 4 REFpb commands' time.
    EXPECT_LT(t.tRfcSb, 4 * t.tRfcPb);
}

TEST(SameBankTiming, GroupSizeOverrideReslices)
{
    MemConfig cfg = ddr5Config(32, 2);
    const TimingParams t = TimingParams::forConfig(cfg);
    EXPECT_EQ(t.banksPerGroup, 2);
    EXPECT_EQ(t.tRefiSb, t.tRefiAb / 16);
}

TEST(SameBankTiming, ZeroedOnSpecsWithoutSupport)
{
    MemConfig cfg;
    cfg.finalize();  // DDR3-1333 default.
    const TimingParams t = TimingParams::forConfig(cfg);
    EXPECT_EQ(t.banksPerGroup, 0);
    EXPECT_EQ(t.tRefiSb, 0u);
    EXPECT_EQ(t.tRfcSb, 0);
}

TEST(SameBankTiming, FgrScalesSliceLatency)
{
    MemConfig base = ddr5Config();
    base.policy = "REFab";
    RefreshPolicyRegistry::instance().resolve(base);
    MemConfig fgr = base;
    fgr.policy = "FGR2x";
    RefreshPolicyRegistry::instance().resolve(fgr);
    const TimingParams t1 = TimingParams::forConfig(base);
    const TimingParams t2 = TimingParams::forConfig(fgr);
    EXPECT_LT(t2.tRfcSb, t1.tRfcSb);
    EXPECT_EQ(t2.tRefiSb, t1.tRefiSb / 2);
}

TEST(SameBankTiming, UnsupportedSpecFailsValidationWithNamedKey)
{
    MemConfig cfg;
    cfg.policy = "REFsb";  // On default DDR3-1333.
    RefreshPolicyRegistry::instance().resolve(cfg);
    const std::string errors = cfg.validate();
    EXPECT_NE(errors.find("bank-group"), std::string::npos);

    MemConfig resliced;
    resliced.sameBankGroupSize = 3;  // Doesn't divide 8 banks.
    resliced.dramSpec = "DDR5-4800";
    EXPECT_NE(resliced.validate().find("refresh.samebank.groupSize"),
              std::string::npos);

    // Slices may only be narrowed: a slice wider than the device's
    // bank group would beat the device's own tRFCab, which is
    // physically impossible.
    MemConfig widened;
    widened.sameBankGroupSize = 8;
    widened.dramSpec = "DDR5-4800";
    EXPECT_NE(widened.validate().find("exceeds"), std::string::npos);
}

// ---------------------------------------------------------------------
// Rank/bank/channel multi-bank refresh occupancy.
// ---------------------------------------------------------------------

class SameBankDram : public ::testing::Test
{
  protected:
    SameBankDram()
        : cfg_(ddr5Config()), timing_(TimingParams::forConfig(cfg_)),
          channel_(&cfg_, &timing_)
    {
    }

    Command
    refSb(int group)
    {
        Command cmd;
        cmd.type = CommandType::kRefSb;
        cmd.rank = 0;
        cmd.bank = group;
        return cmd;
    }

    MemConfig cfg_;       ///< Default org: 8 banks -> 2 groups of 4.
    TimingParams timing_;
    Channel channel_;
};

TEST_F(SameBankDram, SliceRefreshesAllGroupBanksAndOnlyThem)
{
    // At the datasheet tRFCsb and under an override: the slice's banks
    // refresh for that long, and the refresh arm of Channel::issue()
    // bills REFsb alone and reports the [start, end) span.
    for (const Cycles t_override : {Cycles(), Cycles(100)}) {
        SCOPED_TRACE(t_override.count());
        Channel channel(&cfg_, &timing_);
        std::vector<std::pair<Tick, Tick>> spans;
        channel.setRefreshSpanCallback(
            [&](Tick s, Tick e) { spans.emplace_back(s, e); });
        Command cmd = refSb(0);
        cmd.tRfcOverride = t_override;
        ASSERT_TRUE(channel.canIssue(cmd, 10));
        channel.issue(cmd, 10);

        const Cycles t_rfc = t_override ? t_override : timing_.tRfcSb;
        const Tick end = Tick(10) + t_rfc;
        const Rank &rank = channel.rank(0);
        for (BankId b = 0; b < 4; ++b) {
            EXPECT_TRUE(rank.bank(b).refreshing(end - 1)) << "bank " << b;
            EXPECT_FALSE(rank.bank(b).refreshing(end)) << "bank " << b;
        }
        for (BankId b = 4; b < 8; ++b)
            EXPECT_FALSE(rank.bank(b).refreshing(11)) << "bank " << b;
        EXPECT_TRUE(rank.refSbInFlight(end - 1));
        EXPECT_FALSE(rank.refSbInFlight(end));

        const ChannelStats &st = channel.stats();
        EXPECT_EQ(st.refSb, 1u);
        EXPECT_EQ(st.refSbCycles, static_cast<std::uint64_t>(t_rfc.count()));
        EXPECT_EQ(st.refAb + st.refPb + st.refPbHidden, 0u);
        EXPECT_EQ(st.refAbCycles + st.refPbCycles, 0u);
        const std::vector<std::pair<Tick, Tick>> want = {{10, end}};
        EXPECT_EQ(spans, want);
    }
}

TEST_F(SameBankDram, RefreshesSerializeWithinTheRank)
{
    channel_.issue(refSb(0), 10);
    const Tick during = Tick(10) + timing_.tRfcSb / 2;
    // No second slice, REFpb, or REFab while the slice is in flight.
    EXPECT_FALSE(channel_.canIssue(refSb(1), during));
    Command pb;
    pb.type = CommandType::kRefPb;
    pb.bank = 6;  // A bank outside the refreshing slice.
    EXPECT_FALSE(channel_.canIssue(pb, during));
    Command ab;
    ab.type = CommandType::kRefAb;
    EXPECT_FALSE(channel_.canIssue(ab, during));

    const Tick after = Tick(10) + timing_.tRfcSb;
    EXPECT_TRUE(channel_.canIssue(refSb(1), after));
}

TEST_F(SameBankDram, OtherGroupsKeepServingDuringSlice)
{
    channel_.issue(refSb(0), 10);
    const Tick during = Tick(10) + timing_.tRfcSb / 2;
    Command act;
    act.type = CommandType::kAct;
    act.bank = 5;  // Other bank group: stays available.
    act.row = 7;
    EXPECT_TRUE(channel_.canIssue(act, during));
    act.bank = 2;  // Refreshing slice: blocked.
    EXPECT_FALSE(channel_.canIssue(act, during));
}

TEST_F(SameBankDram, SliceWaitsForOpenRowsAndBounds)
{
    Command act;
    act.type = CommandType::kAct;
    act.bank = 1;
    act.row = 3;
    channel_.issue(act, 0);
    const Tick later = Tick(0) + (timing_.tRcd + timing_.tRas);
    EXPECT_FALSE(channel_.canIssue(refSb(0), later))
        << "open row in the slice must block it";
    EXPECT_TRUE(channel_.canIssue(refSb(1), later));
    EXPECT_FALSE(channel_.canIssue(refSb(2), later)) << "out of range";
}

// ---------------------------------------------------------------------
// Scheduler behaviour on a mock view.
// ---------------------------------------------------------------------

TEST(SameBankScheduling, DueSliceIsBlockingAndRetiresWholeGroup)
{
    MemConfig cfg = ddr5Config();
    const TimingParams timing = TimingParams::forConfig(cfg);
    MockView view(&cfg, &timing);
    DarpScheduler sched(&cfg, &timing, &view);
    EXPECT_EQ(sched.ledger().banksPerRank(), 2) << "one unit per slice";

    // Advance past the first accrual of rank 0 / group 0.
    const Tick t0 = Tick(1) + timing.tRefiAb;
    sched.tick(t0);
    std::vector<RefreshRequest> urgent;
    sched.urgent(t0, urgent);
    ASSERT_FALSE(urgent.empty());
    EXPECT_EQ(urgent[0].cmd.type, CommandType::kRefSb);
    EXPECT_TRUE(urgent[0].blocking);
    EXPECT_EQ(urgent[0].cmd.bank, 0);

    sched.onIssued(urgent[0], t0);
    EXPECT_EQ(sched.ledger().owed(0, 0), 0)
        << "one command retires the whole slice's obligation";
    EXPECT_EQ(sched.stats().issued, 1u);
}

TEST(SameBankScheduling, PendingDemandsPostponeUntilHeadroomRunsOut)
{
    MemConfig cfg = ddr5Config();
    const TimingParams timing = TimingParams::forConfig(cfg);
    MockView view(&cfg, &timing);
    DarpScheduler sched(&cfg, &timing, &view);
    view.setReads(0, 2, 4);  // Demand on one bank of group 0.

    Tick t = Tick(1) + timing.tRefiAb;
    sched.tick(t);
    std::vector<RefreshRequest> urgent;
    sched.urgent(t, urgent);
    for (const RefreshRequest &req : urgent)
        EXPECT_NE(req.cmd.bank, 0) << "busy slice must be postponed";
    EXPECT_GT(sched.stats().postponed, 0u);

    // Two slots short of the postpone limit the slice goes due even
    // with demands pending (drain headroom before the erratum bound),
    // before the limit would force it.
    for (int slots = 2; slots <= 6; ++slots) {
        t = Tick(1) + slots * timing.tRefiAb;
        sched.tick(t);
        urgent.clear();
        sched.urgent(t, urgent);
        bool group0_due = false;
        for (const RefreshRequest &req : urgent)
            group0_due |= req.cmd.rank == 0 && req.cmd.bank == 0;
        EXPECT_EQ(group0_due, slots == 6) << slots << " slots owed";
    }
    EXPECT_FALSE(sched.ledger().mustForce(0, 0));
}

TEST(SameBankScheduling, IdlePullInHonoursKnobAndWindow)
{
    MemConfig cfg = ddr5Config();
    const TimingParams timing = TimingParams::forConfig(cfg);
    {
        MockView view(&cfg, &timing);
        DarpScheduler sched(&cfg, &timing, &view);
        RefreshRequest opp;
        int pulled = 0;
        Tick t = 10;
        while (sched.opportunistic(t, opp)) {
            EXPECT_EQ(opp.cmd.type, CommandType::kRefSb);
            ASSERT_TRUE(view.issueRefresh(sched, opp, t));
            ++pulled;
            t += timing.tRfcSb + Cycles(1);
            ASSERT_LT(pulled, 100);
        }
        // 2 ranks x 2 groups x 8-slot JEDEC pull-in window.
        EXPECT_EQ(pulled, 2 * 2 * sched.ledger().maxSlack());
    }
    {
        MemConfig noPull = cfg;
        noPull.sameBankPullIn = false;
        MockView view(&noPull, &timing);
        DarpScheduler sched(&noPull, &timing, &view);
        RefreshRequest opp;
        EXPECT_FALSE(sched.opportunistic(10, opp));
    }
}

TEST(SameBankScheduling, HiraPairingDoublesLaggingSlices)
{
    MemConfig cfg = ddr5Config(8, 0, /*hira=*/true);
    TimingParams timing = TimingParams::forConfig(cfg);
    timing.hiraRefCoverage = 1.0;  // Deterministic pairing draw.
    MockView view(&cfg, &timing);
    DarpScheduler sched(&cfg, &timing, &view);

    // Three slots accrue with no refresh issued: the due slice must
    // offer to retire two of them in one command.
    const Tick t = Tick(1) + 3 * timing.tRefiAb + timing.tRefiSb;
    sched.tick(t);
    std::vector<RefreshRequest> urgent;
    sched.urgent(t, urgent);
    ASSERT_FALSE(urgent.empty());
    const RefreshRequest &req = urgent[0];
    EXPECT_EQ(req.cmd.rowsOverride, 2 * timing.rowsPerRefresh);
    EXPECT_EQ(req.ledgerParts, 2);

    const Command &cmd = req.cmd;
    const int owed_before = sched.ledger().owed(cmd.rank, cmd.bank);
    sched.onIssued(req, t);
    EXPECT_EQ(sched.ledger().owed(cmd.rank, cmd.bank), owed_before - 2);
}

TEST(SameBankScheduling, HiraPairingDrawsOncePerSlot)
{
    // One coverage draw per due slot: repeated urgent() calls reuse it,
    // and a slice draws again only for the slot after its refresh.
    MemConfig cfg = ddr5Config(8, 0, /*hira=*/true);
    TimingParams timing = TimingParams::forConfig(cfg);
    timing.hiraRefCoverage = 0.0;  // Every draw fails: one slot retires.
    MockView view(&cfg, &timing);
    DarpScheduler sched(&cfg, &timing, &view);

    Tick t = Tick(1) + 3 * timing.tRefiAb;
    sched.tick(t);
    std::vector<RefreshRequest> urgent;
    sched.urgent(t, urgent);
    const std::uint64_t drawn = view.schedulerRng().draws();
    EXPECT_GT(drawn, 0u);
    urgent.clear();
    sched.urgent(t, urgent);
    EXPECT_EQ(view.schedulerRng().draws(), drawn) << "one draw per slot";

    ASSERT_FALSE(urgent.empty());
    ASSERT_EQ(urgent[0].cmd.rank, 0);
    ASSERT_EQ(urgent[0].cmd.bank, 0);
    EXPECT_EQ(urgent[0].ledgerParts, 0);
    sched.onIssued(urgent[0], t);

    // The slice's next accrual makes it due again, with a fresh draw;
    // every other slice keeps its draw.
    t += timing.tRefiAb;
    sched.tick(t);
    urgent.clear();
    sched.urgent(t, urgent);
    EXPECT_EQ(view.schedulerRng().draws(), drawn + 1);
}

TEST(SameBankScheduling, NoPairingWithoutHira)
{
    MemConfig cfg = ddr5Config();
    const TimingParams timing = TimingParams::forConfig(cfg);
    MockView view(&cfg, &timing);
    DarpScheduler sched(&cfg, &timing, &view);
    const Tick t = Tick(1) + 3 * timing.tRefiAb + timing.tRefiSb;
    sched.tick(t);
    std::vector<RefreshRequest> urgent;
    sched.urgent(t, urgent);
    ASSERT_FALSE(urgent.empty());
    EXPECT_EQ(urgent[0].ledgerParts, 0);
    EXPECT_EQ(urgent[0].cmd.rowsOverride, 0);
}

// ---------------------------------------------------------------------
// Checker legality rules.
// ---------------------------------------------------------------------

class SameBankChecker : public ::testing::Test
{
  protected:
    SameBankChecker()
        : cfg_(ddr5Config()), timing_(TimingParams::forConfig(cfg_))
    {
    }

    TimedCommand
    refSb(Tick t, int group)
    {
        Command cmd;
        cmd.type = CommandType::kRefSb;
        cmd.bank = group;
        return {t, cmd};
    }

    TimedCommand
    refPb(Tick t, BankId bank)
    {
        Command cmd;
        cmd.type = CommandType::kRefPb;
        cmd.bank = bank;
        return {t, cmd};
    }

    CheckerReport
    verify(const std::vector<TimedCommand> &log)
    {
        return verifyCommandLog(log, cfg_, timing_, 0);
    }

    MemConfig cfg_;
    TimingParams timing_;
};

TEST_F(SameBankChecker, AcceptsSerializedSlices)
{
    const CheckerReport report = verify({
        refSb(10, 0),
        refSb(Tick(10) + timing_.tRfcSb, 1),
    });
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "" : report.violations[0]);
    EXPECT_EQ(report.refreshesChecked, 8u)
        << "each slice checks its four banks";
}

TEST_F(SameBankChecker, FlagsOverlapWithSliceInFlight)
{
    EXPECT_FALSE(verify({refSb(10, 0), refSb(12, 1)}).ok());
    EXPECT_FALSE(verify({refSb(10, 0), refPb(12, 6)}).ok());
    EXPECT_FALSE(verify({refPb(10, 6), refSb(12, 0)}).ok());
}

TEST_F(SameBankChecker, FlagsGroupOutOfRange)
{
    const CheckerReport report = verify({refSb(10, 2)});
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations[0].find("out of range"),
              std::string::npos);
}

TEST_F(SameBankChecker, FlagsRefsbWithoutSpecSupport)
{
    MemConfig ddr3;
    ddr3.finalize();
    const TimingParams t3 = TimingParams::forConfig(ddr3);
    Command cmd;
    cmd.type = CommandType::kRefSb;
    const CheckerReport report =
        verifyCommandLog({{10, cmd}}, ddr3, t3, 0);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations[0].find("without same-bank"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Deterministic end-to-end runs (checker-verified).
// ---------------------------------------------------------------------

TEST(SameBankEndToEnd, RefsbRunsCleanOnCanonicalDdr5)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.org.banksPerRank = 32;
    cfg.mem.policy = "REFsb";
    cfg.mem.dramSpec = "DDR5-4800";
    cfg.seed = 3;
    cfg.enableChecker = true;
    System sys(cfg, {benchmarkIndex("mcf-like"),
                     benchmarkIndex("stream-like")});
    sys.run(Tick(0) + 8 * sys.timing().tRefiAb);

    const ChannelStats &cs = sys.controller(0).channel().stats();
    EXPECT_GT(cs.refSb, 0u);
    EXPECT_EQ(cs.refPb, 0u);
    EXPECT_EQ(cs.refAb, 0u);
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "" : report.violations[0]);
}

TEST(SameBankEndToEnd, HirasbPairsSlices)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.org.channels = 1;
    cfg.mem.policy = "HiRAsb";
    cfg.mem.dramSpec = "DDR5-4800";
    cfg.seed = 5;
    cfg.enableChecker = true;
    System sys(cfg, {benchmarkIndex("mcf-like"),
                     benchmarkIndex("milc-like")});
    sys.run(Tick(0) + 12 * sys.timing().tRefiAb);

    EXPECT_GT(sys.controller(0).channel().stats().refSb, 0u);
    const CheckerReport report = verifyCommandLog(
        sys.commandLog(0), sys.config().mem, sys.timing(), sys.now());
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "" : report.violations[0]);
}
