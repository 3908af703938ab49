/**
 * @file
 * HiRA (hidden row activation) tests: registry resolution, the
 * bank-level hidden-refresh/ACT subarray-conflict rules, channel-level
 * legality, end-to-end behaviour (hidden refreshes actually issue and
 * the command stream stays legal under the independent checker), the
 * coverage/delay config knobs, and the IPC comparison against the
 * refresh baselines.
 */

#include <gtest/gtest.h>

#include "dram/channel.hh"
#include "refresh/hira.hh"
#include "refresh/registry.hh"
#include "sim/checker.hh"
#include "sim/simulation.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

/** DDR3-1333 timing for the default org (tHiRA = 5 cycles). */
TimingParams
ddr3Timing()
{
    MemConfig cfg;
    cfg.finalize();
    return TimingParams::forConfig(cfg);
}

SystemConfig
smallConfig(const std::string &policy, int subarrays = 8)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mem.policy = policy;
    cfg.mem.org.channels = 1;
    cfg.mem.density = Density::k32Gb;  // Longest refresh: biggest signal.
    cfg.mem.org.subarraysPerBank = subarrays;
    cfg.seed = 7;
    return cfg;
}

std::vector<int>
intensivePair()
{
    return {benchmarkIndex("mcf-like"), benchmarkIndex("stream-like")};
}

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

std::uint64_t
hiddenIssued(System &sys)
{
    std::uint64_t hidden = 0;
    for (int ch = 0; ch < sys.numChannels(); ++ch)
        hidden += sys.controller(ch).channel().stats().refPbHidden;
    return hidden;
}

} // namespace

// ---------------------------------------------------------------------
// Registry resolution.
// ---------------------------------------------------------------------

TEST(Hira, ResolvesFromTheRegistry)
{
    const auto &registry = RefreshPolicyRegistry::instance();
    ASSERT_TRUE(registry.has("HiRA"));
    ASSERT_TRUE(registry.has("hira"));                    // Case-blind.
    ASSERT_TRUE(registry.has("hidden-row-activation"));   // Alias.

    MemConfig cfg;
    cfg.policy = "hira";
    const auto &entry = registry.resolve(cfg);
    EXPECT_EQ(entry.name, "HiRA");
    EXPECT_EQ(cfg.policy, "HiRA");
    EXPECT_EQ(cfg.refresh, RefreshMode::kPerBank);  // DARP's timing.
    EXPECT_FALSE(cfg.sarp);                      // No chip modification.
    EXPECT_TRUE(cfg.hira);
}

TEST(Hira, FactoryBuildsAHiraScheduler)
{
    MemConfig cfg;
    cfg.policy = "HiRA";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);

    class NullView : public ControllerView
    {
      public:
        explicit NullView(const MemConfig *cfg) : dram_(cfg, &timing_)
        {
        }
        int pendingDemands(RankId, BankId) const override { return 0; }
        std::uint64_t demandBanks() const override { return 0; }
        bool inWritebackMode() const override { return false; }
        Tick lastDemandActivity(RankId) const override { return 0; }
        const Channel &dram() const override { return dram_; }
        Rng &schedulerRng() override { return rng_; }

      private:
        TimingParams timing_ = ddr3Timing();
        Channel dram_;
        Rng rng_{1};
    };

    NullView view(&cfg);
    auto sched =
        RefreshPolicyRegistry::instance().make(cfg, timing, view);
    EXPECT_NE(dynamic_cast<HiraScheduler *>(sched.get()), nullptr);
}

// ---------------------------------------------------------------------
// Bank-level hidden-refresh / subarray-conflict rules.
// ---------------------------------------------------------------------

TEST(HiraBank, HiddenRefreshRequiresOpenRowAndDelay)
{
    const TimingParams t = ddr3Timing();
    const int rows_per_sub = 65536 / 8;
    Bank bank(&t, rows_per_sub, 65536, /*sarp=*/false);

    // Closed bank: plain refresh is legal, hidden refresh is not.
    EXPECT_TRUE(bank.canRefresh(0));
    EXPECT_FALSE(bank.canHiddenRefresh(0));

    // Open a row in subarray 1; the refresh counter targets row 0
    // (subarray 0), so the pair is conflict-free -- but only after
    // tHiRA cycles.
    bank.onAct(0, rows_per_sub + 5, 1);
    EXPECT_FALSE(bank.canHiddenRefresh(0));
    EXPECT_FALSE(bank.canHiddenRefresh(at(t.tHiRA) - 1));
    EXPECT_TRUE(bank.canHiddenRefresh(at(t.tHiRA)));

    // An open bank never accepts a *plain* refresh.
    EXPECT_FALSE(bank.canRefresh(at(t.tHiRA)));
}

TEST(HiraBank, HiddenRefreshConflictsWithSameSubarray)
{
    const TimingParams t = ddr3Timing();
    const int rows_per_sub = 65536 / 8;
    Bank bank(&t, rows_per_sub, 65536, /*sarp=*/false);

    // Open row 3 in subarray 0 -- the same subarray the refresh
    // counter (row 0) targets: hiding must be rejected at any delay.
    bank.onAct(0, 3, 0);
    EXPECT_FALSE(bank.canHiddenRefresh(at(t.tHiRA)));
    EXPECT_FALSE(bank.canHiddenRefresh(at(t.tHiRA) + 100));
}

TEST(HiraBank, HiddenRefreshKeepsOpenRowServingAndBlocksNewActs)
{
    const TimingParams t = ddr3Timing();
    const int rows_per_sub = 65536 / 8;
    Bank bank(&t, rows_per_sub, 65536, /*sarp=*/false);

    bank.onAct(0, rows_per_sub + 5, 1);
    const Tick start = at(t.tHiRA);
    bank.onRefresh(start, t.tRc, /*rows=*/1, /*hidden=*/true);

    EXPECT_TRUE(bank.hiddenRefreshing(start));
    EXPECT_EQ(bank.refreshingSubarray(start), 0);  // Counter's subarray.
    EXPECT_EQ(bank.refreshRowCounter(), 1);        // Advanced by 1 row.

    // The open row still serves column commands mid-refresh.
    EXPECT_TRUE(bank.canColumn(at(t.tRcd) + 1));

    // Close the row; a new ACT must wait for the hidden refresh end.
    bank.onRead(at(t.tRcd) + 1, /*autoPrecharge=*/true);
    const Tick refresh_end = start + t.tRc;
    EXPECT_FALSE(bank.canAct(refresh_end - 1, 12345));
    EXPECT_TRUE(bank.canAct(refresh_end, 12345));

    // No second refresh (hidden or plain) while one is in flight.
    EXPECT_FALSE(bank.canHiddenRefresh(start + 1));
    EXPECT_FALSE(bank.canRefresh(start + 1));
}

TEST(HiraBank, RefreshingSubarrayRecordedForHiddenRefresh)
{
    // ...so wait-for-subarray checks (and SARP composition) observe
    // which subarray the hidden refresh occupies.
    const TimingParams t = ddr3Timing();
    const int rows_per_sub = 65536 / 8;
    Bank bank(&t, rows_per_sub, 65536, /*sarp=*/false);
    bank.onAct(0, 5 * rows_per_sub, 5);
    bank.onRefresh(at(t.tHiRA), t.tRc, 1, true);
    EXPECT_EQ(bank.refreshingSubarray(at(t.tHiRA)), 0);
    EXPECT_EQ(bank.refreshingSubarray(at(t.tHiRA) + t.tRc), kNone);
}

// ---------------------------------------------------------------------
// Channel-level legality.
// ---------------------------------------------------------------------

TEST(HiraChannel, HiddenRefpbLegalityRules)
{
    MemConfig cfg;
    cfg.policy = "HiRA";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams t = TimingParams::forConfig(cfg);
    Channel ch(&cfg, &t);

    Command act;
    act.type = CommandType::kAct;
    act.rank = 0;
    act.bank = 2;
    act.row = cfg.org.rowsPerSubarray() + 9;  // Subarray 1.
    act.subarray = 1;
    ASSERT_TRUE(ch.canIssue(act, 10));
    ch.issue(act, 10);

    Command hidden;
    hidden.type = CommandType::kRefPb;
    hidden.rank = 0;
    hidden.bank = 2;
    hidden.hidden = true;
    hidden.tRfcOverride = t.tRc;
    hidden.rowsOverride = 1;

    // Too early: tHiRA not yet elapsed.
    EXPECT_FALSE(ch.canIssue(hidden, Tick(10) + t.tHiRA - Cycles(1)));
    EXPECT_TRUE(ch.canIssue(hidden, Tick(10) + t.tHiRA));

    // A plain REFpb to the same (open) bank stays illegal.
    Command plain = hidden;
    plain.hidden = false;
    EXPECT_FALSE(ch.canIssue(plain, Tick(10) + t.tHiRA));

    // Wrong bank (closed): hidden refresh needs an open row.
    Command closed_bank = hidden;
    closed_bank.bank = 3;
    EXPECT_FALSE(ch.canIssue(closed_bank, Tick(10) + t.tHiRA));

    ch.issue(hidden, Tick(10) + t.tHiRA);
    EXPECT_EQ(ch.stats().refPb, 1u);
    EXPECT_EQ(ch.stats().refPbHidden, 1u);

    // Rank-level REFpb serialization still applies beneath an ACT.
    Command act2 = act;
    act2.bank = 4;
    const Tick later = Tick(10) + t.tRrd + Cycles(1);
    if (ch.canIssue(act2, later))
        ch.issue(act2, later);
    Command hidden2 = hidden;
    hidden2.bank = 4;
    EXPECT_FALSE(ch.canIssue(hidden2, later + t.tHiRA));
}

// ---------------------------------------------------------------------
// End-to-end behaviour.
// ---------------------------------------------------------------------

TEST(Hira, HiddenRefreshesIssueEndToEnd)
{
    System sys(smallConfig("HiRA"), intensivePair());
    sys.run(120000);
    EXPECT_GT(hiddenIssued(sys), 0u);
}

TEST(Hira, CommandStreamLegalUnderChecker)
{
    SystemConfig cfg = smallConfig("HiRA");
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

TEST(Hira, ZeroCoverageDisablesHiding)
{
    SystemConfig cfg = smallConfig("HiRA");
    cfg.mem.hiraCoverage = 0.0;
    System sys(cfg, intensivePair());
    sys.run(120000);
    EXPECT_EQ(hiddenIssued(sys), 0u);
}

TEST(Hira, FullCoverageHidesMoreThanCharacterized)
{
    SystemConfig partial = smallConfig("HiRA");  // Spec default ~32%.
    System sys_partial(partial, intensivePair());
    sys_partial.run(120000);

    SystemConfig full = smallConfig("HiRA");
    full.mem.hiraCoverage = 1.0;
    System sys_full(full, intensivePair());
    sys_full.run(120000);

    EXPECT_GT(hiddenIssued(sys_full), hiddenIssued(sys_partial));
}

TEST(Hira, SingleSubarrayCannotHide)
{
    // With one subarray per bank every hidden refresh would conflict
    // with the open row, so none may issue.
    System sys(smallConfig("HiRA", /*subarrays=*/1), intensivePair());
    sys.run(120000);
    EXPECT_EQ(hiddenIssued(sys), 0u);
}

TEST(Hira, OutperformsRefabBaseline)
{
    const Tick window = 120000;
    const std::uint64_t refab =
        readsServed(smallConfig("REFab"), window);
    const std::uint64_t hira = readsServed(smallConfig("HiRA"), window);
    EXPECT_GE(hira, refab);
}

TEST(Hira, HidingBeatsPlainDarp)
{
    // HiRA = DARP + hidden refresh paths; the hidden paths must not
    // lose throughput against plain DARP on the same workload.
    const Tick window = 120000;
    const std::uint64_t darp = readsServed(smallConfig("DARP"), window);
    const std::uint64_t hira = readsServed(smallConfig("HiRA"), window);
    // HiRA pays tRRD/tFAW inflation while hiding; allow small noise.
    EXPECT_GE(hira, darp * 97 / 100);
}

// ---------------------------------------------------------------------
// Config plumbing.
// ---------------------------------------------------------------------

TEST(Hira, LayeredKeysRoundTrip)
{
    ExperimentConfig cfg;
    cfg.set("policy", "HiRA");
    cfg.set("refresh.hiraCoverage", "0.5");
    cfg.set("refresh.hiraDelay", "8");
    EXPECT_EQ(cfg.validate(), "");
    EXPECT_DOUBLE_EQ(cfg.sys.mem.hiraCoverage, 0.5);
    EXPECT_EQ(cfg.sys.mem.hiraDelayCycles, 8);

    MemConfig mem = cfg.sys.mem;
    RefreshPolicyRegistry::instance().resolve(mem);
    mem.finalize();
    const TimingParams t = TimingParams::forConfig(mem);
    EXPECT_DOUBLE_EQ(t.hiraActCoverage, 0.5);
    EXPECT_EQ(t.tHiRA, 8);
}

TEST(Hira, BadKnobsFailValidationWithNamedKeys)
{
    ExperimentConfig cover;
    cover.set("refresh.hiraCoverage", "1.5");
    EXPECT_NE(cover.validate().find("refresh.hiraCoverage"),
              std::string::npos);

    ExperimentConfig delay;
    delay.set("refresh.hiraDelay", "-3");
    EXPECT_NE(delay.validate().find("refresh.hiraDelay"),
              std::string::npos);

    ExperimentConfig junk;
    EXPECT_NE(junk.trySet("refresh.hiraCoverage", "lots").find(
                  "expected a number"),
              std::string::npos);
}

TEST(Hira, SpecDefaultsCharacterized)
{
    // Every registered spec carries plausible HiRA characterization.
    for (const std::string &name : DramSpecRegistry::instance().names()) {
        const DramSpec &spec = DramSpecRegistry::instance().at(name);
        EXPECT_GT(spec.tHiRANs.ns(), 0.0) << name;
        EXPECT_GE(spec.hiraActCoverage, 0.0) << name;
        EXPECT_LE(spec.hiraActCoverage, 1.0) << name;
        EXPECT_GE(spec.hiraRefCoverage, 0.0) << name;
        EXPECT_LE(spec.hiraRefCoverage, 1.0) << name;

        MemConfig cfg;
        cfg.dramSpec = name;
        cfg.finalize();
        const TimingParams t = TimingParams::forConfig(cfg);
        EXPECT_GT(t.tHiRA, 0) << name;
        EXPECT_LT(t.tHiRA, t.tRc) << name;  // Hides inside one ACT cycle.
    }
}

TEST(Hira, RunsOnEveryRegisteredSpec)
{
    for (const std::string &name : DramSpecRegistry::instance().names()) {
        SystemConfig cfg = smallConfig("HiRA");
        cfg.mem.dramSpec = name;
        System sys(cfg, intensivePair());
        sys.run(30000);
        std::uint64_t refPb = 0;
        for (int ch = 0; ch < sys.numChannels(); ++ch)
            refPb += sys.controller(ch).channel().stats().refPb;
        EXPECT_GT(refPb, 0u) << name;
    }
}

TEST(HiraFgr, RateKeyScalesPerBankTimingWithNativeDivisors)
{
    // The PR-3 open item "HiRA under FGR rates": refresh.fgrRate
    // runs HiRA's DARP timing profile on FGR-scaled parameters. The
    // command interval shrinks by the rate, tRFC by DDR4's *native*
    // tRFC1/tRFC2/tRFC4 ratios, each command covers proportionally
    // fewer rows -- and the device characterization (tHiRA, the
    // coverage fractions) is rate-invariant.
    MemConfig base;
    base.dramSpec = "DDR4-2400";
    base.density = Density::k8Gb;
    base.policy = "HiRA";
    RefreshPolicyRegistry::instance().resolve(base);
    base.finalize();
    const TimingParams t1 = TimingParams::forConfig(base);

    MemConfig fgr2 = base;
    fgr2.fgrRate = 2;
    const TimingParams t2 = TimingParams::forConfig(fgr2);
    MemConfig fgr4 = base;
    fgr4.fgrRate = 4;
    const TimingParams t4 = TimingParams::forConfig(fgr4);

    EXPECT_EQ(t2.tRefiAb, t1.tRefiAb / 2);
    EXPECT_EQ(t4.tRefiAb, t1.tRefiAb / 4);
    EXPECT_EQ(t2.tRefiPb, t1.tRefiPb / 2);
    // Native divisors: tRFC shrinks by LESS than the rate (the FGR
    // tax), per-bank via the same Section 3.1 ratio.
    EXPECT_LT(t2.tRfcPb, t1.tRfcPb);
    EXPECT_GT(t2.tRfcPb, t1.tRfcPb / 2);
    EXPECT_LT(t4.tRfcPb, t2.tRfcPb);
    EXPECT_EQ(t2.rowsPerRefresh, t1.rowsPerRefresh / 2);
    // Device characterization does not scale with the command rate.
    EXPECT_EQ(t2.tHiRA, t1.tHiRA);
    EXPECT_DOUBLE_EQ(t2.hiraActCoverage, t1.hiraActCoverage);
    EXPECT_DOUBLE_EQ(t4.hiraRefCoverage, t1.hiraRefCoverage);
}

TEST(HiraFgr, RunsLegallyAtFgrRatesOnDdr4)
{
    // End-to-end at 2x and 4x on DDR4-2400 8 Gb (the density where
    // per-bank refresh fits its interval at 4x): hidden refreshes
    // still issue, the checker finds no violations, and the rate
    // multiplies the per-bank command count.
    std::uint64_t refPbAtRate[3] = {0, 0, 0};
    int i = 0;
    for (int rate : {1, 2, 4}) {
        SystemConfig cfg = smallConfig("HiRA");
        cfg.mem.dramSpec = "DDR4-2400";
        cfg.mem.density = Density::k8Gb;
        cfg.mem.fgrRate = rate;
        cfg.enableChecker = true;
        System sys(cfg, intensivePair());
        sys.run(60000);
        const CheckerReport report = verifyCommandLog(
            sys.commandLog(0), sys.config().mem, sys.timing(),
            sys.now());
        EXPECT_TRUE(report.ok())
            << "rate " << rate << ": "
            << (report.violations.empty() ? ""
                                          : report.violations.front());
        refPbAtRate[i++] =
            sys.controller(0).channel().stats().refPb;
    }
    EXPECT_GT(refPbAtRate[1], refPbAtRate[0]);
    EXPECT_GT(refPbAtRate[2], refPbAtRate[1]);
}

TEST(HiraFgr, UnfittablePerBankScheduleDiesWithNamedKeys)
{
    // DDR4-2400 at 32 Gb + 4x: tRFCpb no longer fits tREFIpb; the
    // derivation must die naming the knobs, never run silently wrong.
    MemConfig cfg;
    cfg.dramSpec = "DDR4-2400";
    cfg.density = Density::k32Gb;
    cfg.policy = "DARP";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.fgrRate = 4;
    cfg.org.rowsPerBank = rowsPerBankFor(cfg.density);
    EXPECT_DEATH(TimingParams::forConfig(cfg), "refresh.fgrRate");
}
