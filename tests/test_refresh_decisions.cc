/**
 * @file
 * Differential tests for the mask-driven refresh decisions. DARP's
 * urgent set (forced and on-time banks, then the write-refresh pick)
 * and its idle-bank pull-in, and the same scheduler's urgent slices and
 * slice pull-in under REFsb, are each held to a reference that walks
 * every bank (or slice) in order, asking the ledger and the view one
 * unit at a time. The HiRA and HiRAsb legs run HiRA's refresh-refresh
 * pairing at coverage 1, which makes its draw deterministic, so the
 * references need no RNG for it.
 *
 * The driver randomizes ledger balances (accruals, forced backlogs,
 * pull-ins up to the JEDEC limit), per-bank demand through MockView,
 * open rows, refreshing banks and self-refresh residencies with their
 * tXS lockouts. At every step the policy and the reference must return
 * the same requests in the same order, and the pull-in must leave the
 * RNG in the same state; the test also asserts that every outcome
 * class occurred.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "mock_view.hh"
#include "refresh/darp.hh"
#include "refresh/hira.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

// ---------------------------------------------------------------------
// Reference decisions: per-unit walks.
// ---------------------------------------------------------------------

/** A refresh of kind @p type for unit @p u of rank @p r. */
RefreshRequest
refresh(CommandType type, RankId r, int u, bool blocking)
{
    RefreshRequest req;
    req.cmd.type = type;
    req.cmd.rank = r;
    req.cmd.bank = u;
    req.blocking = blocking;
    return req;
}

/** HiRA's refresh-refresh pairing at coverage 1: a unit owing at least
 *  two slots of @p slot ledger parts covers two slots' rows and retires
 *  two slots. @p slot 0: pairing off. */
void
referencePair(RefreshRequest &req, const RefreshLedger &ledger, int slot,
              const TimingParams &timing)
{
    if (slot > 0 && ledger.owed(req.cmd.rank, req.cmd.bank) >= 2 * slot) {
        req.cmd.rowsOverride = 2 * timing.rowsPerRefresh;
        req.ledgerParts = 2 * slot;
    }
}

/** DARP's urgent(): every forced or due bank of a rank outside
 *  self-refresh in (rank, bank) order, paired as referencePair()
 *  says, then per rank with no refresh in flight the pull-in-eligible
 *  refreshable bank with the fewest pending demands (lowest first). */
std::vector<RefreshRequest>
referenceDarpUrgent(const DarpScheduler &sched, const MockView &view,
                    bool write_refresh, int pair_slot,
                    const TimingParams &timing, Tick now)
{
    const RefreshLedger &ledger = sched.ledger();
    const int banks = ledger.banksPerRank();
    std::vector<RefreshRequest> out;
    for (RankId r = 0; r < ledger.numRanks(); ++r) {
        if (view.dram().rank(r).selfRefreshLockout(now))
            continue;
        for (BankId b = 0; b < banks; ++b) {
            const bool due = sched.dueNow() >> (r * banks + b) & 1;
            if (ledger.mustForce(r, b) || due) {
                RefreshRequest req = refresh(CommandType::kRefPb, r, b, true);
                referencePair(req, ledger, pair_slot, timing);
                out.push_back(req);
            }
        }
    }
    if (!write_refresh || !view.inWritebackMode())
        return out;
    for (RankId r = 0; r < ledger.numRanks(); ++r) {
        const Rank &rk = view.dram().rank(r);
        if (rk.selfRefreshLockout(now) || rk.refPbInFlight(now) ||
            rk.refAbInFlight(now)) {
            continue;
        }
        BankId best = kNone;
        int best_count = 0;
        for (BankId b = 0; b < banks; ++b) {
            if (!ledger.canPullIn(r, b) || !rk.canRefPbRankLevel(now) ||
                !rk.bank(b).canRefresh(now)) {
                continue;
            }
            const int count = view.pendingDemands(r, b);
            if (best == kNone || count < best_count) {
                best = b;
                best_count = count;
            }
        }
        if (best != kNone)
            out.push_back(refresh(CommandType::kRefPb, r, best, false));
    }
    return out;
}

/** DARP's opportunistic(): from a random start, the first bank with no
 *  pending demand, pull-in credit and a legal REFpb. */
bool
referenceDarpOpportunistic(const DarpScheduler &sched, const MockView &view,
                           Rng &rng, Tick now, RefreshRequest &out,
                           int &start)
{
    const RefreshLedger &ledger = sched.ledger();
    const int banks = ledger.banksPerRank();
    const int total = ledger.numRanks() * banks;
    start = static_cast<int>(rng.below(total));
    for (int i = 0; i < total; ++i) {
        const int idx = (start + i) % total;
        const RankId r = idx / banks;
        const BankId b = idx % banks;
        const Rank &rk = view.dram().rank(r);
        if (view.pendingDemands(r, b) > 0 || !ledger.canPullIn(r, b) ||
            !rk.canRefPbRankLevel(now) || !rk.bank(b).canRefresh(now)) {
            continue;
        }
        out = refresh(CommandType::kRefPb, r, b, false);
        return true;
    }
    return false;
}

/** Pending demand over every bank of slice @p g. */
int
groupDemand(const MockView &view, RankId r, int g, int per_group)
{
    int count = 0;
    for (BankId b = g * per_group; b < (g + 1) * per_group; ++b)
        count += view.pendingDemands(r, b);
    return count;
}

/** REFsb's urgent(): every forced or due slice of a rank outside
 *  self-refresh, in (rank, slice) order, paired as referencePair()
 *  says. */
std::vector<RefreshRequest>
referenceSbUrgent(const DarpScheduler &sched, const MockView &view,
                  int pair_slot, const TimingParams &timing, Tick now)
{
    const RefreshLedger &ledger = sched.ledger();
    const int groups = ledger.banksPerRank();
    std::vector<RefreshRequest> out;
    for (RankId r = 0; r < ledger.numRanks(); ++r) {
        if (view.dram().rank(r).selfRefreshLockout(now))
            continue;
        for (int g = 0; g < groups; ++g) {
            if (!ledger.mustForce(r, g) &&
                !(sched.dueNow() >> (r * groups + g) & 1)) {
                continue;
            }
            RefreshRequest req = refresh(CommandType::kRefSb, r, g, true);
            referencePair(req, ledger, pair_slot, timing);
            out.push_back(req);
        }
    }
    return out;
}

/** REFsb's opportunistic(): from a random start, the first slice with
 *  no pending demand in any bank, one slot of credit and a legal
 *  REFsb. No draw when pull-in is off. */
bool
referenceSbOpportunistic(const DarpScheduler &sched,
                         const MockView &view, bool pull_in, int per_group,
                         Rng &rng, Tick now, RefreshRequest &out, int &start)
{
    if (!pull_in)
        return false;
    const RefreshLedger &ledger = sched.ledger();
    const int groups = ledger.banksPerRank();
    const int total = ledger.numRanks() * groups;
    start = static_cast<int>(rng.below(total));
    for (int i = 0; i < total; ++i) {
        const int idx = (start + i) % total;
        const RankId r = idx / groups;
        const int g = idx % groups;
        if (groupDemand(view, r, g, per_group) > 0 ||
            !ledger.canPullInParts(r, g, 1) ||
            !view.dram().rank(r).canRefSb(now, g)) {
            continue;
        }
        out = refresh(CommandType::kRefSb, r, g, false);
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Comparison and outcome bookkeeping.
// ---------------------------------------------------------------------

::testing::AssertionResult
sameRequests(const std::vector<RefreshRequest> &got,
             const std::vector<RefreshRequest> &want)
{
    if (got == want)
        return ::testing::AssertionSuccess();
    auto fail = ::testing::AssertionFailure();
    const auto describe = [&fail](const RefreshRequest &r) {
        fail << " (" << commandName(r.cmd.type) << "," << r.cmd.rank << ","
             << r.cmd.bank << (r.blocking ? ",b)" : ")");
    };
    fail << "got";
    for (const RefreshRequest &r : got)
        describe(r);
    fail << " want";
    for (const RefreshRequest &r : want)
        describe(r);
    return fail;
}

enum Outcome {
    kForced,        ///< A forced request in the urgent set.
    kDue,           ///< An on-time (postpone declined) request.
    kWriteRefresh,  ///< A write-refresh pick during a drain.
    kPullBefore,    ///< Pull-in at or above the drawn start.
    kPullAfter,     ///< Pull-in found only after the wrap.
    kNoPull,        ///< No unit could be pulled in.
    kLockedOut,     ///< A rank with forced or due units in self-refresh.
    kPaired,        ///< A forced or due request covering two slots.
    kOutcomes,
};

struct Tally
{
    std::array<std::uint64_t, kOutcomes> seen{};
    std::uint64_t steps = 0;
};

// ---------------------------------------------------------------------
// Random controller and DRAM state.
// ---------------------------------------------------------------------

/**
 * Perturbs the state a refresh policy reads: per-bank demand and the
 * drain flag in the view, open rows, refreshing banks and
 * self-refresh residencies in the view's channel (the policy hears of
 * SRE/SRX as the controller would tell it). @p groups is the number
 * of REFsb slices per rank, 0 for per-bank refresh.
 */
class StateDriver
{
  public:
    StateDriver(const MemConfig &cfg, MockView &view,
                RefreshScheduler &sched, Rng &rng, int groups)
        : cfg_(cfg), view_(view), sched_(sched), rng_(rng), groups_(groups)
    {}

    void
    perturb(Tick now)
    {
        const int ranks = cfg_.org.ranksPerChannel;
        const int banks = cfg_.org.banksPerRank;
        // Demand: a few banks change, sometimes the channel empties or
        // fills up at once.
        const std::uint64_t shape = rng_.below(16);
        for (RankId r = 0; r < ranks; ++r) {
            for (BankId b = 0; b < banks; ++b) {
                if (shape == 0) {
                    view_.setReads(r, b, 0);
                    view_.setWrites(r, b, 0);
                } else if (shape == 1) {
                    view_.setReads(r, b, 1 + static_cast<int>(rng_.below(3)));
                }
            }
        }
        for (int n = static_cast<int>(rng_.below(4)); n > 0; --n) {
            const RankId r = static_cast<RankId>(rng_.below(ranks));
            const BankId b = static_cast<BankId>(rng_.below(banks));
            view_.setReads(r, b, draw(3));
            view_.setWrites(r, b, draw(4));
        }
        if (rng_.below(6) == 0)
            view_.setWriteback(!view_.inWritebackMode());

        // DRAM: one command from elsewhere on the channel.
        Channel &ch = view_.channel();
        Command cmd;
        cmd.rank = static_cast<RankId>(rng_.below(ranks));
        cmd.bank = static_cast<BankId>(rng_.below(banks));
        switch (rng_.below(12)) {
          case 0:
          case 1:
          case 2:
            cmd.type = CommandType::kAct;
            cmd.subarray =
                static_cast<SubarrayId>(rng_.below(cfg_.org.subarraysPerBank));
            cmd.row = cmd.subarray *
                (cfg_.org.rowsPerBank / cfg_.org.subarraysPerBank);
            break;
          case 3:
          case 4:
          case 5:
            cmd.type = CommandType::kPre;
            break;
          case 6:
            if (groups_ > 0) {
                cmd.type = CommandType::kRefSb;
                cmd.bank %= groups_;
            } else {
                cmd.type = CommandType::kRefPb;
            }
            break;
          case 7:
            enterSelfRefresh(cmd.rank, now);
            return;
          case 8:
            cmd.type = CommandType::kSrExit;
            if (ch.canIssue(cmd, now)) {
                ch.issue(cmd, now);
                sched_.onSrExit(cmd.rank, now);
            }
            return;
          default:
            return;
        }
        if (ch.canIssue(cmd, now))
            ch.issue(cmd, now);
    }

  private:
    /** No demand two times in three, else 1 .. @p most requests. */
    int
    draw(int most)
    {
        return rng_.below(3) ? 0 : 1 + static_cast<int>(rng_.below(most));
    }

    /** Precharge the rank, then enter self-refresh if it is legal. */
    void
    enterSelfRefresh(RankId r, Tick now)
    {
        Channel &ch = view_.channel();
        for (BankId b = 0; b < cfg_.org.banksPerRank; ++b) {
            Command pre;
            pre.type = CommandType::kPre;
            pre.rank = r;
            pre.bank = b;
            if (ch.canIssue(pre, now))
                ch.issue(pre, now);
        }
        Command sre;
        sre.type = CommandType::kSrEnter;
        sre.rank = r;
        if (ch.canIssue(sre, now)) {
            ch.issue(sre, now);
            sched_.onSrEnter(r, now);
        }
    }

    const MemConfig &cfg_;
    MockView &view_;
    RefreshScheduler &sched_;
    Rng &rng_;
    int groups_;
};

/** The next tick: mostly short hops; sometimes one refresh latency,
 *  so a busy rank frees up and pull-ins run units to the JEDEC limit;
 *  rarely whole refresh intervals, so balances climb to the forced
 *  limit. */
Tick
advance(Tick now, Rng &rng, const TimingParams &timing, Cycles t_rfc)
{
    const std::uint64_t hop = rng.below(40);
    if (hop == 0)
        return now + 1 + rng.below(3 * timing.tRefiAb.count());
    if (hop <= 8)
        return now + t_rfc + rng.below(t_rfc.count());
    return now + 1 + rng.below(12);
}

/** Units of each locked-out rank that the urgent set had to skip. */
void
countLockouts(const RefreshLedger &ledger, std::uint64_t pending,
              const MockView &view, Tick now, Tally &tally)
{
    for (RankId r = 0; r < ledger.numRanks(); ++r) {
        if ((pending & ledger.rankMask(r)) &&
            view.dram().rank(r).selfRefreshLockout(now)) {
            ++tally.seen[kLockedOut];
        }
    }
}

/** Tally one urgent request by the outcome it stands for. */
void
countUrgent(const RefreshRequest &req, const RefreshLedger &ledger,
            Tally &tally)
{
    if (!req.blocking)
        ++tally.seen[kWriteRefresh];
    else if (ledger.mustForce(req.cmd.rank, req.cmd.bank))
        ++tally.seen[kForced];
    else
        ++tally.seen[kDue];
    if (req.ledgerParts > 0)
        ++tally.seen[kPaired];
}

/** Random DARP (or HiRA, whose ledger counts rows) runs. */
void
driveDarp(int ranks, bool sarp, bool hira, bool write_refresh,
          int overlapped, std::uint64_t seed, Tally &tally)
{
    MemConfig cfg;
    cfg.policy = hira ? "HiRA" : sarp ? "DSARP" : "DARP";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.darpWriteRefresh = write_refresh;
    cfg.maxOverlappedRefPb = overlapped;
    cfg.org.ranksPerChannel = ranks;
    cfg.finalize();
    TimingParams timing = TimingParams::forConfig(cfg);
    timing.hiraRefCoverage = 1.0;  // Every pairing draw succeeds.
    const int pair_slot = hira ? timing.rowsPerRefresh : 0;
    MockView view(&cfg, &timing);
    std::unique_ptr<DarpScheduler> sched =
        hira ? std::make_unique<HiraScheduler>(&cfg, &timing, &view)
             : std::make_unique<DarpScheduler>(&cfg, &timing, &view);
    Rng rng(seed);
    StateDriver driver(cfg, view, *sched, rng, 0);

    Tick now = 0;
    for (int step = 0; step < 4000; ++step) {
        now = advance(now, rng, timing, timing.tRfcPb);
        driver.perturb(now);
        sched->tick(now);

        // DARP's own urgent(), not HiRA's extension of it.
        std::vector<RefreshRequest> urgent;
        sched->DarpScheduler::urgent(now, urgent);
        const std::vector<RefreshRequest> want = referenceDarpUrgent(
            *sched, view, write_refresh, pair_slot, timing, now);
        ASSERT_TRUE(sameRequests(urgent, want))
            << "seed " << seed << " step " << step << " urgent";

        Rng before = view.schedulerRng();
        RefreshRequest got;
        const bool found = sched->opportunistic(now, got);
        RefreshRequest ref;
        int start = 0;
        const bool ref_found =
            referenceDarpOpportunistic(*sched, view, before, now, ref, start);
        ASSERT_EQ(found, ref_found) << "seed " << seed << " step " << step;
        ASSERT_EQ(view.schedulerRng().draws(), before.draws());
        ASSERT_EQ(Rng(view.schedulerRng()).next(), before.next());
        if (found) {
            ASSERT_TRUE(got == ref)
                << "seed " << seed << " step " << step << " pull-in";
        }

        const RefreshLedger &ledger = sched->ledger();
        ++tally.steps;
        for (const RefreshRequest &req : urgent)
            countUrgent(req, ledger, tally);
        const int idx = got.cmd.rank * ledger.banksPerRank() + got.cmd.bank;
        if (!found)
            ++tally.seen[kNoPull];
        else
            ++tally.seen[idx >= start ? kPullBefore : kPullAfter];
        countLockouts(ledger, ledger.forceMask() | sched->dueNow(), view, now,
                      tally);

        // Move the balances: issue the first legal urgent refresh, or
        // sometimes the pull-in (driving units to the JEDEC limit).
        bool issued = false;
        for (const RefreshRequest &req : urgent) {
            if (rng.below(2) && view.issueRefresh(*sched, req, now)) {
                issued = true;
                break;
            }
        }
        if (!issued && found && rng.below(4))
            view.issueRefresh(*sched, got, now);
    }
}

/** Random REFsb (or HiRAsb, which pairs lagging slices) runs. */
void
driveSameBank(int ranks, int banks_per_rank, int group_size, bool pull_in,
              bool hira, std::uint64_t seed, Tally &tally)
{
    MemConfig cfg;
    cfg.dramSpec = "DDR5-4800";
    cfg.org.ranksPerChannel = ranks;
    cfg.org.banksPerRank = banks_per_rank;
    cfg.sameBankGroupSize = group_size;
    cfg.sameBankPullIn = pull_in;
    cfg.policy = hira ? "HiRAsb" : "REFsb";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    TimingParams timing = TimingParams::forConfig(cfg);
    timing.hiraRefCoverage = 1.0;  // Every pairing draw succeeds.
    const int pair_slot = hira ? 1 : 0;
    MockView view(&cfg, &timing);
    DarpScheduler sched(&cfg, &timing, &view);
    const int groups = sched.ledger().banksPerRank();
    Rng rng(seed);
    StateDriver driver(cfg, view, sched, rng, groups);

    Tick now = 0;
    for (int step = 0; step < 4000; ++step) {
        now = advance(now, rng, timing, timing.tRfcSb);
        driver.perturb(now);
        sched.tick(now);

        std::vector<RefreshRequest> urgent;
        sched.urgent(now, urgent);
        ASSERT_TRUE(sameRequests(
            urgent, referenceSbUrgent(sched, view, pair_slot, timing, now)))
            << "seed " << seed << " step " << step << " urgent";

        Rng before = view.schedulerRng();
        RefreshRequest got;
        const bool found = sched.opportunistic(now, got);
        RefreshRequest ref;
        int start = 0;
        const bool ref_found = referenceSbOpportunistic(
            sched, view, pull_in, timing.banksPerGroup, before, now, ref,
            start);
        ASSERT_EQ(found, ref_found) << "seed " << seed << " step " << step;
        ASSERT_EQ(view.schedulerRng().draws(), before.draws());
        if (found) {
            ASSERT_TRUE(got == ref)
                << "seed " << seed << " step " << step << " pull-in";
        }

        const RefreshLedger &ledger = sched.ledger();
        ++tally.steps;
        for (const RefreshRequest &req : urgent)
            countUrgent(req, ledger, tally);
        const int idx = got.cmd.rank * groups + got.cmd.bank;
        if (!found)
            ++tally.seen[kNoPull];
        else
            ++tally.seen[idx >= start ? kPullBefore : kPullAfter];
        countLockouts(ledger, ledger.forceMask() | sched.dueNow(), view, now,
                      tally);

        bool issued = false;
        for (const RefreshRequest &req : urgent) {
            if (rng.below(2) && view.issueRefresh(sched, req, now)) {
                issued = true;
                break;
            }
        }
        if (!issued && found && rng.below(4))
            view.issueRefresh(sched, got, now);
    }
}

void
expectEveryOutcome(const Tally &tally, bool write_refresh,
                   bool pairing = false)
{
    if (pairing) {
        EXPECT_GT(tally.seen[kPaired], 0u);
    } else {
        EXPECT_EQ(tally.seen[kPaired], 0u);
    }
    EXPECT_GT(tally.seen[kForced], 0u);
    EXPECT_GT(tally.seen[kDue], 0u);
    if (write_refresh) {
        EXPECT_GT(tally.seen[kWriteRefresh], 0u);
    }
    EXPECT_GT(tally.seen[kPullBefore], 0u);
    EXPECT_GT(tally.seen[kPullAfter], 0u);
    EXPECT_GT(tally.seen[kNoPull], 0u);
    EXPECT_GT(tally.seen[kLockedOut], 0u);
}

} // namespace

TEST(RefreshDecisionDifferential, DarpMatchesPerBankWalk)
{
    // 1, 2, 4 and 8 ranks (8 ranks fill all 64 mask bits), SARP off
    // and on, write-refresh on and off, one or two overlapped REFpb
    // per rank (with two, a rank with a refresh in flight can still
    // take one, but write-refresh waits).
    Tally tally;
    std::uint64_t seed = 1;
    for (const int ranks : {1, 2, 4, 8}) {
        for (const bool sarp : {false, true}) {
            for (const bool write_refresh : {true, false}) {
                for (const int overlapped : {1, 2}) {
                    driveDarp(ranks, sarp, false, write_refresh, overlapped,
                              seed++, tally);
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
    EXPECT_GT(tally.steps, 120000u);
    expectEveryOutcome(tally, true);
}

TEST(RefreshDecisionDifferential, HiraInheritsDarpDecisionsOnRowLedger)
{
    // HiRA keeps its ledger in rows (denominator rowsPerRefresh); the
    // masks must still match DARP's per-bank walk, and a bank two
    // slots behind pairs its refresh.
    Tally tally;
    std::uint64_t seed = 100;
    for (const int ranks : {1, 2, 4}) {
        driveDarp(ranks, false, true, true, 1, seed++, tally);
        if (HasFatalFailure())
            return;
    }
    expectEveryOutcome(tally, true, /*pairing=*/true);
}

TEST(RefreshDecisionDifferential, SameBankMatchesPerSliceWalk)
{
    // The canonical 8 x 4 geometry, a 2-group rank, narrowed slices,
    // 1 and 2 ranks (2 x 32 banks fill all 64 bank bits), and the
    // pull-in knob off (no draw at all).
    Tally tally;
    std::uint64_t seed = 200;
    struct Shape
    {
        int ranks, banks, group;
    };
    for (const Shape s : {Shape{1, 32, 0}, Shape{2, 32, 0}, Shape{2, 8, 0},
                          Shape{2, 16, 2}, Shape{1, 8, 1}}) {
        driveSameBank(s.ranks, s.banks, s.group, true, false, seed++,
                      tally);
        if (HasFatalFailure())
            return;
    }
    expectEveryOutcome(tally, false);

    Tally off;
    driveSameBank(2, 32, 0, false, false, seed, off);
    EXPECT_EQ(off.seen[kNoPull], off.steps);
}

TEST(RefreshDecisionDifferential, HirasbPairsOnPerSliceWalk)
{
    // HiRAsb is REFsb with pairing: a slice two slots behind retires
    // both in one command. Pull-in on and off.
    Tally tally;
    std::uint64_t seed = 300;
    for (const int ranks : {1, 2}) {
        driveSameBank(ranks, 32, 0, true, true, seed++, tally);
        driveSameBank(ranks, 16, 2, true, true, seed++, tally);
        if (HasFatalFailure())
            return;
    }
    expectEveryOutcome(tally, false, /*pairing=*/true);

    Tally off;
    driveSameBank(2, 8, 0, false, true, seed, off);
    EXPECT_EQ(off.seen[kNoPull], off.steps);
    EXPECT_GT(off.seen[kPaired], 0u);
}
