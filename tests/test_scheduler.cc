/**
 * @file
 * Unit tests for FR-FCFS command selection: row-hit-first, oldest-first,
 * auto-precharge of the last row hit, refresh-blocked ACT suppression,
 * the conflict-precharge phase and SARP's ACT to an idle subarray of a
 * refreshing bank. A differential test holds the bank-indexed pick to
 * an arrival-order reference scan on random controller states.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "controller/scheduler.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

/**
 * Reference FR-FCFS pick: an arrival-order scan that visits every queue
 * entry, oldest first, in each phase. FrFcfs::pick walks banks through
 * the queue's per-bank index instead and must return the same choice.
 */
CmdChoice
referencePick(const RequestQueue &queue, const Channel &channel, Tick now,
              std::uint64_t act_blocked, int banks_per_rank)
{
    CmdChoice choice;
    if (queue.empty())
        return choice;

    // Under the closed-row policy most banks are closed most ticks, so
    // the row-hit scan below reduces to a bitmask test per entry (and
    // vanishes when nothing is open). The channel keeps the mask as it
    // issues; the config bounds the geometry to its 64 bits.
    const std::uint64_t open_mask = channel.openBanks();

    // Phase 1: row hits. Oldest request whose row is open and whose
    // column command is legal right now.
    for (int i = 0; open_mask && i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const int open_idx = req.loc.rank * banks_per_rank + req.loc.bank;
        if (!(open_mask >> open_idx & 1) ||
            channel.rank(req.loc.rank).bank(req.loc.bank).openRow() !=
                req.loc.row) {
            continue;
        }

        // Keep the row open only if another request for it is queued;
        // otherwise auto-precharge (closed-row policy). A pending
        // blocking refresh on the bank also forces the precharge.
        const bool last_for_row =
            queue.rowCount(req.loc.rank, req.loc.bank, req.loc.row) <= 1;
        const bool blocked = act_blocked >> open_idx & 1;
        const bool auto_pre = last_for_row || blocked;

        Command cmd;
        cmd.type = req.isWrite
            ? (auto_pre ? CommandType::kWrA : CommandType::kWr)
            : (auto_pre ? CommandType::kRdA : CommandType::kRd);
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        cmd.row = req.loc.row;
        cmd.column = req.loc.column;
        cmd.subarray = req.loc.subarray;
        if (channel.canIssue(cmd, now)) {
            choice.valid = true;
            choice.cmd = cmd;
            choice.queueIndex = i;
            return choice;
        }
    }

    // Phase 2: the oldest request needing an ACT whose ACT is legal.
    // Rank-level legality (tRRD/tFAW) is hoisted out of the scan, and
    // each (rank, bank) pair is attempted at most once -- a younger
    // request to a bank whose oldest request cannot activate must not
    // jump ahead of it.
    const int num_ranks = channel.numRanks();
    bool rank_act_ok[MemOrg::kMaxRanksPerChannel] = {};
    bool any_rank_ok = false;
    for (RankId r = 0; r < num_ranks; ++r) {
        rank_act_ok[r] = channel.rank(r).canActRankLevel(now);
        any_rank_ok |= rank_act_ok[r];
    }
    std::uint64_t tried_banks = 0;
    for (int i = 0; any_rank_ok && i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const int bank_idx = req.loc.rank * banks_per_rank + req.loc.bank;
        const std::uint64_t bit = std::uint64_t(1) << bank_idx;
        if (tried_banks & bit)
            continue;
        // A refreshing bank stays eligible for younger requests: under
        // SARP they may target a different, accessible subarray.
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.refreshing(now))
            tried_banks |= bit;
        if (!rank_act_ok[req.loc.rank] || (act_blocked & bit))
            continue;
        if (open_mask & bit)
            continue;  // Handled by phase 3 if the row is stranded.
        if (!bank.canAct(now, req.loc.row))
            continue;

        Command cmd;
        cmd.type = CommandType::kAct;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        cmd.row = req.loc.row;
        cmd.subarray = req.loc.subarray;
        choice.valid = true;
        choice.cmd = cmd;
        choice.queueIndex = -1;
        return choice;
    }

    // Phase 3: conflict precharge. A bank can be left open for a row this
    // queue does not want -- e.g. read row hits stranded by writeback
    // mode, or a plain-RD stream whose tail was served elsewhere. Close
    // it so the waiting request can activate next cycle. Scanning the
    // oldest few requests is enough: this is a liveness path, not a
    // throughput path, and rowCount makes it quadratic otherwise. With
    // no row open there is nothing to close.
    const int phase3_limit = open_mask ? std::min(queue.size(), 16) : 0;
    for (int i = 0; i < phase3_limit; ++i) {
        const Request &req = queue.at(i);
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.isOpen() || bank.openRow() == req.loc.row)
            continue;
        if (queue.rowCount(req.loc.rank, req.loc.bank, bank.openRow()) > 0)
            continue;  // This queue still has hits for the open row.

        Command cmd;
        cmd.type = CommandType::kPre;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        if (channel.canIssue(cmd, now)) {
            choice.valid = true;
            choice.cmd = cmd;
            choice.queueIndex = -1;
            return choice;
        }
    }

    return choice;
}

/** Field-for-field equality of two picks (the command only if valid:
 *  an invalid choice leaves it default-constructed). */
::testing::AssertionResult
sameChoice(const CmdChoice &got, const CmdChoice &want)
{
    const auto describe = [](const CmdChoice &c) {
        std::string s = c.valid ? commandName(c.cmd.type) : "none";
        if (c.valid) {
            s += " r" + std::to_string(c.cmd.rank) + " b" +
                std::to_string(c.cmd.bank) + " row " +
                std::to_string(c.cmd.row) + " col " +
                std::to_string(c.cmd.column) + " sa " +
                std::to_string(c.cmd.subarray);
        }
        return s + " idx " + std::to_string(c.queueIndex);
    };
    if (got.valid == want.valid && got.queueIndex == want.queueIndex &&
        (!got.valid || got.cmd == want.cmd)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
        << "pick " << describe(got) << ", reference " << describe(want);
}

enum class Mix { kReads, kWrites, kMixed };

/** Outcomes seen over the differential test's random states. */
struct Tally
{
    std::uint64_t picks = 0, none = 0, acts = 0, sarpActs = 0, pres = 0;
    std::uint64_t reads = 0, writes = 0, autoPre = 0, blocked = 0;
    std::uint64_t inRefAb = 0, inRefPb = 0;
};

/**
 * Drive one queue through 300 random steps, comparing FrFcfs::pick with
 * the reference at each. A step enqueues up to three requests (rows
 * spread over four subarrays), sends one command of other traffic to
 * the channel -- another queue's ACT or PRE, a REFpb, or a rank drain
 * followed by a REFab -- draws a random blocked-ACT mask (random banks,
 * sometimes a whole rank), picks, and issues the pick.
 */
void
driveRandomPicks(int capacity, Mix mix, bool sarp, Tally &tally)
{
    MemConfig cfg;
    cfg.policy = sarp ? "SARPab" : "REFab";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    Channel channel(&cfg, &timing);
    const int ranks = cfg.org.ranksPerChannel;
    const int banks = cfg.org.banksPerRank;
    const int rows_per_subarray =
        cfg.org.rowsPerBank / cfg.org.subarraysPerBank;
    const std::uint64_t all_banks = lowBits(ranks * banks);
    RequestQueue queue(capacity, ranks, banks);
    Rng rng(std::uint64_t(capacity) * 8 + static_cast<int>(mix) * 2 + sarp);
    const auto randomRow = [&](SubarrayId &sa) {
        sa = static_cast<SubarrayId>(rng.below(4) * 2);
        return static_cast<RowId>(sa * rows_per_subarray + rng.below(3));
    };

    std::uint64_t next_id = 0;
    Tick now = 0;
    for (int step = 0; step < 300; ++step) {
        now += 1 + rng.below(6);
        for (int n = static_cast<int>(rng.below(4)); n > 0; --n) {
            Request rq;
            rq.id = ++next_id;
            rq.isWrite = mix == Mix::kWrites ||
                (mix == Mix::kMixed && rng.below(2));
            rq.loc.rank = static_cast<RankId>(rng.below(ranks));
            rq.loc.bank = static_cast<BankId>(rng.below(banks));
            rq.loc.row = randomRow(rq.loc.subarray);
            rq.loc.column = static_cast<int>(rng.below(128));
            queue.push(rq);
        }

        const std::uint64_t action = rng.below(8);
        Command other;
        other.rank = static_cast<RankId>(rng.below(ranks));
        other.bank = static_cast<BankId>(rng.below(banks));
        if (action == 0) {
            other.type = CommandType::kAct;
            other.row = randomRow(other.subarray);
        } else if (action == 1) {
            other.type = CommandType::kPre;
        } else if (action == 2) {
            other.type = CommandType::kRefPb;
        } else if (action == 3) {
            for (BankId b = 0; b < banks; ++b) {
                Command pre;
                pre.type = CommandType::kPre;
                pre.rank = other.rank;
                pre.bank = b;
                if (channel.canIssue(pre, now))
                    channel.issue(pre, now);
            }
            other.type = CommandType::kRefAb;
        }
        if (action <= 3 && channel.canIssue(other, now))
            channel.issue(other, now);

        std::uint64_t blocked = 0;
        if (rng.below(3) == 0)
            blocked |= rng.next() & rng.next() & all_banks;
        if (rng.below(6) == 0)
            blocked |= lowBits(banks) << (rng.below(ranks) * banks);

        const CmdChoice want =
            referencePick(queue, channel, now, blocked, banks);
        const CmdChoice got =
            FrFcfs::pick(queue, channel, now, blocked, banks);
        ASSERT_TRUE(sameChoice(got, want))
            << "capacity " << capacity << " mix " << static_cast<int>(mix)
            << " sarp " << sarp << " step " << step;

        ++tally.picks;
        tally.blocked += blocked != 0;
        for (RankId r = 0; r < ranks; ++r) {
            tally.inRefAb += channel.rank(r).refAbInFlight(now);
            tally.inRefPb += channel.rank(r).refPbInFlight(now);
        }
        if (!got.valid) {
            ++tally.none;
            continue;
        }
        const Command &cmd = got.cmd;
        if (cmd.type == CommandType::kAct) {
            ++tally.acts;
            tally.sarpActs +=
                channel.rank(cmd.rank).bank(cmd.bank).refreshing(now);
        }
        tally.pres += cmd.type == CommandType::kPre;
        tally.reads += isReadCmd(cmd.type);
        tally.writes += isWriteCmd(cmd.type);
        tally.autoPre += cmd.type == CommandType::kRdA ||
            cmd.type == CommandType::kWrA;
        channel.issue(cmd, now);
        if (isColumnCmd(cmd.type))
            queue.pop(got.queueIndex);
    }
}

class FrFcfsTest : public ::testing::Test
{
  protected:
    FrFcfsTest()
        : cfg_(), timing_(), queue_(64, 2, 8)
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
        channel_ = std::make_unique<Channel>(&cfg_, &timing_);
    }

    Request
    req(std::uint64_t id, RankId r, BankId b, RowId row, int column = 0,
        bool is_write = false)
    {
        Request rq;
        rq.id = id;
        rq.isWrite = is_write;
        rq.loc.rank = r;
        rq.loc.bank = b;
        rq.loc.row = row;
        rq.loc.column = column;
        return rq;
    }

    /** The pick under test, checked against the reference scan. */
    CmdChoice
    pick(Tick now)
    {
        const CmdChoice c = FrFcfs::pick(queue_, *channel_, now, blocked_, 8);
        EXPECT_TRUE(sameChoice(
            c, referencePick(queue_, *channel_, now, blocked_, 8)));
        return c;
    }

    MemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<Channel> channel_;
    RequestQueue queue_;
    /** Blocked-ACT bank bits (rank x 8 + bank). */
    std::uint64_t blocked_ = 0;
};

} // namespace

TEST_F(FrFcfsTest, EmptyQueuePicksNothing)
{
    EXPECT_FALSE(pick(0).valid);
}

TEST_F(FrFcfsTest, ClosedBankGetsAct)
{
    queue_.push(req(1, 0, 0, 42));
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kAct);
    EXPECT_EQ(c.cmd.row, 42);
    EXPECT_EQ(c.queueIndex, -1);
}

TEST_F(FrFcfsTest, SingleRequestUsesAutoPrecharge)
{
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRdA);
    EXPECT_EQ(c.queueIndex, 0);
}

TEST_F(FrFcfsTest, RowHitBatchKeepsRowOpenUntilLast)
{
    queue_.push(req(1, 0, 0, 42, 0));
    queue_.push(req(2, 0, 0, 42, 1));
    channel_->issue(pick(0).cmd, 0);

    CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRd) << "another hit is queued";
    channel_->issue(c.cmd, at(timing_.tRcd));
    queue_.pop(c.queueIndex);

    c = pick(at(timing_.tRcd + timing_.tCcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRdA) << "last hit closes the row";
}

TEST_F(FrFcfsTest, RowHitPrioritizedOverOlderAct)
{
    // Older request to bank 1 (needs ACT), younger hit on bank 0.
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);  // ACT bank 0 row 42.
    queue_.pop(0);
    queue_.push(req(2, 0, 1, 7));   // Older in queue now.
    queue_.push(req(3, 0, 0, 42));  // Row hit.
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_TRUE(isColumnCmd(c.cmd.type));
    EXPECT_EQ(c.cmd.bank, 0);
}

TEST_F(FrFcfsTest, OldestActWins)
{
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 0, 4, 6));
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.bank, 3);
}

TEST_F(FrFcfsTest, YoungerRequestDoesNotJumpItsBanksOldest)
{
    // Bank 3 is inside tRC after an ACT/PRE pair, so its oldest
    // request cannot activate; the younger one to the same bank must
    // wait behind it, leaving bank 4's request as the oldest legal ACT.
    Command act;
    act.type = CommandType::kAct;
    act.bank = 3;
    act.row = 1;
    channel_->issue(act, 0);
    Command pre;
    pre.type = CommandType::kPre;
    pre.bank = 3;
    const Tick t = at(timing_.tRas);
    channel_->issue(pre, t);
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 0, 3, 6));
    queue_.push(req(3, 0, 4, 7));
    const CmdChoice c = pick(t + 1);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kAct);
    EXPECT_EQ(c.cmd.bank, 4);
}

TEST_F(FrFcfsTest, BlockedBankSkipsToNextRequest)
{
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 0, 4, 6));
    blocked_ = std::uint64_t(1) << 3;  // Rank 0, bank 3 drains for refresh.
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.bank, 4);
}

TEST_F(FrFcfsTest, BlockedRankSkipsWholeRank)
{
    queue_.push(req(1, 0, 3, 5));
    queue_.push(req(2, 1, 4, 6));
    blocked_ = 0xff;  // Every bank of rank 0: an all-bank refresh.
    const CmdChoice c = pick(0);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.rank, 1);
}

TEST_F(FrFcfsTest, BlockedBankRowHitForcesAutoPrecharge)
{
    queue_.push(req(1, 0, 0, 42, 0));
    queue_.push(req(2, 0, 0, 42, 1));
    channel_->issue(pick(0).cmd, 0);
    blocked_ = 1;  // Refresh wants bank 0: close asap.
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kRdA)
        << "hits still drain but must auto-precharge";
}

TEST_F(FrFcfsTest, ConflictPrechargeForStrandedRow)
{
    // Open row 42 on bank 0 with no queued request for it (as when reads
    // are stranded by writeback mode), then queue a request for row 7.
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);
    queue_.pop(0);
    queue_.push(req(2, 0, 0, 7));

    // Until tRAS the precharge is not legal and nothing else fits.
    EXPECT_FALSE(pick(at(timing_.tRcd)).valid);

    const CmdChoice c = pick(at(timing_.tRas));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kPre);
    channel_->issue(c.cmd, at(timing_.tRas));

    const CmdChoice c2 = pick(at(timing_.tRas + timing_.tRp));
    ASSERT_TRUE(c2.valid);
    EXPECT_EQ(c2.cmd.type, CommandType::kAct);
    EXPECT_EQ(c2.cmd.row, 7);
}

TEST_F(FrFcfsTest, NoPrechargeWhileQueueStillWantsRow)
{
    queue_.push(req(1, 0, 0, 42));
    channel_->issue(pick(0).cmd, 0);
    queue_.push(req(2, 0, 0, 7));
    // Request 1 (row 42) is still queued: the row must not be blown away.
    const CmdChoice c = pick(at(timing_.tRas));
    ASSERT_TRUE(c.valid);
    EXPECT_NE(c.cmd.type, CommandType::kPre);
}

TEST_F(FrFcfsTest, WritesPickWriteCommands)
{
    queue_.push(req(1, 0, 0, 42, 0, true));
    channel_->issue(pick(0).cmd, 0);
    const CmdChoice c = pick(at(timing_.tRcd));
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kWrA);
}

TEST(FrFcfsSarp, YoungerRequestToIdleSubarrayActivatesInRefreshingBank)
{
    // Under SARP a refreshing bank still activates rows outside the
    // refreshing subarray. When the bank's oldest request targets that
    // subarray, a younger request to another one must get the ACT.
    MemConfig cfg;
    cfg.policy = "SARPab";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    Channel channel(&cfg, &timing);
    Command ref;
    ref.type = CommandType::kRefPb;  // Rank 0, bank 0.
    channel.issue(ref, 0);
    const SubarrayId busy = channel.rank(0).bank(0).refreshingSubarray(1);
    ASSERT_NE(busy, kNone);
    const SubarrayId idle = (busy + 1) % cfg.org.subarraysPerBank;
    const int rows_per_subarray =
        cfg.org.rowsPerBank / cfg.org.subarraysPerBank;

    RequestQueue queue(64, 2, 8);
    for (const SubarrayId sa : {busy, idle}) {
        Request rq;
        rq.id = queue.size() + 1;
        rq.loc.subarray = sa;
        rq.loc.row = sa * rows_per_subarray + 3;
        queue.push(rq);
    }
    const CmdChoice c = FrFcfs::pick(queue, channel, 1, 0, 8);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.cmd.type, CommandType::kAct);
    EXPECT_EQ(c.cmd.bank, 0);
    EXPECT_EQ(c.cmd.subarray, idle);
    EXPECT_EQ(c.cmd.row, idle * rows_per_subarray + 3);
    EXPECT_EQ(c.queueIndex, -1);
    EXPECT_TRUE(sameChoice(c, referencePick(queue, channel, 1, 0, 8)));
}

TEST(FrFcfsDifferential, BankIndexedPickMatchesArrivalOrderScan)
{
    // Every queue capacity from 1 to 64 (both sides of phase 3's
    // 16-entry window), read-only, write-only and mixed queues, SARP
    // off and on: the bank-indexed pick must return exactly the
    // reference scan's choice at every step.
    Tally tally;
    for (int capacity = 1; capacity <= 64; ++capacity) {
        for (const Mix mix : {Mix::kReads, Mix::kWrites, Mix::kMixed}) {
            for (const bool sarp : {false, true}) {
                driveRandomPicks(capacity, mix, sarp, tally);
                if (HasFatalFailure())
                    return;
            }
        }
    }
    // The random states must reach every outcome the phases produce.
    EXPECT_GT(tally.picks, 100000u);
    EXPECT_GT(tally.none, 0u);
    EXPECT_GT(tally.acts, 0u);
    EXPECT_GT(tally.sarpActs, 0u);
    EXPECT_GT(tally.pres, 0u);
    EXPECT_GT(tally.reads, 0u);
    EXPECT_GT(tally.writes, 0u);
    EXPECT_GT(tally.autoPre, 0u);
    EXPECT_LT(tally.autoPre, tally.reads + tally.writes);
    EXPECT_GT(tally.blocked, 0u);
    EXPECT_GT(tally.inRefAb, 0u);
    EXPECT_GT(tally.inRefPb, 0u);
}
