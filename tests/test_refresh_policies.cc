/**
 * @file
 * Unit tests for the baseline refresh policies: REFab on-schedule
 * issuing, REFpb strict round-robin order, elastic postponement, the
 * adaptive (AR) 1x/4x mode mixing, and the forced-refresh count.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mock_view.hh"
#include "refresh/all_bank.hh"
#include "refresh/elastic.hh"
#include "refresh/fgr.hh"
#include "refresh/no_refresh.hh"
#include "refresh/per_bank.hh"

using namespace dsarp;

namespace {

class PolicyTest : public ::testing::Test
{
  protected:
    PolicyTest()
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
        view_ = std::make_unique<MockView>(&cfg_, &timing_);
    }

    /** Drive the policy to @p end, issuing every legal urgent refresh. */
    std::vector<std::pair<Tick, RefreshRequest>>
    drive(RefreshScheduler &sched, Tick end)
    {
        std::vector<std::pair<Tick, RefreshRequest>> issued;
        std::vector<RefreshRequest> urgent;
        for (Tick t = 0; t < end; ++t) {
            sched.tick(t);
            urgent.clear();
            sched.urgent(t, urgent);
            if (const RefreshRequest *req =
                    view_->issueFirstLegal(sched, urgent, t)) {
                issued.push_back({t, *req});
            }
        }
        return issued;
    }

    MemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<MockView> view_;
};

} // namespace

TEST_F(PolicyTest, NoRefreshNeverIssues)
{
    NoRefreshScheduler sched(&cfg_, &timing_, view_.get());
    const auto issued =
        drive(sched, Tick(0) + 3 * timing_.tRefiAb);
    EXPECT_TRUE(issued.empty());
}

TEST_F(PolicyTest, AllBankIssuesPerRankPerInterval)
{
    AllBankScheduler sched(&cfg_, &timing_, view_.get());
    const Tick horizon = Tick(0) + 10 * timing_.tRefiAb;
    const auto issued = drive(sched, horizon);
    // 10 intervals x 2 ranks, minus boundary slack.
    EXPECT_GE(issued.size(), 18u);
    EXPECT_LE(issued.size(), 20u);
    for (const auto &[t, req] : issued)
        EXPECT_EQ(req.cmd.type, CommandType::kRefAb);
    EXPECT_EQ(sched.stats().issued, issued.size());
}

TEST_F(PolicyTest, AllBankRanksStaggered)
{
    AllBankScheduler sched(&cfg_, &timing_, view_.get());
    const auto issued =
        drive(sched, Tick(0) + 3 * timing_.tRefiAb);
    ASSERT_GE(issued.size(), 2u);
    // First two refreshes hit different ranks at different times.
    EXPECT_NE(issued[0].second.cmd.rank, issued[1].second.cmd.rank);
    EXPECT_NE(issued[0].first, issued[1].first);
}

TEST_F(PolicyTest, PerBankStrictRoundRobin)
{
    PerBankScheduler sched(&cfg_, &timing_, view_.get());
    const auto issued =
        drive(sched, Tick(0) + 3 * timing_.tRefiAb);
    ASSERT_GE(issued.size(), 16u);
    // Per rank, bank order must be 0,1,2,...,7,0,1,...
    std::vector<int> next(cfg_.org.ranksPerChannel, 0);
    for (const auto &[t, req] : issued) {
        const Command &cmd = req.cmd;
        EXPECT_EQ(cmd.type, CommandType::kRefPb);
        EXPECT_EQ(cmd.bank, next[cmd.rank]) << "strict RR violated";
        next[cmd.rank] = (next[cmd.rank] + 1) % cfg_.org.banksPerRank;
    }
}

TEST_F(PolicyTest, PerBankCadenceMatchesTrefiPb)
{
    PerBankScheduler sched(&cfg_, &timing_, view_.get());
    const Tick horizon = Tick(0) + 4 * timing_.tRefiAb;
    const auto issued = drive(sched, horizon);
    // 4 intervals x 8 banks x 2 ranks = 64 expected, minus edge effects.
    EXPECT_GE(issued.size(), 44u);
    EXPECT_LE(issued.size(), 64u);
}

TEST_F(PolicyTest, ElasticPostponesWhileRankBusy)
{
    ElasticScheduler sched(&cfg_, &timing_, view_.get());
    // Rank 0 continuously busy; rank 1 idle.
    for (BankId b = 0; b < 8; ++b)
        view_->setReads(0, b, 4);
    std::vector<RefreshRequest> urgent;
    Tick first_rank0 = 0;
    std::vector<Tick> rank1_issues;
    for (Tick t = 0; t < 9 * timing_.tRefiAb; ++t) {
        view_->setLastActivity(0, t);  // Demand keeps arriving.
        sched.tick(t);
        urgent.clear();
        sched.urgent(t, urgent);
        if (const RefreshRequest *req =
                view_->issueFirstLegal(sched, urgent, t)) {
            if (req->cmd.rank == 0 && first_rank0 == 0)
                first_rank0 = t;
            if (req->cmd.rank == 1)
                rank1_issues.push_back(t);
        }
    }
    // The busy rank's refreshes were postponed well past the first
    // nominal instant; the idle rank refreshed promptly.
    ASSERT_GT(first_rank0, 0u);
    EXPECT_GT(first_rank0, 2 * timing_.tRefiAb);
    ASSERT_FALSE(rank1_issues.empty());
    EXPECT_LT(rank1_issues.front(), 2 * timing_.tRefiAb);
    EXPECT_GT(sched.stats().postponed, 0u);
}

TEST_F(PolicyTest, ElasticForcesAtJedecLimit)
{
    ElasticScheduler sched(&cfg_, &timing_, view_.get());
    for (BankId b = 0; b < 8; ++b) {
        view_->setReads(0, b, 4);
        view_->setReads(1, b, 4);
    }
    std::vector<RefreshRequest> urgent;
    bool forced_seen = false;
    for (Tick t = 0; t < 12 * timing_.tRefiAb; ++t) {
        view_->setLastActivity(0, t);
        view_->setLastActivity(1, t);
        sched.tick(t);
        urgent.clear();
        sched.urgent(t, urgent);
        if (view_->issueFirstLegal(sched, urgent, t))
            forced_seen = true;
        // The ledger may never exceed the postpone window.
        EXPECT_LE(sched.ledger().owed(0), 8);
        EXPECT_LE(sched.ledger().owed(1), 8);
    }
    EXPECT_TRUE(forced_seen);
    EXPECT_GT(sched.stats().forced, 0u);
}

TEST_F(PolicyTest, ElasticIdleThresholdShrinksWithDebt)
{
    ElasticScheduler sched(&cfg_, &timing_, view_.get());
    EXPECT_GT(sched.idleThreshold(0), sched.idleThreshold(4));
    EXPECT_GT(sched.idleThreshold(4), sched.idleThreshold(7));
    EXPECT_EQ(sched.idleThreshold(8), 0u);
}

TEST_F(PolicyTest, AdaptiveUsesFastModeInWriteback)
{
    AdaptiveScheduler sched(&cfg_, &timing_, view_.get());
    view_->setWriteback(true);
    sched.tick(0);
    EXPECT_TRUE(sched.inFastMode());
    view_->setWriteback(false);
    sched.tick(1);
    EXPECT_FALSE(sched.inFastMode());
}

TEST_F(PolicyTest, AdaptiveIssues4xCommandsInWriteback)
{
    AdaptiveScheduler sched(&cfg_, &timing_, view_.get());
    view_->setWriteback(true);
    std::vector<RefreshRequest> urgent;
    bool saw_fast = false;
    // The busy-time budget must bank several slots before a 4x split is
    // affordable, so give the policy a long writeback-heavy stretch.
    for (Tick t = 0; t < 16 * timing_.tRefiAb; ++t) {
        sched.tick(t);
        urgent.clear();
        sched.urgent(t, urgent);
        const RefreshRequest *req = view_->issueFirstLegal(sched, urgent, t);
        if (req && req->cmd.tRfcOverride > 0) {
            saw_fast = true;
            EXPECT_EQ(req->cmd.tRfcOverride, sched.tRfc4x());
            EXPECT_LT(req->cmd.tRfcOverride, timing_.tRfcAb);
        }
    }
    EXPECT_TRUE(saw_fast);
}

TEST_F(PolicyTest, AdaptiveCoversObligationsInMixedMode)
{
    AdaptiveScheduler sched(&cfg_, &timing_, view_.get());
    std::vector<RefreshRequest> urgent;
    std::uint64_t covered_quarters = 0;
    const Tick horizon = Tick(0) + 8 * timing_.tRefiAb;
    for (Tick t = 0; t < horizon; ++t) {
        view_->setWriteback(
            (t / static_cast<Tick>(timing_.tRefiAb.count())) % 2 == 0);
        sched.tick(t);
        urgent.clear();
        sched.urgent(t, urgent);
        const RefreshRequest *req = view_->issueFirstLegal(sched, urgent, t);
        if (req && req->cmd.rank == 0)
            covered_quarters += req->ledgerParts ? req->ledgerParts : 4;
    }
    // Rank 0 accrued ~32 quarters over 8 intervals; coverage must keep
    // pace within the postpone window.
    EXPECT_GE(covered_quarters, 32u - 8u);
}

TEST_F(PolicyTest, ForcedCountsRefreshesIssuedAtTheLimit)
{
    // An open row holds rank 0's REFab off until the rank has sat at the
    // postpone limit for half an interval. The forced counter must count
    // the refreshes issued at the limit, not the ticks spent there.
    const Tick release =
        Tick(0) + 8 * timing_.tRefiAb + timing_.tRefiAb / 2;
    const Tick end = release + 2 * timing_.tRefiAb;
    for (const bool adaptive : {false, true}) {
        MockView view(&cfg_, &timing_);
        std::unique_ptr<LedgerScheduler> sched;
        if (adaptive)
            sched = std::make_unique<AdaptiveScheduler>(&cfg_, &timing_, &view);
        else
            sched = std::make_unique<ElasticScheduler>(&cfg_, &timing_, &view);
        view.channel().issue(Command{CommandType::kAct, 0, 0}, 0);

        std::uint64_t at_limit = 0;
        std::vector<RefreshRequest> urgent;
        for (Tick t = 1; t < end; ++t) {
            if (t == release)
                view.channel().issue(Command{CommandType::kPre, 0, 0}, t);
            sched->tick(t);
            urgent.clear();
            sched->urgent(t, urgent);
            for (const RefreshRequest &req : urgent) {
                if (!view.channel().canIssue(req.cmd, t))
                    continue;
                at_limit += sched->ledger().mustForce(req.cmd.rank) ? 1 : 0;
                view.issueRefresh(*sched, req, t);
                break;
            }
        }
        const char *name = adaptive ? "AR" : "Elastic";
        EXPECT_GT(at_limit, 0u) << name;
        EXPECT_EQ(sched->stats().forced, at_limit) << name;
    }
}
