/**
 * @file
 * Unit tests for DARP (Section 4.2): out-of-order per-bank refresh with
 * the erratum's credit bounds, idle-bank pull-in, and write-refresh
 * parallelization during writeback mode.
 */

#include <gtest/gtest.h>

#include "mock_view.hh"
#include "refresh/darp.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

class DarpTest : public ::testing::Test
{
  protected:
    DarpTest()
    {
        cfg_.policy = "DARP";
        RefreshPolicyRegistry::instance().resolve(cfg_);
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
        view_ = std::make_unique<MockView>(&cfg_, &timing_);
        sched_ = std::make_unique<DarpScheduler>(&cfg_, &timing_,
                                                 view_.get());
    }

    MemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<MockView> view_;
    std::unique_ptr<DarpScheduler> sched_;
};

} // namespace

TEST_F(DarpTest, PostponesRefreshOfBusyBank)
{
    // Bank (0,0) always busy: its nominal refreshes get postponed.
    view_->setReads(0, 0, 4);
    std::vector<RefreshRequest> urgent;
    for (Tick t = 0; t <= 2 * timing_.tRefiAb; ++t) {
        sched_->tick(t);
        urgent.clear();
        sched_->urgent(t, urgent);
        for (const RefreshRequest &req : urgent)
            EXPECT_FALSE(req.cmd.rank == 0 && req.cmd.bank == 0)
                << "busy bank must not be refreshed while credit remains";
    }
    EXPECT_GT(sched_->stats().postponed, 0u);
    EXPECT_GT(sched_->ledger().owed(0, 0), 0);
}

TEST_F(DarpTest, RefreshesIdleBankOnTime)
{
    // All banks idle: nominal refreshes issue on schedule.
    std::vector<RefreshRequest> urgent;
    std::uint64_t issued = 0;
    for (Tick t = 0; t <= 2 * timing_.tRefiAb; ++t) {
        sched_->tick(t);
        urgent.clear();
        sched_->urgent(t, urgent);
        if (view_->issueFirstLegal(*sched_, urgent, t))
            ++issued;
    }
    // Accrual starts one period in: one full interval of obligations
    // (8 banks x 2 ranks) plus the first banks of the next wave.
    EXPECT_GE(issued, 16u);
}

TEST_F(DarpTest, ForcesBusyBankAtCreditLimit)
{
    view_->setReads(0, 0, 4);
    std::vector<RefreshRequest> urgent;
    bool forced_bank0 = false;
    Tick forced_at = 0;
    for (Tick t = 0; t <= 10 * timing_.tRefiAb; ++t) {
        sched_->tick(t);
        // The erratum bound: never more than 8 postponed.
        ASSERT_LE(sched_->ledger().owed(0, 0), 8);
        urgent.clear();
        sched_->urgent(t, urgent);
        for (const RefreshRequest &req : urgent) {
            if (req.cmd.rank == 0 && req.cmd.bank == 0 &&
                view_->issueRefresh(*sched_, req, t)) {
                forced_bank0 = true;
                if (!forced_at)
                    forced_at = t;
            }
        }
        if (forced_bank0)
            break;
    }
    EXPECT_TRUE(forced_bank0);
    EXPECT_GE(forced_at, 8 * timing_.tRefiAb)
        << "the full credit window should be used first";
    EXPECT_GT(sched_->stats().forced, 0u);
}

TEST_F(DarpTest, OpportunisticPullsInIdleBank)
{
    // Banks 0..3 of rank 0 busy; the rest idle.
    for (BankId b = 0; b < 4; ++b)
        view_->setReads(0, b, 2);
    sched_->tick(1);
    RefreshRequest opp;
    ASSERT_TRUE(sched_->opportunistic(1, opp));
    EXPECT_EQ(view_->pendingDemands(opp.cmd.rank, opp.cmd.bank), 0)
        << "pull-in target must be idle";
    EXPECT_FALSE(opp.blocking);
}

TEST_F(DarpTest, OpportunisticRespectsPullInBound)
{
    // Pull in as aggressively as the policy allows for a while; the
    // per-bank balance must never cross the JEDEC -8 bound.
    Tick t = 1;
    int issued = 0;
    for (int iter = 0; iter < 200; ++iter) {
        sched_->tick(t);
        RefreshRequest opp;
        if (!sched_->opportunistic(t, opp)) {
            t += 1;
            continue;
        }
        ASSERT_TRUE(view_->issueRefresh(*sched_, opp, t));
        ++issued;
        t += timing_.tRfcPb + Cycles(1);
    }
    for (RankId r = 0; r < 2; ++r)
        for (BankId b = 0; b < 8; ++b)
            EXPECT_GE(sched_->ledger().owed(r, b), -8);
    EXPECT_GT(issued, 0);
    EXPECT_GT(sched_->stats().pulledIn, 0u);
}

TEST_F(DarpTest, OpportunisticSkipsBusyBanks)
{
    // Everything busy: no opportunistic refresh.
    for (RankId r = 0; r < 2; ++r)
        for (BankId b = 0; b < 8; ++b)
            view_->setReads(r, b, 1);
    sched_->tick(1);
    RefreshRequest opp;
    EXPECT_FALSE(sched_->opportunistic(1, opp));
}

TEST_F(DarpTest, WriteRefreshParallelizationPicksLeastLoadedBank)
{
    view_->setWriteback(true);
    view_->setWrites(0, 0, 6);
    view_->setWrites(0, 1, 3);
    view_->setWrites(0, 2, 9);  // Bank 3..7 idle -> min demand = bank 3+.
    view_->setWrites(0, 3, 1);
    for (BankId b = 4; b < 8; ++b)
        view_->setWrites(0, b, 2);

    sched_->tick(1);
    std::vector<RefreshRequest> urgent;
    sched_->urgent(1, urgent);
    // Find the rank-0 injection (non-blocking request).
    bool found = false;
    for (const RefreshRequest &req : urgent) {
        if (!req.blocking && req.cmd.rank == 0) {
            EXPECT_EQ(view_->pendingDemands(0, req.cmd.bank), 1)
                << "bank 3 has the fewest pending demands";
            EXPECT_EQ(req.cmd.bank, 3);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(DarpTest, NoInjectionOutsideWritebackMode)
{
    view_->setWriteback(false);
    view_->setWrites(0, 0, 6);
    sched_->tick(1);
    std::vector<RefreshRequest> urgent;
    sched_->urgent(1, urgent);
    for (const RefreshRequest &req : urgent)
        EXPECT_TRUE(req.blocking) << "no write-drain injection expected";
}

TEST_F(DarpTest, NoInjectionWhileRefreshInFlight)
{
    view_->setWriteback(true);
    // Start a refresh in rank 0.
    Command cmd;
    cmd.type = CommandType::kRefPb;
    cmd.rank = 0;
    cmd.bank = 7;
    view_->channel().issue(cmd, 0);

    sched_->tick(1);
    std::vector<RefreshRequest> urgent;
    sched_->urgent(1, urgent);
    for (const RefreshRequest &req : urgent)
        EXPECT_NE(req.cmd.rank, 0)
            << "Algorithm 1 waits for the in-flight refresh";
}

TEST_F(DarpTest, WriteRefreshDisabledByConfig)
{
    MemConfig cfg = cfg_;
    cfg.darpWriteRefresh = false;
    DarpScheduler sched(&cfg, &timing_, view_.get());
    view_->setWriteback(true);
    sched.tick(1);
    std::vector<RefreshRequest> urgent;
    sched.urgent(1, urgent);
    EXPECT_TRUE(urgent.empty());
}
