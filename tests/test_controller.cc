/**
 * @file
 * Unit tests for the channel controller's arbitration: demand service,
 * refresh priority and blocking semantics, writeback-mode switching,
 * write-queue forwarding, and the precharge assist.
 */

#include <gtest/gtest.h>

#include <vector>

#include "controller/controller.hh"
#include "dram/address.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
    {
        cfg_.org.channels = 1;
        cfg_.policy = "NoREF";
        RefreshPolicyRegistry::instance().resolve(cfg_);
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
        map_ = std::make_unique<AddressMap>(cfg_.org);
        rebuild();
    }

    /** Switch to refresh mechanism @p policy, keeping the timing. */
    void
    select(const char *policy)
    {
        cfg_.policy = policy;
        RefreshPolicyRegistry::instance().resolve(cfg_);
        rebuild();
    }

    void
    rebuild()
    {
        ctl_ = std::make_unique<ChannelController>(0, &cfg_, &timing_, 1);
        completions_.clear();
        ctl_->setReadCallback([this](const Request &req, Tick done) {
            completions_.push_back({req.id, done});
        });
    }

    Request
    req(std::uint64_t id, RankId r, BankId b, RowId row, int col = 0,
        bool is_write = false)
    {
        Request rq;
        rq.id = id;
        rq.isWrite = is_write;
        rq.loc.rank = r;
        rq.loc.bank = b;
        rq.loc.row = row;
        rq.loc.column = col;
        DecodedAddr d = rq.loc;
        d.channel = 0;
        rq.addr = map_->encode(d);
        rq.loc = map_->decode(rq.addr);
        return rq;
    }

    void
    runTicks(int n)
    {
        for (int i = 0; i < n; ++i) {
            ctl_->tick(now_);
            ++now_;
        }
    }

    MemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<ChannelController> ctl_;
    std::vector<std::pair<std::uint64_t, Tick>> completions_;
    Tick now_ = 0;
};

} // namespace

TEST_F(ControllerTest, ReadCompletesWithExpectedLatency)
{
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 0, 0, 10), now_));
    runTicks(60);
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_EQ(completions_[0].first, 1u);
    // ACT at t=0 (request visible at tick 0), RDA at tRCD, data at
    // +tCL+tBL; delivery happens on the controller tick at/after that.
    const Tick expected =
        Tick(0) + (timing_.tRcd + timing_.tCl + timing_.tBl);
    EXPECT_GE(completions_[0].second, expected);
    EXPECT_LE(completions_[0].second, expected + 4);
}

TEST_F(ControllerTest, RowHitsBatchAndPipelinedReads)
{
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ctl_->enqueueRead(req(i, 0, 0, 10, i), now_));
    runTicks(120);
    EXPECT_EQ(completions_.size(), 4u);
    // One ACT served all four column commands (row-hit batching).
    EXPECT_EQ(ctl_->channel().stats().acts, 1u);
    EXPECT_EQ(ctl_->channel().stats().reads, 4u);
}

TEST_F(ControllerTest, ReadsToDistinctBanksOverlap)
{
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 0, 0, 10), now_));
    ASSERT_TRUE(ctl_->enqueueRead(req(2, 0, 1, 20), now_));
    runTicks(80);
    ASSERT_EQ(completions_.size(), 2u);
    // Bank-level parallelism: the second read finishes well before two
    // serialized accesses would.
    const Tick serialized =
        Tick(0) + 2 * (timing_.tRcd + timing_.tCl + timing_.tBl);
    EXPECT_LT(completions_[1].second, serialized);
}

TEST_F(ControllerTest, WritesWaitForWritebackMode)
{
    for (int i = 0; i < cfg_.writeHighWatermark - 1; ++i) {
        ASSERT_TRUE(
            ctl_->enqueueWrite(req(100 + i, 0, i % 8, 5, i % 64, true),
                               now_));
    }
    runTicks(200);
    EXPECT_EQ(ctl_->stats().writesIssued, 0u)
        << "below the high watermark no writes drain";
    EXPECT_FALSE(ctl_->inWritebackMode());

    ASSERT_TRUE(ctl_->enqueueWrite(req(999, 0, 0, 5, 63, true), now_));
    runTicks(10);
    EXPECT_TRUE(ctl_->inWritebackMode());
    runTicks(800);
    EXPECT_GT(ctl_->stats().writesIssued, 0u);
    EXPECT_FALSE(ctl_->inWritebackMode())
        << "drain stops at the low watermark";
    // Exactly highWatermark - lowWatermark writes drained.
    EXPECT_EQ(static_cast<int>(ctl_->stats().writesIssued),
              cfg_.writeHighWatermark - cfg_.writeLowWatermark);
}

TEST_F(ControllerTest, ReadsStallDuringWritebackMode)
{
    // Fill the write queue to trigger writeback mode, then enqueue a
    // read: it must not be served until the drain completes.
    for (int i = 0; i < cfg_.writeHighWatermark; ++i) {
        ASSERT_TRUE(
            ctl_->enqueueWrite(req(100 + i, 0, i % 8, 5, i % 64, true),
                               now_));
    }
    runTicks(3);
    ASSERT_TRUE(ctl_->inWritebackMode());
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 0, 0, 10), now_));
    while (ctl_->inWritebackMode() && now_ < 5000)
        runTicks(1);
    const Tick drain_end = now_;
    runTicks(100);
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_GT(completions_[0].second, drain_end);
}

TEST_F(ControllerTest, ForwardedReadServedFromWriteQueue)
{
    const Request write = req(50, 0, 3, 7, 9, true);
    ASSERT_TRUE(ctl_->enqueueWrite(write, now_));
    Request read = req(51, 0, 3, 7, 9, false);
    read.addr = write.addr;
    read.loc = write.loc;
    ASSERT_TRUE(ctl_->enqueueRead(read, now_));
    runTicks(5);
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_EQ(completions_[0].first, 51u);
    EXPECT_EQ(ctl_->stats().forwardedReads, 1u);
    EXPECT_EQ(ctl_->channel().stats().reads, 0u)
        << "no DRAM read for a forwarded request";
}

TEST_F(ControllerTest, QueueFullRejects)
{
    for (int i = 0; i < cfg_.readQueueSize; ++i)
        ASSERT_TRUE(ctl_->enqueueRead(req(i, 1, i % 8, i), now_));
    // One may have issued its ACT but stays queued until the column
    // command; without ticking, the queue must be full now.
    EXPECT_FALSE(ctl_->enqueueRead(req(999, 0, 0, 0), now_));
}

TEST_F(ControllerTest, UrgentRefreshBlocksNewActsToTargetBank)
{
    select("REFpb");
    // Keep bank 0 of rank 0 under continuous load; once its refresh is
    // forced (credit exhausted), a refresh must still get through.
    std::uint64_t id = 0;
    for (Tick end = Tick(0) + 12 * timing_.tRefiAb; now_ < end;) {
        if (ctl_->pendingDemands(0, 0) < 4) {
            const RowId row = static_cast<RowId>(id % 64);
            ctl_->enqueueRead(req(id++, 0, 0, row), now_);
        }
        runTicks(1);
    }
    EXPECT_GT(ctl_->channel().stats().refPb, 0u);
    EXPECT_GT(ctl_->stats().readsCompleted, 100u)
        << "reads keep flowing around refreshes";
}

TEST_F(ControllerTest, RefreshSchedulerStatsExposed)
{
    select("REFab");
    runTicks(static_cast<int>((4 * timing_.tRefiAb).count()));
    EXPECT_GT(ctl_->refreshStats().issued, 0u);
    EXPECT_EQ(ctl_->refreshStats().issued,
              ctl_->channel().stats().refAb);
}

TEST_F(ControllerTest, ResetStatsClearsEverything)
{
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 0, 0, 10), now_));
    runTicks(60);
    ctl_->resetStats();
    EXPECT_EQ(ctl_->stats().readsCompleted, 0u);
    EXPECT_EQ(ctl_->stats().ticks, 0u);
    EXPECT_EQ(ctl_->channel().stats().acts, 0u);
}

TEST_F(ControllerTest, CommandLogRecordsIssuedCommands)
{
    std::vector<TimedCommand> log;
    ctl_->setCommandLog(&log);
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 0, 0, 10), now_));
    runTicks(60);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].cmd.type, CommandType::kAct);
    EXPECT_EQ(log[1].cmd.type, CommandType::kRdA);
    EXPECT_LT(log[0].tick, log[1].tick);
}

TEST_F(ControllerTest, OccupancyStatsAccumulate)
{
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 0, 0, 10), now_));
    runTicks(10);
    EXPECT_GT(ctl_->stats().readQueueOccupancySum, 0u);
    EXPECT_EQ(ctl_->stats().ticks, 10u);
}

TEST_F(ControllerTest, LastDemandActivityTracksRanks)
{
    EXPECT_EQ(ctl_->lastDemandActivity(1), 0u);
    now_ = 100;
    ASSERT_TRUE(ctl_->enqueueRead(req(1, 1, 0, 10), now_));
    EXPECT_EQ(ctl_->lastDemandActivity(1), 100u);
    EXPECT_EQ(ctl_->lastDemandActivity(0), 0u);
}
