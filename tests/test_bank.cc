/**
 * @file
 * Unit tests for the per-bank state machine, including the SARP
 * modifications (subarray-aware refresh acceptance).
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

class BankTest : public ::testing::Test
{
  protected:
    BankTest()
    {
        MemConfig cfg;
        cfg.finalize();
        timing_ = TimingParams::forConfig(cfg);
    }

    Bank
    makeBank(bool sarp = false)
    {
        return Bank(&timing_, 8192, 65536, sarp);
    }

    TimingParams timing_;
};

} // namespace

TEST_F(BankTest, FreshBankAcceptsAct)
{
    Bank bank = makeBank();
    EXPECT_TRUE(bank.canAct(0, 10));
    EXPECT_FALSE(bank.canColumn(0));
    EXPECT_FALSE(bank.canPre(0));
    EXPECT_TRUE(bank.canRefresh(0));
}

TEST_F(BankTest, ActOpensRowAfterTrcd)
{
    Bank bank = makeBank();
    bank.onAct(0, 42, 0);
    EXPECT_TRUE(bank.isOpen());
    EXPECT_EQ(bank.openRow(), 42);
    EXPECT_FALSE(bank.canColumn(at(timing_.tRcd) - 1));
    EXPECT_TRUE(bank.canColumn(at(timing_.tRcd)));
    EXPECT_FALSE(bank.canAct(0, 43));  // Already open.
    EXPECT_FALSE(bank.canRefresh(5));  // Not precharged.
}

TEST_F(BankTest, ReadAutoPrechargeClosesAndTimesNextAct)
{
    Bank bank = makeBank();
    bank.onAct(0, 42, 0);
    const Tick rd = at(timing_.tRcd);
    bank.onRead(rd, true);
    EXPECT_FALSE(bank.isOpen());
    // Precharge starts at max(rd + tRTP, act + tRAS) = tRAS here.
    const Tick next_act = at(timing_.tRas + timing_.tRp);
    EXPECT_FALSE(bank.canAct(next_act - 1, 7));
    EXPECT_TRUE(bank.canAct(next_act, 7));
}

TEST_F(BankTest, WriteAutoPrechargeUsesWriteRecovery)
{
    Bank bank = makeBank();
    bank.onAct(0, 42, 0);
    const Tick wr = at(timing_.tRcd);
    bank.onWrite(wr, true);
    EXPECT_FALSE(bank.isOpen());
    const Tick pre_start = wr + timing_.tCwl + timing_.tBl + timing_.tWr;
    const Tick next_act = pre_start + timing_.tRp;
    EXPECT_FALSE(bank.canAct(next_act - 1, 7));
    EXPECT_TRUE(bank.canAct(next_act, 7));
}

TEST_F(BankTest, PlainReadKeepsRowOpen)
{
    Bank bank = makeBank();
    bank.onAct(0, 42, 0);
    bank.onRead(at(timing_.tRcd), false);
    EXPECT_TRUE(bank.isOpen());
    // tCCD between column commands.
    EXPECT_FALSE(bank.canColumn(at(timing_.tRcd + timing_.tCcd) - 1));
    EXPECT_TRUE(bank.canColumn(at(timing_.tRcd + timing_.tCcd)));
}

TEST_F(BankTest, PrechargeRespectsTras)
{
    Bank bank = makeBank();
    bank.onAct(0, 42, 0);
    EXPECT_FALSE(bank.canPre(at(timing_.tRas) - 1));
    EXPECT_TRUE(bank.canPre(at(timing_.tRas)));
    bank.onPre(at(timing_.tRas));
    EXPECT_FALSE(bank.isOpen());
    EXPECT_FALSE(bank.canAct(at(timing_.tRas + timing_.tRp) - 1, 1));
    EXPECT_TRUE(bank.canAct(at(timing_.tRas + timing_.tRp), 1));
}

TEST_F(BankTest, TrcBetweenActs)
{
    Bank bank = makeBank();
    bank.onAct(0, 1, 0);
    bank.onRead(at(timing_.tRcd), true);
    // Even if precharge completes earlier, tRC gates the next ACT.
    const Tick earliest = std::max(at(timing_.tRc),
                                   at(timing_.tRas + timing_.tRp));
    EXPECT_FALSE(bank.canAct(earliest - 1, 2));
    EXPECT_TRUE(bank.canAct(earliest, 2));
}

TEST_F(BankTest, RefreshLocksBankWithoutSarp)
{
    Bank bank = makeBank(false);
    bank.onRefresh(0, timing_.tRfcPb);
    EXPECT_TRUE(bank.refreshing(10));
    EXPECT_FALSE(bank.canAct(10, 0));
    EXPECT_FALSE(bank.canAct(at(timing_.tRfcPb) - 1, 0));
    EXPECT_TRUE(bank.canAct(at(timing_.tRfcPb), 0));
    EXPECT_FALSE(bank.refreshing(at(timing_.tRfcPb)));
}

TEST_F(BankTest, SarpAllowsOtherSubarrayDuringRefresh)
{
    Bank bank = makeBank(true);
    // Refresh starts at row counter 0 => subarray 0.
    bank.onRefresh(0, timing_.tRfcPb);
    EXPECT_EQ(bank.refreshingSubarray(1), 0);
    EXPECT_FALSE(bank.canAct(1, 100)) << "row 100 is in subarray 0";
    EXPECT_TRUE(bank.canAct(1, 8192)) << "row 8192 is in subarray 1";
    EXPECT_TRUE(bank.canAct(1, 65535));
}

TEST_F(BankTest, SarpStillSerializesRefreshes)
{
    Bank bank = makeBank(true);
    bank.onRefresh(0, timing_.tRfcPb);
    EXPECT_FALSE(bank.canRefresh(1));
    EXPECT_TRUE(bank.canRefresh(at(timing_.tRfcPb)));
}

TEST_F(BankTest, RefreshRowCounterAdvances)
{
    Bank bank = makeBank();
    EXPECT_EQ(bank.refreshRowCounter(), 0);
    bank.onRefresh(0, timing_.tRfcPb);
    EXPECT_EQ(bank.refreshRowCounter(), timing_.rowsPerRefresh);
    bank.onRefresh(at(timing_.tRfcPb), timing_.tRfcPb);
    EXPECT_EQ(bank.refreshRowCounter(), 2 * timing_.rowsPerRefresh);
}

TEST_F(BankTest, RefreshRowCounterWraps)
{
    Bank bank = makeBank();
    Tick now = 0;
    const int steps = 65536 / timing_.rowsPerRefresh;
    for (int i = 0; i < steps; ++i) {
        bank.onRefresh(now, timing_.tRfcPb);
        now += timing_.tRfcPb;
    }
    EXPECT_EQ(bank.refreshRowCounter(), 0);
}

TEST_F(BankTest, RefreshSubarrayFollowsCounter)
{
    Bank bank = makeBank(true);
    Tick now = 0;
    // 8192 rows/subarray at 8 rows per refresh: 1024 refreshes per
    // subarray group.
    for (int i = 0; i < 1024; ++i) {
        bank.onRefresh(now, timing_.tRfcPb);
        EXPECT_EQ(bank.refreshingSubarray(now + 1), 0);
        now += timing_.tRfcPb;
    }
    bank.onRefresh(now, timing_.tRfcPb);
    EXPECT_EQ(bank.refreshingSubarray(now + 1), 1);
}

TEST_F(BankTest, SubarrayOf)
{
    Bank bank = makeBank();
    EXPECT_EQ(bank.subarrayOf(0), 0);
    EXPECT_EQ(bank.subarrayOf(8191), 0);
    EXPECT_EQ(bank.subarrayOf(8192), 1);
    EXPECT_EQ(bank.subarrayOf(65535), 7);
}

TEST_F(BankTest, RowsOverrideAdvancesCounterByOverride)
{
    Bank bank = makeBank();
    bank.onRefresh(0, Cycles(50), 2);
    EXPECT_EQ(bank.refreshRowCounter(), 2);
}
