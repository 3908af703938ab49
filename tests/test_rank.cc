/**
 * @file
 * Unit tests for rank-level constraints: tRRD, tFAW, refresh
 * serialization, and SARP's power-integrity inflation (Eq. 1-3).
 */

#include <gtest/gtest.h>

#include "dram/rank.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

class RankTest : public ::testing::Test
{
  protected:
    RankTest()
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
    }

    MemConfig cfg_;
    TimingParams timing_;
};

class SarpRankTest : public RankTest
{
  protected:
    SarpRankTest()
    {
        cfg_.policy = "SARPab";
        RefreshPolicyRegistry::instance().resolve(cfg_);
    }
};

} // namespace

TEST_F(RankTest, TrrdBetweenActs)
{
    Rank rank(&cfg_, &timing_);
    EXPECT_TRUE(rank.canActRankLevel(0));
    rank.onAct(0);
    EXPECT_FALSE(rank.canActRankLevel(at(timing_.tRrd) - 1));
    EXPECT_TRUE(rank.canActRankLevel(at(timing_.tRrd)));
}

TEST_F(RankTest, FourActivateWindow)
{
    Rank rank(&cfg_, &timing_);
    Tick now = 0;
    for (int i = 0; i < 4; ++i) {
        rank.onAct(now);
        now += timing_.tRrd;
    }
    // The fifth ACT must wait for the first to leave the tFAW window.
    EXPECT_FALSE(rank.canActRankLevel(now));
    EXPECT_FALSE(rank.canActRankLevel(at(timing_.tFaw) - 1));
    EXPECT_TRUE(rank.canActRankLevel(at(timing_.tFaw)));
}

TEST_F(RankTest, RefPbOccupiesRankSerialization)
{
    Rank rank(&cfg_, &timing_);
    EXPECT_TRUE(rank.canRefPbRankLevel(0));
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 3});
    EXPECT_TRUE(rank.refPbInFlight(1));
    EXPECT_FALSE(rank.canRefPbRankLevel(at(timing_.tRfcPb) - 1));
    EXPECT_TRUE(rank.canRefPbRankLevel(at(timing_.tRfcPb)));
    // The refreshed bank is locked; others are not (REFpb benefit).
    EXPECT_FALSE(rank.bank(3).canAct(1, 0));
    EXPECT_TRUE(rank.bank(4).canAct(1, 0));
}

TEST_F(RankTest, RefAbNeedsAllBanksIdle)
{
    Rank rank(&cfg_, &timing_);
    EXPECT_TRUE(rank.canRefAb(0));
    rank.bank(2).onAct(0, 5, 0);
    rank.onAct(0);
    EXPECT_FALSE(rank.canRefAb(1));
}

TEST_F(RankTest, RefAbLocksEveryBank)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefAb});
    EXPECT_TRUE(rank.refAbInFlight(at(timing_.tRfcAb) - 1));
    for (int b = 0; b < rank.numBanks(); ++b) {
        EXPECT_FALSE(rank.bank(b).canAct(at(timing_.tRfcAb) - 1, 0));
        EXPECT_TRUE(rank.bank(b).canAct(at(timing_.tRfcAb), 0));
    }
}

TEST_F(RankTest, RefAbAndRefPbMutuallyExclusive)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    EXPECT_FALSE(rank.canRefAb(1));
    Rank rank2(&cfg_, &timing_);
    rank2.onRefresh(0, {.type = CommandType::kRefAb});
    EXPECT_FALSE(rank2.canRefPbRankLevel(1));
}

TEST_F(RankTest, NoInflationWithoutSarp)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    EXPECT_EQ(rank.effTRrd(1), timing_.tRrd);
    EXPECT_EQ(rank.effTFaw(1), timing_.tFaw);
}

TEST_F(RankTest, RefreshInFlightTracksPerBankAndAllBank)
{
    Rank rank(&cfg_, &timing_);
    EXPECT_FALSE(rank.refreshInFlight(0));
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 1});
    EXPECT_TRUE(rank.refreshInFlight(1));
    EXPECT_FALSE(rank.refreshInFlight(at(timing_.tRfcPb)));
    const Tick t = at(timing_.tRfcPb);
    rank.onRefresh(t, {.type = CommandType::kRefAb});
    EXPECT_TRUE(rank.refreshInFlight(t + 1));
    EXPECT_FALSE(rank.refreshInFlight(t + timing_.tRfcAb));
}

TEST_F(SarpRankTest, PerBankInflationDuringRefresh)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    // 1.138x inflation: ceil(4 * 1.138) = 5, ceil(20 * 1.138) = 23.
    EXPECT_EQ(rank.effTRrd(1), 5);
    EXPECT_EQ(rank.effTFaw(1), 23);
    // Back to datasheet values once the refresh finishes.
    EXPECT_EQ(rank.effTRrd(at(timing_.tRfcPb)), timing_.tRrd);
}

TEST_F(SarpRankTest, AllBankInflationDuringRefresh)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefAb});
    // 2.1x inflation: ceil(4 * 2.1) = 9, ceil(20 * 2.1) = 42.
    EXPECT_EQ(rank.effTRrd(1), 9);
    EXPECT_EQ(rank.effTFaw(1), 42);
}

TEST_F(SarpRankTest, BanksAcceptActsDuringRefAb)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefAb});
    // SARP: refresh occupies subarray 0; other subarrays accessible.
    for (int b = 0; b < rank.numBanks(); ++b) {
        EXPECT_FALSE(rank.bank(b).canAct(1, 0));
        EXPECT_TRUE(rank.bank(b).canAct(1, cfg_.org.rowsPerSubarray()));
    }
}

TEST_F(SarpRankTest, InflatedTrrdGatesActsUnderRefresh)
{
    Rank rank(&cfg_, &timing_);
    rank.onRefresh(0, {.type = CommandType::kRefPb, .bank = 0});
    rank.onAct(1);
    EXPECT_FALSE(rank.canActRankLevel(Tick(1) + timing_.tRrd));
    EXPECT_TRUE(rank.canActRankLevel(Tick(1) + rank.effTRrd(1)));
}
