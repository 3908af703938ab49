/**
 * @file
 * Unit tests for channel-level constraints: data-bus occupancy, read/write
 * turnaround, rank-switch gaps, and command dispatch bookkeeping; and a
 * property test of the open-bank mask under random legal command streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "dram/channel.hh"
#include "refresh/registry.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest()
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
    }

    Command
    act(RankId r, BankId b, RowId row)
    {
        Command cmd;
        cmd.type = CommandType::kAct;
        cmd.rank = r;
        cmd.bank = b;
        cmd.row = row;
        return cmd;
    }

    Command
    col(CommandType type, RankId r, BankId b, int column = 0)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = r;
        cmd.bank = b;
        cmd.column = column;
        return cmd;
    }

    Command
    refresh(CommandType type, RankId r, BankId b = 0)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = r;
        cmd.bank = b;
        return cmd;
    }

    /**
     * Issue a REFab, a REFpb and a HiRA-hidden REFpb beneath an open
     * row, each on a fresh channel with @p tRfcOverride, and check the
     * one refresh arm of Channel::issue(): the kind's counter and
     * refresh cycles, the hidden subset, and the [start, end) span
     * reported to the refresh-span observer.
     */
    void
    expectRefreshAccounting(Cycles tRfcOverride)
    {
        const Tick start = 20;  // Past tHiRA after an ACT at tick 0.
        for (const CommandType type :
             {CommandType::kRefAb, CommandType::kRefPb}) {
            for (const bool hidden : {false, true}) {
                if (hidden && type == CommandType::kRefAb)
                    continue;
                SCOPED_TRACE(std::string(commandName(type)) +
                             (hidden ? " hidden" : ""));
                Channel ch(&cfg_, &timing_);
                std::vector<std::pair<Tick, Tick>> spans;
                ch.setRefreshSpanCallback(
                    [&](Tick s, Tick e) { spans.emplace_back(s, e); });
                if (hidden) {
                    // The refresh counter targets subarray 0; the
                    // demand row lives in subarray 1.
                    Command open = act(0, 2, cfg_.org.rowsPerSubarray());
                    open.subarray = 1;
                    ch.issue(open, 0);
                }
                Command cmd = refresh(type, 0, 2);
                cmd.tRfcOverride = tRfcOverride;
                cmd.hidden = hidden;
                ch.issue(cmd, start);

                const bool ab = type == CommandType::kRefAb;
                const Cycles t_rfc = tRfcOverride ? tRfcOverride
                    : ab                          ? timing_.tRfcAb
                                                  : timing_.tRfcPb;
                const auto cycles =
                    static_cast<std::uint64_t>(t_rfc.count());
                const ChannelStats &st = ch.stats();
                EXPECT_EQ(st.refAb, ab ? 1u : 0u);
                EXPECT_EQ(st.refPb, ab ? 0u : 1u);
                EXPECT_EQ(st.refSb, 0u);
                EXPECT_EQ(st.refAbCycles, ab ? cycles : 0u);
                EXPECT_EQ(st.refPbCycles, ab ? 0u : cycles);
                EXPECT_EQ(st.refSbCycles, 0u);
                EXPECT_EQ(st.refPbHidden, hidden ? 1u : 0u);
                const std::vector<std::pair<Tick, Tick>> want = {
                    {start, start + t_rfc}};
                EXPECT_EQ(spans, want);
            }
        }
    }

    MemConfig cfg_;
    TimingParams timing_;
};

} // namespace

TEST_F(ChannelTest, ReadReturnsDataTick)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    const Tick t = at(timing_.tRcd);
    const Tick done = ch.issue(col(CommandType::kRdA, 0, 0), t);
    EXPECT_EQ(done, t + timing_.tCl + timing_.tBl);
    EXPECT_EQ(ch.stats().acts, 1u);
    EXPECT_EQ(ch.stats().reads, 1u);
}

TEST_F(ChannelTest, BackToBackReadsSameBankSpacedByTccd)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    const Tick t = at(timing_.tRcd);
    ch.issue(col(CommandType::kRd, 0, 0), t);
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 0, 0), t + 3));
    EXPECT_TRUE(ch.canIssue(col(CommandType::kRd, 0, 0), t + timing_.tCcd));
}

TEST_F(ChannelTest, ReadsAcrossBanksShareDataBus)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(0, 1, 6), at(timing_.tRrd));
    const Tick t = at(timing_.tRrd + timing_.tRcd);
    ch.issue(col(CommandType::kRd, 0, 0), t);
    // The second read's burst may not overlap the first: effectively
    // tBL spacing (tCCD = tBL here).
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 0, 1), t + 1));
    EXPECT_TRUE(
        ch.canIssue(col(CommandType::kRd, 0, 1), t + timing_.tBl));
}

TEST_F(ChannelTest, WriteToReadTurnaround)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(0, 1, 6), at(timing_.tRrd));
    const Tick tw = at(timing_.tRcd);
    ch.issue(col(CommandType::kWr, 0, 0), tw);
    const Tick data_end = tw + timing_.tCwl + timing_.tBl;
    // tWTR counts from the end of write data to the read command.
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 0, 1),
                             data_end + timing_.tWtr - Cycles(1)));
    EXPECT_TRUE(
        ch.canIssue(col(CommandType::kRd, 0, 1), data_end + timing_.tWtr));
}

TEST_F(ChannelTest, ReadToWriteTurnaround)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(0, 1, 6), at(timing_.tRrd));
    const Tick tr = at(timing_.tRcd);
    ch.issue(col(CommandType::kRd, 0, 0), tr);
    EXPECT_FALSE(
        ch.canIssue(col(CommandType::kWr, 0, 1), tr + timing_.tRtw - Cycles(1)));
    EXPECT_TRUE(
        ch.canIssue(col(CommandType::kWr, 0, 1), tr + timing_.tRtw));
}

TEST_F(ChannelTest, RankSwitchAddsTrtrs)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 5), 0);
    ch.issue(act(1, 0, 6), 1);  // Different rank: no tRRD coupling.
    const Tick t = Tick(1) + timing_.tRcd;
    ch.issue(col(CommandType::kRd, 0, 0), t);
    // Same-rank back-to-back would be legal at t + tBL; the rank switch
    // adds tRTRS.
    EXPECT_FALSE(ch.canIssue(col(CommandType::kRd, 1, 0), t + timing_.tBl));
    EXPECT_TRUE(ch.canIssue(col(CommandType::kRd, 1, 0),
                            t + timing_.tBl + timing_.tRtrs));
}

TEST_F(ChannelTest, RefreshCommandsTracked)
{
    expectRefreshAccounting(Cycles());
}

TEST_F(ChannelTest, RefreshOverrideChangesAccountedCycles)
{
    expectRefreshAccounting(Cycles(100));
}

TEST_F(ChannelTest, IndependentRanksActFreely)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 1), 0);
    // tRRD does not couple ranks.
    EXPECT_TRUE(ch.canIssue(act(1, 0, 1), 1));
}

TEST_F(ChannelTest, SampleActivityCountsRankTicks)
{
    Channel ch(&cfg_, &timing_);
    ch.sampleActivity(0);
    EXPECT_EQ(ch.stats().rankTotalTicks, 2u);
    EXPECT_EQ(ch.stats().rankActiveTicks, 0u);
    ch.issue(act(0, 0, 1), 0);
    ch.sampleActivity(1);
    EXPECT_EQ(ch.stats().rankTotalTicks, 4u);
    EXPECT_EQ(ch.stats().rankActiveTicks, 1u);
}

TEST_F(ChannelTest, SampleActivityCountsOpenRowsAndRefreshes)
{
    // A rank is active while any of its rows is open or a refresh of
    // any granularity is in flight; the span form bills the same
    // predicate once per skipped tick.
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 7, 1), 0);
    ch.issue(refresh(CommandType::kRefPb, 1, 2), 0);
    ch.sampleActivity(1);
    EXPECT_EQ(ch.stats().rankActiveTicks, 2u);
    ch.sampleActivitySpan(2, 5);
    EXPECT_EQ(ch.stats().rankActiveTicks, 12u);
    EXPECT_EQ(ch.stats().rankTotalTicks, 12u);

    // Close rank 0's row; rank 1's refresh ends at tRFCpb.
    const Tick t = at(timing_.tRcd);
    ch.issue(col(CommandType::kRdA, 0, 7), t);
    const Tick idle = at(std::max(timing_.tRfcPb, timing_.tRc));
    ch.sampleActivity(idle);
    EXPECT_EQ(ch.stats().rankActiveTicks, 12u);
    ch.issue(refresh(CommandType::kRefAb, 0), idle);
    ch.sampleActivitySpan(idle + 1, 3);
    EXPECT_EQ(ch.stats().rankActiveTicks, 15u);
    EXPECT_EQ(ch.stats().rankTotalTicks, 20u);
}

TEST_F(ChannelTest, ResetStatsClearsCounters)
{
    Channel ch(&cfg_, &timing_);
    ch.issue(act(0, 0, 1), 0);
    ch.resetStats();
    EXPECT_EQ(ch.stats().acts, 0u);
}

TEST(ChannelProperty, OpenBankMaskMirrorsBanks)
{
    // Random legal command streams -- ACT, RD/RDA, WR/WRA, PRE, REFpb
    // (plain and HiRA-hidden beneath an open row), REFab -- with SARP
    // off and on. After every command the mask must equal
    // Bank::isOpen() bank for bank.
    static constexpr CommandType kTypes[] = {
        CommandType::kAct, CommandType::kAct,   CommandType::kRd,
        CommandType::kRdA, CommandType::kWr,    CommandType::kWrA,
        CommandType::kPre, CommandType::kRefPb, CommandType::kRefPb,
        CommandType::kRefAb,
    };
    for (const bool sarp : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            MemConfig cfg;
            cfg.policy = sarp ? "SARPab" : "REFab";
            RefreshPolicyRegistry::instance().resolve(cfg);
            cfg.finalize();
            const TimingParams timing = TimingParams::forConfig(cfg);
            Channel ch(&cfg, &timing);
            Rng rng(seed);
            const int ranks = cfg.org.ranksPerChannel;
            const int banks = cfg.org.banksPerRank;
            std::map<CommandType, int> issued;
            int hidden = 0;
            Tick now = 0;
            for (int step = 0; step < 20000; ++step) {
                now += rng.below(4);
                Command cmd;
                cmd.type = kTypes[rng.below(std::size(kTypes))];
                cmd.rank = static_cast<RankId>(rng.below(ranks));
                cmd.bank = static_cast<BankId>(rng.below(banks));
                const Bank &bank = ch.rank(cmd.rank).bank(cmd.bank);
                cmd.row = static_cast<RowId>(rng.below(cfg.org.rowsPerBank));
                cmd.subarray = bank.subarrayOf(cmd.row);
                cmd.hidden = cmd.type == CommandType::kRefPb &&
                    bank.isOpen();
                if (!ch.canIssue(cmd, now))
                    continue;
                ch.issue(cmd, now);
                ++issued[cmd.type];
                hidden += cmd.hidden;
                for (RankId r = 0; r < ranks; ++r) {
                    for (BankId b = 0; b < banks; ++b) {
                        ASSERT_EQ(ch.openBanks() >> (r * banks + b) & 1,
                                  ch.rank(r).bank(b).isOpen() ? 1u : 0u)
                            << "sarp " << sarp << " seed " << seed
                            << " step " << step;
                    }
                }
            }
            for (const CommandType t : kTypes)
                EXPECT_GT(issued[t], 0) << static_cast<int>(t);
            EXPECT_GT(hidden, 0);
        }
    }
}
