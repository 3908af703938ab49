/**
 * @file
 * Tests for the offline command verifier itself: it must accept legal
 * sequences and flag each class of violation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "refresh/registry.hh"
#include "sim/checker.hh"

using namespace dsarp;

namespace {

/** A duration read as an instant on a clock that started at tick 0. */
Tick
at(Cycles c)
{
    return Tick(0) + c;
}

class CheckerTest : public ::testing::Test
{
  protected:
    CheckerTest()
    {
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_);
    }

    TimedCommand
    act(Tick t, RankId r, BankId b, RowId row)
    {
        Command cmd;
        cmd.type = CommandType::kAct;
        cmd.rank = r;
        cmd.bank = b;
        cmd.row = row;
        return {t, cmd};
    }

    TimedCommand
    col(Tick t, CommandType type, RankId r, BankId b, RowId row)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = r;
        cmd.bank = b;
        cmd.row = row;
        return {t, cmd};
    }

    TimedCommand
    ref(Tick t, CommandType type, RankId r, BankId b = 0)
    {
        Command cmd;
        cmd.type = type;
        cmd.rank = r;
        cmd.bank = b;
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

} // namespace

TEST_F(CheckerTest, AcceptsLegalReadPair)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        col(at(timing_.tRcd), CommandType::kRdA, 0, 0, 5),
    };
    const CheckerReport report = verify(log);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.commandsChecked, 2u);
}

TEST_F(CheckerTest, FlagsEarlyColumnCommand)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        col(at(timing_.tRcd) - 1, CommandType::kRdA, 0, 0, 5),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsColumnToClosedBank)
{
    const std::vector<TimedCommand> log = {
        col(10, CommandType::kRd, 0, 0, 5),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsWrongRow)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        col(at(timing_.tRcd), CommandType::kRd, 0, 0, 6),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsTrcViolation)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        col(at(timing_.tRcd), CommandType::kRdA, 0, 0, 5),
        act(at(timing_.tRc) - 1, 0, 0, 6),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsTrrdViolation)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        act(at(timing_.tRrd) - 1, 0, 1, 5),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, AcceptsTrrdSpacedActs)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        act(at(timing_.tRrd), 0, 1, 5),
    };
    EXPECT_TRUE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsTfawViolation)
{
    std::vector<TimedCommand> log;
    Tick t = 0;
    for (int i = 0; i < 4; ++i) {
        log.push_back(act(t, 0, i, 5));
        t += timing_.tRrd;
    }
    log.push_back(act(at(timing_.tFaw) - 1, 0, 4, 5));
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsActDuringRefreshWithoutSarp)
{
    const std::vector<TimedCommand> log = {
        ref(0, CommandType::kRefPb, 0, 0),
        act(1, 0, 0, 5),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, SarpAllowsOtherSubarrayAct)
{
    cfg_.policy = "SARPab";
    RefreshPolicyRegistry::instance().resolve(cfg_);
    const std::vector<TimedCommand> log = {
        ref(0, CommandType::kRefPb, 0, 0),  // Refreshing subarray 0.
        act(1, 0, 0, cfg_.org.rowsPerSubarray() + 3),
    };
    EXPECT_TRUE(verify(log).ok());
}

TEST_F(CheckerTest, SarpFlagsSameSubarrayAct)
{
    cfg_.policy = "SARPab";
    RefreshPolicyRegistry::instance().resolve(cfg_);
    const std::vector<TimedCommand> log = {
        ref(0, CommandType::kRefPb, 0, 0),
        act(1, 0, 0, 3),  // Subarray 0: conflicts with the refresh.
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, SarpEnforcesInflatedTrrd)
{
    cfg_.policy = "SARPab";
    RefreshPolicyRegistry::instance().resolve(cfg_);
    const Cycles inflated =
        timing_.tRrd.ceilScaled(cfg_.sarpInflationPb);
    const std::vector<TimedCommand> log = {
        ref(0, CommandType::kRefPb, 0, 0),
        act(1, 0, 1, 5),
        act(Tick(1) + inflated - Cycles(1), 0, 2, 5),  // Legal at base tRRD only.
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsOverlappingPerBankRefreshes)
{
    const std::vector<TimedCommand> log = {
        ref(0, CommandType::kRefPb, 0, 0),
        ref(at(timing_.tRfcPb) - 1, CommandType::kRefPb, 0, 1),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, AcceptsSerializedPerBankRefreshes)
{
    const std::vector<TimedCommand> log = {
        ref(0, CommandType::kRefPb, 0, 0),
        ref(at(timing_.tRfcPb), CommandType::kRefPb, 0, 1),
    };
    EXPECT_TRUE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsRefreshToOpenBank)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        ref(1, CommandType::kRefAb, 0),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsDataBusOverlap)
{
    const std::vector<TimedCommand> log = {
        act(0, 0, 0, 5),
        act(at(timing_.tRrd), 0, 1, 6),
        col(at(timing_.tRcd), CommandType::kRd, 0, 0, 5),
        // Second read one cycle later: bursts overlap on the bus.
        col(at(timing_.tRcd) + 1, CommandType::kRd, 0, 1, 6),
    };
    EXPECT_FALSE(verify(log).ok());
}

TEST_F(CheckerTest, FlagsRefreshStarvation)
{
    // One refresh over a 20-interval window: hopelessly behind.
    std::vector<TimedCommand> log = {ref(0, CommandType::kRefAb, 0)};
    const CheckerReport report = verifyCommandLog(
        log, cfg_, timing_, at(20 * timing_.tRefiAb));
    EXPECT_FALSE(report.ok());
}

TEST_F(CheckerTest, RefreshKeepingPaceIsAccepted)
{
    std::vector<TimedCommand> log;
    const Tick horizon = at(20 * timing_.tRefiAb);
    for (Tick t = 0; t < horizon; t += timing_.tRefiAb) {
        log.push_back(ref(t, CommandType::kRefAb, 0));
        log.push_back(ref(t + timing_.tRfcAb, CommandType::kRefAb, 1));
    }
    const CheckerReport report =
        verifyCommandLog(log, cfg_, timing_, horizon);
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    EXPECT_EQ(report.refreshesChecked, 2u * 20u * 8u);
}

TEST_F(CheckerTest, FlagsOutOfOrderLog)
{
    const std::vector<TimedCommand> log = {
        act(100, 0, 0, 5),
        act(50, 0, 1, 6),
    };
    EXPECT_FALSE(verify(log).ok());
}
