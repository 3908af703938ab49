/**
 * @file
 * Unit tests for the refresh obligation ledger (the JEDEC postpone /
 * pull-in window and the erratum's data-integrity bound).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "refresh/ledger.hh"

using namespace dsarp;

TEST(Ledger, NothingOwedBeforeFirstAccrual)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(999);
    EXPECT_EQ(ledger.owed(0, 0), 0);
    EXPECT_FALSE(ledger.due(0, 0));
}

TEST(Ledger, AccruesOncePerPeriod)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(1000);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    ledger.advanceTo(3999);
    EXPECT_EQ(ledger.owed(0, 0), 3);
    EXPECT_EQ(ledger.totalAccrued(), 3u);
}

TEST(Ledger, StaggerOffsetsUnits)
{
    RefreshLedger ledger(1, 4, Cycles(1000), Cycles(0), Cycles(100));
    ledger.advanceTo(1000);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    EXPECT_EQ(ledger.owed(0, 1), 0);
    ledger.advanceTo(1100);
    EXPECT_EQ(ledger.owed(0, 1), 1);
    ledger.advanceTo(1300);
    EXPECT_EQ(ledger.owed(0, 3), 1);
}

TEST(Ledger, RefreshRetiresObligation)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0));
    ledger.advanceTo(2500);
    EXPECT_EQ(ledger.owed(0, 0), 2);
    ledger.onRefresh(0, 0);
    EXPECT_EQ(ledger.owed(0, 0), 1);
    EXPECT_EQ(ledger.totalRetired(), 1u);
}

TEST(Ledger, ForceAtPostponeLimit)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.advanceTo(7999);
    EXPECT_FALSE(ledger.mustForce(0, 0));
    ledger.advanceTo(8000);
    EXPECT_EQ(ledger.owed(0, 0), 8);
    EXPECT_TRUE(ledger.mustForce(0, 0));
}

TEST(Ledger, PullInBoundedAtMinusEight)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(ledger.canPullIn(0, 0));
        ledger.onRefresh(0, 0);
    }
    EXPECT_EQ(ledger.owed(0, 0), -8);
    EXPECT_FALSE(ledger.canPullIn(0, 0));
}

TEST(Ledger, PullInCreatesSlack)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.onRefresh(0, 0);  // owed = -1.
    ledger.advanceTo(9000);  // 9 accruals.
    EXPECT_EQ(ledger.owed(0, 0), 8);
    EXPECT_TRUE(ledger.mustForce(0, 0)) << "slack was spent";
}

TEST(Ledger, AccruedBetween)
{
    RefreshLedger ledger(1, 2, Cycles(1000), Cycles(0), Cycles(100));
    // Unit (0,0) accrues at 1000, 2000, ...; unit (0,1) at 1100, 2100...
    EXPECT_FALSE(ledger.accruedBetween(0, 0, 0, 999));
    EXPECT_TRUE(ledger.accruedBetween(0, 0, 999, 1000));
    EXPECT_FALSE(ledger.accruedBetween(0, 0, 1000, 1999));
    EXPECT_TRUE(ledger.accruedBetween(0, 1, 1000, 1100));
    EXPECT_TRUE(ledger.accruedBetween(0, 0, 500, 2500));
}

TEST(Ledger, FractionalAccounting)
{
    RefreshLedger ledger(1, 1, Cycles(250), Cycles(0), Cycles(0), 8);
    ledger.setDenominator(4);
    ledger.advanceTo(250);
    EXPECT_EQ(ledger.owed(0, 0), 4) << "one accrual = 4 quarters";
    ledger.onPartialRefresh(0, 0, 1);
    EXPECT_EQ(ledger.owed(0, 0), 3);
    ledger.onRefresh(0, 0);  // Full slot retires 4 quarters.
    EXPECT_EQ(ledger.owed(0, 0), -1);
    EXPECT_FALSE(ledger.mustForce(0, 0));
}

TEST(Ledger, FractionalForceLimitScales)
{
    RefreshLedger ledger(1, 1, Cycles(250), Cycles(0), Cycles(0), 8);
    ledger.setDenominator(4);
    ledger.advanceTo(250 * 7);
    EXPECT_FALSE(ledger.mustForce(0, 0));
    ledger.advanceTo(250 * 8);
    EXPECT_TRUE(ledger.mustForce(0, 0));
}

TEST(Ledger, DenominatorChangeRescalesExistingBalances)
{
    // Regression: setDenominator used to be legal only on a pristine
    // ledger, and silently reinterpreted any existing balance against
    // the new denominator while canPullInParts() compared it to the
    // rescaled window. The REFsb + HiRA slice-pairing composition
    // (fractional accounting armed after pull-ins already happened)
    // exercises exactly this path.
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.onRefresh(0, 0);  // Two whole slots pulled in before the
    ledger.onRefresh(0, 0);  // first accrual (idle-channel warmup).
    EXPECT_EQ(ledger.owed(0, 0), -2);

    ledger.setDenominator(4);
    EXPECT_EQ(ledger.owed(0, 0), -8) << "balance rescaled to quarters";

    // The JEDEC window keeps its whole-slot meaning across the
    // change: 8 slots of pull-in total, 2 already spent -> exactly 6
    // more full slots may be pulled in, not 7 (which the unrescaled
    // balance would have allowed).
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(ledger.canPullIn(0, 0)) << "slot " << i;
        ledger.onRefresh(0, 0);
    }
    EXPECT_EQ(ledger.owed(0, 0), -32);
    EXPECT_FALSE(ledger.canPullIn(0, 0));
    EXPECT_FALSE(ledger.canPullInParts(0, 0, 1));
}

TEST(Ledger, DenominatorChangeMidWindow)
{
    RefreshLedger ledger(1, 2, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.advanceTo(3000);  // Three accruals per unit.
    ledger.onRefresh(0, 0);
    EXPECT_EQ(ledger.owed(0, 0), 2);
    EXPECT_EQ(ledger.owed(0, 1), 3);

    ledger.setDenominator(2);
    EXPECT_EQ(ledger.owed(0, 0), 4) << "2 slots -> 4 halves";
    EXPECT_EQ(ledger.owed(0, 1), 6);

    // Accruals after the change add the new denominator per period.
    ledger.advanceTo(4000);
    EXPECT_EQ(ledger.owed(0, 0), 6);

    // Fractional retirement and the force threshold both use the new
    // denominator consistently (mustForce at 8 slots = 16 halves).
    ledger.onPartialRefresh(0, 0, 3);
    EXPECT_EQ(ledger.owed(0, 0), 3);
    EXPECT_FALSE(ledger.mustForce(0, 0));
    ledger.advanceTo(10000);
    EXPECT_TRUE(ledger.mustForce(0, 1));
}

TEST(Ledger, DenominatorChangeRefusesToTruncate)
{
    RefreshLedger ledger(1, 1, Cycles(1000), Cycles(0), Cycles(0), 8);
    ledger.setDenominator(4);
    ledger.advanceTo(1000);
    ledger.onPartialRefresh(0, 0, 1);  // Balance now 3 quarters.
    EXPECT_DEATH(ledger.setDenominator(1), "truncate");
}

TEST(Ledger, MultiRankIndependence)
{
    RefreshLedger ledger(2, 8, Cycles(1000), Cycles(500), Cycles(10));
    ledger.advanceTo(5000);
    ledger.onRefresh(1, 5);
    EXPECT_EQ(ledger.owed(0, 5), ledger.owed(1, 5) + 1);
}

TEST(Ledger, RejectsMoreUnitsThanTheMasksHold)
{
    // 64 units fill the masks; one more unit is a shape error.
    RefreshLedger full(2, 32, Cycles(1000), Cycles(0), Cycles(10));
    EXPECT_EQ(full.pullMask(), ~std::uint64_t(0));
    EXPECT_DEATH(RefreshLedger(3, 22, Cycles(1000), Cycles(0), Cycles(0)),
                 "64-unit");
}

namespace {

/** The ledger's three unit masks must equal a recount of mustForce(),
 *  due() and canPullIn() over every unit. */
::testing::AssertionResult
masksMatchRecount(const RefreshLedger &ledger)
{
    std::uint64_t force = 0, due = 0, pull = 0;
    const int banks = ledger.banksPerRank();
    for (RankId r = 0; r < ledger.numRanks(); ++r) {
        for (BankId b = 0; b < banks; ++b) {
            const std::uint64_t bit = std::uint64_t(1) << (r * banks + b);
            force |= ledger.mustForce(r, b) ? bit : 0;
            due |= ledger.due(r, b) ? bit : 0;
            pull |= ledger.canPullIn(r, b) ? bit : 0;
        }
    }
    if (ledger.forceMask() == force && ledger.dueMask() == due &&
        ledger.pullMask() == pull) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
        << std::hex << "force " << ledger.forceMask() << " vs " << force
        << ", due " << ledger.dueMask() << " vs " << due << ", pull "
        << ledger.pullMask() << " vs " << pull;
}

} // namespace

TEST(LedgerProperty, CachedWakeAndAccrualReportMatchBruteForce)
{
    // Random advanceTo / onRefresh / onPartialRefresh / pauseRank /
    // resumeRank / setDenominator sequences, in the order a controller
    // makes them (state changes at an instant follow that instant's
    // advanceTo). The cached nextAccrualTick() must equal a
    // brute-force minimum over a reference accrual ladder,
    // advanceTo()'s report must agree with accruedBetween() over the
    // same span, unit by unit, and after every step the force, due and
    // pull-in masks must equal a recount over every unit. Seeds past 24
    // fill all 64 units (8 ranks x 8 banks, 2 x 32).
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        const bool full = seed > 24;
        const int ranks = full ? (seed % 2 ? 8 : 2)
                               : 1 + static_cast<int>(rng.below(3));
        const int banks = full ? (seed % 2 ? 8 : 32)
                               : 1 + static_cast<int>(rng.below(8));
        const Tick period = 200 + rng.below(800);
        const Tick rank_stagger = rng.below(300);
        const Tick unit_stagger = rng.below(100);
        const Tick phase = rng.below(500);
        RefreshLedger ledger(ranks, banks, Cycles(period),
                             Cycles(rank_stagger), Cycles(unit_stagger), 8,
                             Cycles(phase));

        // Reference: each unit's next accrual instant, and each rank's
        // pause start (kTickNever while running).
        std::vector<Tick> next(ranks * banks);
        for (int r = 0; r < ranks; ++r) {
            for (int b = 0; b < banks; ++b) {
                next[r * banks + b] =
                    period + rank_stagger * r + unit_stagger * b + phase;
            }
        }
        std::vector<Tick> paused_at(ranks, kTickNever);
        int denom = 1;

        Tick prev = 0;
        for (int step = 0; step < 2000; ++step) {
            // Mostly short hops, sometimes several periods at once.
            const Tick now = prev + (rng.chance(0.1)
                                         ? rng.below(3 * period)
                                         : rng.below(period / 8));
            std::vector<int> before(ranks * banks);
            for (int r = 0; r < ranks; ++r) {
                for (int b = 0; b < banks; ++b)
                    before[r * banks + b] = ledger.owed(r, b);
            }

            const bool accrued = ledger.advanceTo(now);
            bool any = false;
            for (int r = 0; r < ranks; ++r) {
                for (int b = 0; b < banks; ++b) {
                    const int i = r * banks + b;
                    const bool moved = ledger.owed(r, b) != before[i];
                    if (paused_at[r] != kTickNever) {
                        EXPECT_FALSE(moved) << "paused unit accrued";
                        continue;
                    }
                    const bool between =
                        ledger.accruedBetween(r, b, prev, now);
                    EXPECT_EQ(moved, between)
                        << "seed " << seed << " step " << step << " unit "
                        << r << "," << b;
                    any |= between;
                    while (next[i] <= now)
                        next[i] += period;
                }
            }
            ASSERT_EQ(accrued, any) << "seed " << seed << " step " << step;
            ASSERT_TRUE(masksMatchRecount(ledger))
                << "seed " << seed << " step " << step << " after advance";

            const RankId r = static_cast<RankId>(rng.below(ranks));
            const BankId b = static_cast<BankId>(rng.below(banks));
            switch (rng.below(6)) {
              case 0:
              case 1:
                if (ledger.canPullIn(r, b))
                    ledger.onRefresh(r, b);
                break;
              case 5: {
                // A fraction of a slot, as FGR and HiRA retire.
                const int parts = 1 + static_cast<int>(rng.below(denom));
                if (ledger.canPullInParts(r, b, parts))
                    ledger.onPartialRefresh(r, b, parts);
                break;
              }
              case 2:
                if (paused_at[r] == kTickNever) {
                    ledger.pauseRank(r, now);
                    paused_at[r] = now;
                }
                break;
              case 3:
                if (paused_at[r] != kTickNever) {
                    ledger.resumeRank(r, now);
                    for (int u = 0; u < banks; ++u)
                        next[r * banks + u] += now - paused_at[r];
                    paused_at[r] = kTickNever;
                }
                break;
              case 4:
                // Doubling never truncates a balance.
                if (denom < 8) {
                    denom *= 2;
                    ledger.setDenominator(denom);
                }
                break;
              default:
                break;
            }
            ASSERT_TRUE(masksMatchRecount(ledger))
                << "seed " << seed << " step " << step << " after action";

            Tick want = kTickNever;
            for (int u = 0; u < ranks * banks; ++u) {
                if (paused_at[u / banks] == kTickNever)
                    want = std::min(want, next[u]);
            }
            ASSERT_EQ(ledger.nextAccrualTick(), want)
                << "seed " << seed << " step " << step;
            prev = now;
        }
    }
}
