/**
 * @file
 * Refresh obligation ledger.
 *
 * Each tracked unit (a bank for REFpb policies, a whole rank for REFab
 * policies) accrues one refresh obligation per nominal refresh interval;
 * issuing a refresh retires one. The signed balance ("owed") implements
 * the JEDEC postpone/pull-in window:
 *
 *   owed ==  maxSlack : a refresh MUST be issued now (8 postponed is the
 *                       limit; this enforces the paper's erratum -- a bank
 *                       never goes more than 9 intervals unrefreshed).
 *   owed == -maxSlack : no further refresh may be pulled in.
 *
 * Accrual instants are staggered across units so refreshes do not
 * synchronize (bank b of rank r accrues at offset b*tREFIpb within its
 * period, matching the round-robin origin of per-bank refresh).
 *
 * Beside the balances the ledger keeps three unit masks (bit
 * r x banks + b, the bank bit of Channel::openBanks() when units are
 * banks): mustForce(), due() and canPullIn() of every unit at once,
 * updated wherever a balance changes. A policy intersects them with
 * the controller's demand and open-bank masks and tests DRAM legality
 * only for the units left, instead of asking unit by unit every tick.
 * A ledger holds at most 64 units, the channel bound
 * MemConfig::validate() enforces.
 */

#ifndef DSARP_REFRESH_LEDGER_HH
#define DSARP_REFRESH_LEDGER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dsarp {

class RefreshLedger
{
  public:
    /**
     * @param ranks       number of ranks tracked
     * @param banks       units per rank (1 for all-bank policies)
     * @param period      nominal interval between accruals of one unit
     * @param rankStagger phase offset between consecutive ranks
     * @param unitStagger phase offset between banks within a rank
     * @param maxSlack    postpone/pull-in window (JEDEC: 8)
     * @param channelPhase whole-ledger phase origin: the owning
     *                     channel's cross-channel refresh stagger
     *                     (0 keeps channels aligned)
     */
    RefreshLedger(int ranks, int banks, Cycles period, Cycles rankStagger,
                  Cycles unitStagger, int maxSlack = 8,
                  Cycles channelPhase = Cycles(0));

    /**
     * Accrue any obligations whose nominal instant has passed. Returns
     * whether any unit accrued: when it returns false, no unit of an
     * unpaused rank has an accrual instant in (previous call, now], so
     * accruedBetween() over that span is false for every such unit.
     * O(1) between accrual instants.
     */
    bool advanceTo(Tick now);

    int owed(RankId r, BankId b = 0) const { return owed_[index(r, b)]; }

    /** The unit reached the postpone limit; a refresh is mandatory. */
    bool mustForce(RankId r, BankId b = 0) const;

    /** Below the postpone limit but owes at least one refresh. */
    bool due(RankId r, BankId b = 0) const { return owed(r, b) > 0; }

    /** A full-slot refresh may be pulled in without overdrawing the
     *  JEDEC pull-in window. */
    bool canPullIn(RankId r, BankId b = 0) const;

    /** Same, for a refresh retiring @p parts sub-units (fractional
     *  accounting: HiRA's one-row hidden refreshes). */
    bool canPullInParts(RankId r, BankId b, int parts) const;

    /** @name Unit masks: bit r x banksPerRank() + b is set iff the
     *  predicate above holds for unit (r, b). */
    /// @{
    std::uint64_t forceMask() const { return forceMask_; }  ///< mustForce
    std::uint64_t dueMask() const { return dueMask_; }      ///< due
    std::uint64_t pullMask() const { return pullMask_; }    ///< canPullIn

    /** Rank @p r's units. */
    std::uint64_t
    rankMask(RankId r) const
    {
        return lowBits(banks_) << (r * banks_);
    }
    /// @}

    /** Record an issued refresh for the unit. */
    void onRefresh(RankId r, BankId b = 0);

    /**
     * Record an issued refresh worth a fraction of a nominal slot, in
     * 1/denom units (used by FGR/AR where a 4x command retires 1/4 of a
     * 1x obligation). The ledger internally tracks quarters in that case;
     * plain onRefresh retires denom quarters.
     */
    void onPartialRefresh(RankId r, BankId b, int parts);

    /** Units accrued since construction (for tests). */
    std::uint64_t totalAccrued() const { return totalAccrued_; }
    std::uint64_t totalRetired() const { return totalRetired_; }

    int maxSlack() const { return maxSlack_; }
    int numRanks() const { return ranks_; }
    int banksPerRank() const { return banks_; }

    /**
     * Did an accrual for (r, b) happen in (prev, now]? Used by DARP to
     * detect "the nominal refresh time of bank R has arrived".
     */
    bool accruedBetween(RankId r, BankId b, Tick prev, Tick now) const;

    /**
     * Earliest pending accrual instant over all units of unpaused
     * ranks (kTickNever when every rank is paused). The event-driven
     * engine must wake the scheduler at every accrual, or postpone
     * decisions and mustForce flips would land late. O(1): cached.
     */
    Tick nextAccrualTick() const { return nextAny_; }

    /**
     * @name Self-refresh pause.
     *
     * While a rank is in self-refresh the device refreshes itself:
     * the controller-side ledger stops accruing for that rank's units
     * (pauseRank), and on exit (resumeRank) any owed balance is
     * retired at the internal rate -- one slot per period of
     * residency, floored at zero (the device catches up, it never
     * banks pull-in credit) -- while every accrual instant is shifted
     * by the paused duration so the postpone/pull-in window re-anchors
     * on the exit tick instead of instantly accusing the rank of
     * missing slots the device already covered.
     */
    /// @{
    void pauseRank(RankId r, Tick now);
    void resumeRank(RankId r, Tick now);
    bool rankPaused(RankId r) const;
    /// @}

  private:
    int index(RankId r, BankId b) const { return r * banks_ + b; }

    /** Recompute nextAny_ from nextAccrual_ and the pause state. */
    void refreshNextAny();

    /** Recompute unit @p i's bits in the three masks from its balance. */
    void refreshMasks(int i);

    int ranks_;
    int banks_;
    Tick period_;
    int maxSlack_;
    std::vector<int> owed_;         ///< In denom_ sub-units.
    std::vector<Tick> nextAccrual_;
    std::vector<Tick> firstAccrual_;
    std::vector<Tick> pausedAt_;    ///< Per rank; kTickNever = running.
    /** Earliest nextAccrual_ over unpaused ranks (kTickNever: none),
     *  recomputed on every accrual, pause and resume. */
    Tick nextAny_ = kTickNever;
    std::uint64_t forceMask_ = 0;
    std::uint64_t dueMask_ = 0;
    std::uint64_t pullMask_ = 0;
    int denom_ = 1;
    std::uint64_t totalAccrued_ = 0;
    std::uint64_t totalRetired_ = 0;

  public:
    /**
     * Switch the ledger to fractional accounting: balances are kept in
     * 1/denom sub-units from here on. Legal at any time -- existing
     * balances are rescaled in place so the postpone/pull-in window
     * (maxSlack * denom) keeps its meaning across the change; a change
     * that would truncate a fractional balance (old sub-units not
     * representable in the new denominator) is a fatal error.
     */
    void setDenominator(int denom);
};

} // namespace dsarp

#endif // DSARP_REFRESH_LEDGER_HH
