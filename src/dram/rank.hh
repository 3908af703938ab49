/**
 * @file
 * Per-rank DRAM state: tRRD/tFAW activation throttling (with SARP's
 * power-integrity inflation while a refresh is in flight, Eq. 1-3),
 * REFpb serialization (the LPDDR standard disallows overlapping per-bank
 * refreshes within a rank), and REFab occupancy.
 */

#ifndef DSARP_DRAM_RANK_HH
#define DSARP_DRAM_RANK_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/command.hh"

namespace dsarp {

class Rank
{
  public:
    Rank(const MemConfig *cfg, const TimingParams *timing);

    Bank &bank(BankId b) { return banks_[b]; }
    const Bank &bank(BankId b) const { return banks_[b]; }
    int numBanks() const { return static_cast<int>(banks_.size()); }

    /** @name Rank-level command legality. */
    /// @{

    /** A new ACT may issue: outside the self-refresh lockout and at
     *  or after actReadyAt() (tRRD/tFAW, inflated during refresh). */
    bool canActRankLevel(Tick now) const;

    /** A REFpb may start: under the overlap limit, no REFab or REFsb
     *  in flight. */
    bool canRefPbRankLevel(Tick now) const;

    /** A REFab may start: all banks idle, no refresh in flight. */
    bool canRefAb(Tick now) const;

    /**
     * A same-bank refresh (DDR5 REFsb) of bank-group slice @p group
     * may start: every bank of the slice idle, and no other refresh
     * of any kind in flight in the rank. Banks outside the slice keep
     * serving accesses throughout -- the standard's own refresh-access
     * parallelism.
     */
    bool canRefSb(Tick now, int group) const;

    /**
     * Self-refresh entry (SRE) may issue: the REFab condition. The
     * device takes over its own refresh from a fully idle rank (JEDEC:
     * all banks precharged, tRFC of any refresh satisfied), outside
     * self-refresh and its tXS exit window.
     */
    bool canSrEnter(Tick now) const { return canRefAb(now); }

    /** Self-refresh exit (SRX) may issue: in self-refresh and the
     *  minimum residency tCKESR has elapsed since entry. */
    bool canSrExit(Tick now) const;
    /// @}

    /**
     * The banks a refresh of kind @p type takes away, one bit per bank
     * of this rank: every bank for REFab, bank-group slice @p bank for
     * REFsb (none when the device has no slices or the group lies
     * outside the rank), bank @p bank for REFpb.
     */
    std::uint64_t refreshBanks(CommandType type, BankId bank) const;

    /** @name State transitions. */
    /// @{
    void onAct(Tick now);

    /**
     * Start the REFab, REFpb or REFsb @p cmd on its refreshBanks():
     * tRFC of its kind (or cmd.tRfcOverride), cmd.rowsOverride rows,
     * beneath the open row when cmd.hidden (HiRA). Returns the tick
     * the refresh ends.
     */
    Tick onRefresh(Tick now, const Command &cmd);
    void onSrEnter(Tick now);
    void onSrExit(Tick now);
    /// @}

    /** True while the rank is in self-refresh (SRE issued, no SRX). */
    bool inSelfRefresh(Tick) const { return srActive_; }

    /**
     * True while the rank can accept no command: in self-refresh
     * (only SRX is legal then) or inside the tXS exit window, during
     * which the device completes the internal refresh burst it
     * started on exit.
     */
    bool selfRefreshLockout(Tick now) const
    {
        return srActive_ || now < srExitLockoutUntil_;
    }

    /** Tick the current self-refresh residency began (kTickNever when
     *  the rank has never entered). */
    Tick srEnteredAt() const { return srEnteredAt_; }

    /** First tick a command is legal after the last SRX (tXS). */
    Tick srExitLockoutUntil() const { return srExitLockoutUntil_; }

    /** True while an all-bank refresh occupies the rank. */
    bool refAbInFlight(Tick now) const { return refAbUntil_ > now; }

    /** True while any per-bank refresh is in flight in this rank. */
    bool refPbInFlight(Tick now) const { return refPbCount(now) > 0; }

    /** True while a same-bank refresh slice is in flight. */
    bool refSbInFlight(Tick now) const { return refSbUntil_ > now; }

    /** True while a refresh of any granularity is in flight. */
    bool refreshInFlight(Tick now) const { return refreshUntil_ > now; }

    /** Number of per-bank refreshes currently in flight. */
    int refPbCount(Tick now) const;

    /**
     * The in-flight REFpb count that drives power-integrity inflation
     * (shared with the offline checker so both sides agree): under
     * SARP / the overlap extension every in-flight refresh counts;
     * under HiRA alone only the hidden ones, which overlap a demand
     * activation -- a plain blocking REFpb behaves exactly like
     * DARP's.
     */
    static int inflationPbCount(const MemConfig &cfg, int pbInFlight,
                                int hiddenPbInFlight);

    /**
     * Power-integrity multiplier for tRRD/tFAW given the refresh state
     * (shared with the offline checker so both sides agree): the SARP
     * factors from Eq. 1-3, and per-in-flight scaling when overlapped
     * per-bank refresh (footnote 5 extension) is enabled.
     */
    static double refreshInflationMult(const MemConfig &cfg,
                                       bool abInFlight, int pbInFlight);

    /**
     * Effective tRRD/tFAW at @p now: the datasheet value, multiplied by
     * the SARP power-integrity factor while a refresh is in flight.
     */
    Cycles effTRrd(Tick now) const { return actSpacing(now).tRrd; }
    Cycles effTFaw(Tick now) const { return actSpacing(now).tFaw; }

    /**
     * First tick tRRD and tFAW admit a new ACT, with the inflation
     * effective at @p now (0 before any ACT). The refresh ends that
     * change the inflation are deadlines, so the value is exact until
     * the next one.
     */
    Tick actReadyAt(Tick now) const;

    /**
     * Earliest rank- or bank-level threshold strictly after @p now
     * (kTickNever when none) that needs no queued request: refresh
     * ends, the self-refresh protocol instants, and every bank's
     * nextDeadline(). With actReadyAt() for ranks that have ACTs
     * queued, every legality predicate of this rank that queued work
     * can reach flips only at one of these instants, so the
     * event-driven engine is safe to sleep to the minimum.
     */
    Tick nextDeadline(Tick now) const;

  private:
    /** Effective tRRD and tFAW at one instant. */
    struct ActSpacing
    {
        Cycles tRrd;
        Cycles tFaw;
    };

    /** effTRrd() and effTFaw() from one count of in-flight refreshes. */
    ActSpacing actSpacing(Tick now) const;

    /** No refresh in flight, outside self-refresh and its tXS window,
     *  and every bank in @p banks (refreshBanks() bits) idle: the
     *  common condition of REFab, REFsb and SRE. */
    bool quiescent(Tick now, std::uint64_t banks) const;

    /** Prune ended entries from an in-flight list; return the count. */
    static int pruneInFlight(std::vector<Tick> &ends, Tick now);

    /** HiRA-hidden subset of refPbCount. */
    int hiddenRefPbCount(Tick now) const;

    /** inflationPbCount() on this rank's live refresh state. */
    int inflationRefPbCount(Tick now) const;

    const MemConfig *cfg_;
    const TimingParams *timing_;
    std::vector<Bank> banks_;

    Tick lastActAt_ = kTickNever;  ///< kTickNever encodes "no ACT yet".
    /** Timestamps of the last four ACTs, oldest first, for tFAW. */
    Tick actWindow_[4] = {0, 0, 0, 0};
    int actsSeen_ = 0;

    /** End ticks of in-flight per-bank refreshes (pruned lazily). */
    mutable std::vector<Tick> refPbEnds_;
    /** End ticks of the HiRA-hidden subset of refPbEnds_. */
    mutable std::vector<Tick> hiddenPbEnds_;
    Tick refAbUntil_ = 0;
    /** End of the last same-bank refresh: one needs a rank with no
     *  refresh in flight, so at most one is ever live. */
    Tick refSbUntil_ = 0;
    /** Latest refresh end of any granularity: a refresh is in flight
     *  while it lies ahead. */
    Tick refreshUntil_ = 0;

    /** @name Self-refresh protocol state. */
    /// @{
    bool srActive_ = false;
    Tick srEnteredAt_ = kTickNever;
    Tick srExitLockoutUntil_ = 0;  ///< SRX tick + tXS.
    /// @}

    /** SARP, HiRA or the overlap extension: an in-flight refresh can
     *  inflate tRRD/tFAW (refreshInflationMult()). */
    bool inflates_;
    /** Precomputed inflated values for the common cases (no fp math on
     *  the hot path); counts above one in-flight REFpb fall back to the
     *  shared formula. */
    Cycles tRrdInflAb_;
    Cycles tRrdInflPb_;
    Cycles tFawInflAb_;
    Cycles tFawInflPb_;
};

} // namespace dsarp

#endif // DSARP_DRAM_RANK_HH
