/**
 * @file
 * Per-bank DRAM state machine.
 *
 * Tracks the open row, earliest-allowed command times, and refresh state.
 * SARP support (Section 4.3): while the bank is refreshing, the refreshing
 * subarray is recorded; ACTs to *other* subarrays are permitted when SARP
 * is enabled, and the refresh neither uses nor blocks the global bitlines
 * (the AND-gate isolation of Figure 11b).
 *
 * HiRA support (Yağlıkçı et al., MICRO'22): a *hidden* refresh may start
 * while a row is open, provided the refresh-counter row lives in a
 * different subarray and at least tHiRA cycles passed since the demand
 * ACT -- the refresh activation hides beneath the access. The open row
 * keeps serving column commands; new ACTs still wait for the refresh to
 * finish (off-the-shelf chips interleave exactly two activations).
 */

#ifndef DSARP_DRAM_BANK_HH
#define DSARP_DRAM_BANK_HH

#include <algorithm>

#include "common/types.hh"
#include "dram/timing.hh"

namespace dsarp {

class Bank
{
  public:
    Bank(const TimingParams *timing, int rowsPerSubarray, int rowsPerBank,
         bool sarp);

    /** @name Command legality (bank-local constraints only). */
    /// @{
    bool canAct(Tick now, RowId row) const;
    /** A column command (RD/WR, with or without auto-precharge). */
    bool canColumn(Tick now) const;
    bool canPre(Tick now) const;

    /** Bank idle (precharged, no refresh) so a refresh may start. */
    bool canRefresh(Tick now) const;

    /**
     * A HiRA hidden refresh may start: a row is open, no refresh is in
     * flight, the demand ACT is at least tHiRA cycles old, and the
     * refresh counter targets a different subarray than the open row.
     */
    bool canHiddenRefresh(Tick now) const;
    /// @}

    /** @name State transitions; caller must have checked legality. */
    /// @{
    void onAct(Tick now, RowId row, SubarrayId subarray);
    void onRead(Tick now, bool autoPrecharge);
    void onWrite(Tick now, bool autoPrecharge);
    void onPre(Tick now);

    /**
     * Begin refreshing @p rows rows (0 = the TimingParams default)
     * starting at the internal row counter; occupies the counter's
     * subarray for tRfc cycles. With @p hidden the refresh starts
     * beneath the open row (HiRA); the caller must have checked
     * canHiddenRefresh() instead of canRefresh().
     */
    void onRefresh(Tick now, Cycles tRfc, int rows = 0,
                   bool hidden = false);
    /// @}

    /** @name Observers. */
    /// @{
    RowId openRow() const { return openRow_; }
    bool isOpen() const { return openRow_ != kNone; }
    bool refreshing(Tick now) const { return refreshUntil_ > now; }
    Tick refreshUntil() const { return refreshUntil_; }

    /** True while a HiRA hidden refresh is in flight. */
    bool
    hiddenRefreshing(Tick now) const
    {
        return refreshing(now) && refreshHidden_;
    }

    /** Tick of the last ACT accepted (kTickNever before the first). */
    Tick lastActAt() const { return lastActAt_; }

    /** Subarray currently being refreshed (kNone when not refreshing). */
    SubarrayId
    refreshingSubarray(Tick now) const
    {
        return refreshing(now) ? refreshSubarray_ : kNone;
    }

    /** Next row the refresh unit will refresh (DARP keeps these per bank). */
    RowId refreshRowCounter() const { return refRowCounter_; }

    SubarrayId subarrayOf(RowId row) const { return row / rowsPerSubarray_; }

    /** Earliest tick an ACT could be accepted (ignores rank constraints). */
    Tick actReadyAt() const { return actAllowedAt_; }

    /** Earliest tick a column command could be accepted (ignores the
     *  data bus). */
    Tick colReadyAt() const { return colAllowedAt_; }

    /**
     * Earliest bank-local threshold strictly after @p now (kTickNever
     * when none) that needs no queued request: while closed, the
     * ACT-ready instant, which also gates canRefresh(); while open,
     * the precharge-ready instant and, with @p hira, the
     * canHiddenRefresh() flip tHiRA after the ACT (only the HiRA
     * schedulers consult it). Nothing else can flip in the current
     * open/closed state, which changes only at an issue. The
     * column-ready instant matters only for a queued row hit, so the
     * channel adds it for banks with queued work; a refresh's end is
     * its rank's deadline.
     */
    Tick
    nextDeadline(Tick now, bool hira) const
    {
        const auto after = [now](Tick t) { return t > now ? t : kTickNever; };
        if (openRow_ == kNone)
            return after(actAllowedAt_);
        // canHiddenRefresh() flips tHiRA after the demand ACT.
        const Tick armed = hira ? after(lastActAt_ + timing_->tHiRA)
                                : kTickNever;
        return std::min(after(preAllowedAt_), armed);
    }
    /// @}

  private:
    const TimingParams *timing_;
    int rowsPerSubarray_;
    int rowsPerBank_;
    bool sarp_;

    RowId openRow_ = kNone;
    SubarrayId openSubarray_ = kNone;

    Tick actAllowedAt_ = 0;   ///< Earliest next ACT (tRC/tRP/refresh).
    Tick colAllowedAt_ = 0;   ///< Earliest column command (ACT + tRCD).
    Tick preAllowedAt_ = 0;   ///< Earliest precharge (tRAS/tRTP/tWR).

    Tick refreshUntil_ = 0;
    SubarrayId refreshSubarray_ = kNone;
    bool refreshHidden_ = false;
    RowId refRowCounter_ = 0;
    Tick lastActAt_ = kTickNever;
};

} // namespace dsarp

#endif // DSARP_DRAM_BANK_HH
