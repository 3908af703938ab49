#include "dram/bank.hh"

#include <algorithm>

#include "common/log.hh"

namespace dsarp {

Bank::Bank(const TimingParams *timing, int rows_per_subarray,
           int rows_per_bank, bool sarp)
    : timing_(timing), rowsPerSubarray_(rows_per_subarray),
      rowsPerBank_(rows_per_bank), sarp_(sarp)
{
}

bool
Bank::canAct(Tick now, RowId row) const
{
    if (openRow_ != kNone || now < actAllowedAt_)
        return false;
    if (refreshing(now)) {
        // Without SARP a refreshing bank accepts nothing. With SARP, an
        // ACT may target any subarray other than the refreshing one.
        if (!sarp_ || subarrayOf(row) == refreshSubarray_)
            return false;
    }
    return true;
}

bool
Bank::canColumn(Tick now) const
{
    return openRow_ != kNone && now >= colAllowedAt_;
}

bool
Bank::canPre(Tick now) const
{
    return openRow_ != kNone && now >= preAllowedAt_;
}

bool
Bank::canRefresh(Tick now) const
{
    return openRow_ == kNone && !refreshing(now) && now >= actAllowedAt_;
}

bool
Bank::canHiddenRefresh(Tick now) const
{
    if (openRow_ == kNone || refreshing(now))
        return false;
    if (lastActAt_ == kTickNever || now < lastActAt_ + timing_->tHiRA)
        return false;
    return subarrayOf(refRowCounter_) != openSubarray_;
}

void
Bank::onAct(Tick now, RowId row, SubarrayId subarray)
{
    DSARP_ASSERT(canAct(now, row), "illegal ACT");
    openRow_ = row;
    openSubarray_ = subarray;
    lastActAt_ = now;
    colAllowedAt_ = now + timing_->tRcd;
    actAllowedAt_ = std::max(actAllowedAt_, now + timing_->tRc);
    preAllowedAt_ = now + timing_->tRas;
}

void
Bank::onRead(Tick now, bool auto_precharge)
{
    DSARP_ASSERT(canColumn(now), "illegal RD");
    colAllowedAt_ = std::max(colAllowedAt_, now + timing_->tCcd);
    // Read-to-precharge constraint.
    const Tick pre_ready =
        std::max(preAllowedAt_, now + timing_->tRtp);
    preAllowedAt_ = pre_ready;
    if (auto_precharge) {
        openRow_ = kNone;
        openSubarray_ = kNone;
        actAllowedAt_ = std::max(actAllowedAt_, pre_ready + timing_->tRp);
    }
}

void
Bank::onWrite(Tick now, bool auto_precharge)
{
    DSARP_ASSERT(canColumn(now), "illegal WR");
    colAllowedAt_ = std::max(colAllowedAt_, now + timing_->tCcd);
    // Write recovery: precharge may start tWR after the write data ends.
    const Tick data_end = now + timing_->tCwl + timing_->tBl;
    const Tick pre_ready =
        std::max(preAllowedAt_, data_end + timing_->tWr);
    preAllowedAt_ = pre_ready;
    if (auto_precharge) {
        openRow_ = kNone;
        openSubarray_ = kNone;
        actAllowedAt_ = std::max(actAllowedAt_, pre_ready + timing_->tRp);
    }
}

void
Bank::onPre(Tick now)
{
    DSARP_ASSERT(canPre(now), "illegal PRE");
    openRow_ = kNone;
    openSubarray_ = kNone;
    actAllowedAt_ = std::max(actAllowedAt_, now + timing_->tRp);
}

void
Bank::onRefresh(Tick now, Cycles t_rfc, int rows, bool hidden)
{
    DSARP_ASSERT(hidden ? canHiddenRefresh(now) : canRefresh(now),
                 "illegal refresh");
    if (rows == 0)
        rows = timing_->rowsPerRefresh;
    refreshSubarray_ = subarrayOf(refRowCounter_);
    refreshHidden_ = hidden;
    refreshUntil_ = now + t_rfc;
    refRowCounter_ = (refRowCounter_ + rows) % rowsPerBank_;
    if (!sarp_) {
        // No new ACT until the refresh completes. For a hidden refresh
        // the open row keeps serving column commands -- only further
        // activations wait (HiRA interleaves exactly two activations).
        actAllowedAt_ = std::max(actAllowedAt_, refreshUntil_);
    }
}

} // namespace dsarp
