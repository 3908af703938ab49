/**
 * @file
 * HiRA: Hidden Row Activation (Yağlıkçı et al., "HiRA: Hidden Row
 * Activation for Reducing Refresh Latency of Off-the-Shelf DRAM
 * Chips", MICRO 2022), extended onto this paper's refresh machinery.
 *
 * Where the paper's SARP parallelizes refreshes with accesses by
 * steering refreshes to *idle* subarrays, HiRA overlaps a refresh
 * *beneath* an activation to a different subarray of the same bank:
 * tHiRA cycles after a demand ACT, the controller may issue a hidden
 * per-bank refresh whose target subarray differs from the activated
 * row's. The open row keeps serving column commands while the hidden
 * activation refreshes rows in the background; off-the-shelf chips
 * support this for a characterized fraction of row pairs (~32% for
 * refresh-beneath-access, ~78% for refresh-with-refresh), which the
 * per-spec coverage knobs model stochastically.
 *
 * Composition: HiRA extends DarpScheduler, so DARP's out-of-order
 * per-bank scheduling, its write-refresh parallelization (which obeys
 * the existing write watermarks), and the postpone/pull-in ledger all
 * keep working; HiRA adds two issue paths on top:
 *
 *   1. Hidden refresh under ACT: every demand ACT opens a tHiRA-delayed
 *      window in which a one-row hidden refresh (an activation-based
 *      refresh taking tRC) may issue to the same bank, credited as a
 *      fractional ledger slot. Gated by hiraActCoverage.
 *   2. Refresh-refresh parallelization: a due blocking REFpb may cover
 *      two slots' rows in one command when the bank is at least two
 *      slots behind and has a second subarray, modeling the concurrent
 *      refresh of row pairs across subarrays. Gated by
 *      hiraRefCoverage. This is DarpScheduler's pairing step, which
 *      MemConfig::hira arms; HiRAsb runs the same step on same-bank
 *      slices.
 *
 * tRRD/tFAW inflate while a *hidden* refresh is in flight (the same
 * Eq. 1-3 power-integrity modeling SARP uses; MemConfig::hira arms
 * it); plain blocking REFpb under HiRA behaves exactly like DARP's.
 */

#ifndef DSARP_REFRESH_HIRA_HH
#define DSARP_REFRESH_HIRA_HH

#include <vector>

#include "refresh/darp.hh"

namespace dsarp {

class HiraScheduler : public DarpScheduler
{
  public:
    HiraScheduler(const MemConfig *cfg, const TimingParams *timing,
                  ControllerView *view);

    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onDemandCommand(const Command &cmd, Tick now) override;

    /**
     * DARP's accrual instants plus pending hidden-window openings
     * (readyAt of each armed window). Expiry needs no wake: past
     * expiresAt the window merely stops *trying*, and an inert try has
     * no side effects.
     */
    Tick nextWake(Tick now) override;

  private:
    /** One ACT-opened hidden-refresh opportunity per bank. */
    struct HiddenWindow
    {
        bool armed = false;  ///< Coverage draw passed for this ACT.
        Tick readyAt = 0;    ///< Demand ACT + tHiRA.
        Tick expiresAt = 0;  ///< Stale once the access has surely closed.
    };

    std::vector<HiddenWindow> windows_;
};

} // namespace dsarp

#endif // DSARP_REFRESH_HIRA_HH
