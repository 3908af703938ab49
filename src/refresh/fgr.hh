/**
 * @file
 * Adaptive refresh (AR) [Mukundan et al., ISCA 2013], evaluated against
 * DDR4 fine granularity refresh in paper Section 6.5.
 *
 * Plain FGR 2x/4x is AllBankScheduler running on rate-scaled timing
 * parameters (DramSpec::timingFor applies the spec's 2x/4x tRFC
 * divisors). AR dynamically mixes the 1x and 4x command granularities:
 * 4x commands have a much shorter per-command lockout (good under
 * demand pressure, e.g. inside a write drain) but cost 2.45x the total
 * refresh busy time, which is why static 4x FGR loses badly.
 *
 * AR therefore spends 4x commands against a *busy-time budget*: each
 * nominal slot grants slightly more budget than a 1x command costs
 * (arBudgetSlack); 4x commands are only issued while the budget covers
 * their inflated cost. This bounds AR's aggregate overhead to within a
 * few percent of REFab, matching the paper's observation that AR can
 * only mitigate the 4x losses, not beat REFab (Figure 16).
 *
 * The ledger tracks obligations in quarter-slots so the two command
 * sizes compose: a 1x REFab retires four quarters, a 4x REFab one.
 */

#ifndef DSARP_REFRESH_FGR_HH
#define DSARP_REFRESH_FGR_HH

#include "refresh/scheduler.hh"

namespace dsarp {

class AdaptiveScheduler : public LedgerScheduler
{
  public:
    AdaptiveScheduler(const MemConfig *cfg, const TimingParams *timing,
                      ControllerView *view);

    /**
     * Budget grants and granularity choices only change at ledger
     * accrual instants (fastMode_ tracks writeback mode, which is
     * frozen while the controller is inert), so the base class's
     * accrual-instant wake holds.
     */
    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;

    /** True when the policy would currently prefer 4x commands. */
    bool inFastMode() const { return fastMode_; }

    Cycles tRfc4x() const { return tRfc4x_; }

  private:
    Cycles tRfc4x_;
    int rows4x_;
    bool fastMode_ = false;

    /** Busy-time slack granted per slot, relative to a 1x command. */
    static constexpr double arBudgetSlack = 1.05;

    std::vector<double> budget_;  ///< Per-rank busy-time budget.
    /** Remaining 4x commands of a slot being executed fine-grained. */
    std::vector<int> pending4x_;
    std::uint64_t lastAccrued_ = 0;
};

} // namespace dsarp

#endif // DSARP_REFRESH_FGR_HH
