/**
 * @file
 * Elastic refresh [Stuecheli et al., MICRO 2010], the prior-work policy
 * evaluated in paper Section 6.
 *
 * All-bank refreshes may be postponed (up to the JEDEC window of 8) while
 * the rank looks busy. A refresh is released when the rank has been idle
 * for an idle-delay threshold that *shrinks linearly* as the number of
 * postponed refreshes grows (the "elastic" schedule), and is forced at
 * the postpone limit. The policy never pulls refreshes in early and does
 * not overlap refreshes with accesses; both shortcomings are what DARP
 * and SARP attack (Section 7).
 */

#ifndef DSARP_REFRESH_ELASTIC_HH
#define DSARP_REFRESH_ELASTIC_HH

#include "refresh/scheduler.hh"

namespace dsarp {

class ElasticScheduler : public LedgerScheduler
{
  public:
    ElasticScheduler(const MemConfig *cfg, const TimingParams *timing,
                     ControllerView *view);

    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;

    /**
     * Ledger accrual instants plus each due rank's elastic release
     * instant (lastDemandActivity + the owed-dependent idle threshold).
     */
    Tick nextWake(Tick now) override;

    /** Idle delay demanded before releasing a refresh, given owed count. */
    Tick idleThreshold(int owed) const;

  private:
    Tick maxIdleDelay_;  ///< Threshold when nothing is postponed.
};

} // namespace dsarp

#endif // DSARP_REFRESH_ELASTIC_HH
