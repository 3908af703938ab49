/**
 * @file
 * Baseline per-bank refresh (REFpb): the LPDDR round-robin scheme of paper
 * Section 2.2.2. A REFpb command is due every tREFIpb; the DRAM-internal
 * counter dictates a strict sequential bank order, so the controller has
 * no say in which bank refreshes next, and refreshes take priority over
 * demands once due.
 */

#ifndef DSARP_REFRESH_PER_BANK_HH
#define DSARP_REFRESH_PER_BANK_HH

#include <vector>

#include "refresh/scheduler.hh"

namespace dsarp {

class PerBankScheduler : public LedgerScheduler
{
  public:
    PerBankScheduler(const MemConfig *cfg, const TimingParams *timing,
                     ControllerView *view);

    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;

  private:
    std::vector<BankId> rrIndex_;  ///< Internal round-robin counters.
};

} // namespace dsarp

#endif // DSARP_REFRESH_PER_BANK_HH
