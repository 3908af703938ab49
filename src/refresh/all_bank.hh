/**
 * @file
 * Baseline all-bank refresh (REFab): one rank-level refresh command per
 * tREFIab, issued on schedule with priority over demand requests (the
 * commodity DDR controller behaviour of paper Section 2.2.1).
 *
 * Also serves DDR4 FGR 2x/4x (Section 6.5): the factory hands it a
 * TimingParams whose tREFIab/tRFCab were already rate-scaled.
 */

#ifndef DSARP_REFRESH_ALL_BANK_HH
#define DSARP_REFRESH_ALL_BANK_HH

#include "refresh/scheduler.hh"

namespace dsarp {

class AllBankScheduler : public LedgerScheduler
{
  public:
    AllBankScheduler(const MemConfig *cfg, const TimingParams *timing,
                     ControllerView *view);

    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
};

} // namespace dsarp

#endif // DSARP_REFRESH_ALL_BANK_HH
