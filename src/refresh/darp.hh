/**
 * @file
 * DARP: Dynamic Access Refresh Parallelization (paper Section 4.2), the
 * first of the paper's two mechanisms.
 *
 * Component 1, out-of-order per-bank refresh (Figure 8): at each nominal
 * per-bank refresh instant the scheduler postpones the round-robin bank's
 * refresh if that bank has pending demand requests and its credit allows
 * (the erratum bounds postponement to 8 commands; we force a refresh at
 * the limit). When the channel is otherwise idle, a *random* bank with no
 * pending demands receives a postponed or pulled-in refresh.
 *
 * Component 2, write-refresh parallelization (Algorithm 1): while the
 * channel drains a write batch, every tRFCpb the scheduler refreshes the
 * bank with the fewest pending demands (credit permitting), hiding the
 * refresh under the batched writes.
 *
 * Decisions come from bank masks (bit rank x banks + bank): the
 * ledger's force/pull-in masks, the on-time mask dueNow_, the
 * controller's demandBanks() and the channel's openBanks(). Urgent
 * requests are the set bits of force | dueNow_ outside ranks locked in
 * self-refresh; the idle pull-in and the write-refresh choice test
 * DRAM legality only for pull-in-eligible closed banks (an open bank
 * can never take a plain refresh), in the same order and with the same
 * RNG draw as a walk over every bank.
 */

#ifndef DSARP_REFRESH_DARP_HH
#define DSARP_REFRESH_DARP_HH

#include <cstdint>
#include <vector>

#include "refresh/ledger.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class DarpScheduler : public RefreshScheduler
{
  public:
    DarpScheduler(const MemConfig *cfg, const TimingParams *timing,
                  ControllerView *view);

    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    bool opportunistic(Tick now, RefreshRequest &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;
    void onSrExit(RankId rank, Tick now) override;

    /**
     * Postpone/force decisions and the dueNow_ marks only change at
     * ledger accrual instants; between them urgent()/opportunistic()
     * are pure functions of frozen controller and DRAM state (the
     * controller replays the per-tick RNG draw itself).
     */
    Tick nextWake(Tick) override { return ledger_.nextAccrualTick(); }

    const RefreshLedger &ledger() const { return ledger_; }

    /** Banks marked for an on-time refresh (bit rank x banks + bank). */
    std::uint64_t dueNow() const { return dueNow_; }

  protected:
    // Protected, not private: HiRA (refresh/hira.hh) extends DARP's
    // out-of-order scheduling with hidden-refresh issue paths.
    int index(RankId r, BankId b) const { return r * banks_ + b; }

    /** Write-refresh choice among rank @p r's candidate @p banks (bank
     *  bits): the refreshable one with the fewest pending demands,
     *  lowest first on ties; kNone when none can refresh. */
    BankId leastLoaded(RankId r, std::uint64_t banks, std::uint64_t demand,
                       Tick now) const;

    RefreshLedger ledger_;
    int banks_;
    bool writeRefreshEnabled_;

    /** Banks whose nominal refresh could not be postponed (Figure 8
     *  "R"), one bit per bank as in the ledger's masks. */
    std::uint64_t dueNow_ = 0;

    Tick lastTick_ = 0;
};

} // namespace dsarp

#endif // DSARP_REFRESH_DARP_HH
