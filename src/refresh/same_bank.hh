/**
 * @file
 * REFsb: DDR5 same-bank refresh, the standard's own adoption of the
 * paper's refresh-access parallelism.
 *
 * One REFsb command refreshes every bank of one bank-group slice
 * (TimingParams::banksPerGroup banks, 4 on DDR5) in tRFCsb cycles
 * while all other bank groups keep serving demand accesses -- what
 * DARP/SARP build in controller logic, DDR5 ships in the device. A
 * slice is due every tREFIsb = tREFIab / (banks / slice).
 *
 * The scheduler maps the slices onto the per-bank refresh machinery:
 * the ledger tracks one unit per (rank, group); issuing one command
 * retires the obligations of all banks sharing that bank-group index
 * at once. Scheduling is DARP-flavoured at group granularity
 * (Section 4.2 transplanted): a due slice is postponed while any of
 * its banks has pending demand requests (credit permitting, forced at
 * the JEDEC postpone limit), and idle channels pull slices in
 * opportunistically (gated by MemConfig::sameBankPullIn, config key
 * "refresh.samebank.pullIn"). As in DARP, the decisions come from unit
 * masks (bit rank x groups + group): the ledger's force/pull-in masks,
 * the on-time mask dueNow_, and the controller's demand and open-bank
 * masks folded to slices; DRAM legality is tested only for slices with
 * no demand and no open bank.
 *
 * HiRA composition (Yağlıkçı+, MICRO'22): under the "HiRAsb" registry
 * entry (MemConfig::hira set), a due slice that is two or more slots
 * behind may cover two slots' rows in one command at unchanged
 * tRFCsb, pairing each row with a partner from another subarray --
 * HiRA's refresh-refresh doubling extended from single banks to
 * same-bank slices, gated by the spec's characterized
 * hiraRefCoverage.
 */

#ifndef DSARP_REFRESH_SAME_BANK_HH
#define DSARP_REFRESH_SAME_BANK_HH

#include <cstdint>
#include <vector>

#include "refresh/ledger.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

class SameBankScheduler : public RefreshScheduler
{
  public:
    SameBankScheduler(const MemConfig *cfg, const TimingParams *timing,
                      ControllerView *view);

    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    bool opportunistic(Tick now, RefreshRequest &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;
    void onSrExit(RankId rank, Tick now) override;

    /**
     * Postpone decisions and dueNow_ marks only change at ledger
     * accrual instants; the pairing draw is lazy (cached after the
     * first evaluation) and the per-tick pull-in draw is replayed by
     * the controller.
     */
    Tick nextWake(Tick) override { return ledger_.nextAccrualTick(); }

    const RefreshLedger &ledger() const { return ledger_; }

    /** Bank-group slices per rank. */
    int numGroups() const { return groups_; }

    /** Commands that covered two slots (HiRA slice pairing). */
    std::uint64_t pairedIssued() const { return pairedIssued_; }

    /** Slices marked for an on-time refresh (bit rank x groups +
     *  group). */
    std::uint64_t dueNow() const { return dueNow_; }

  private:
    int index(RankId r, int g) const { return r * groups_ + g; }

    /** Slices holding a set bit of @p banks, a bank mask in the
     *  layout of Channel::openBanks(). */
    std::uint64_t slicesOf(std::uint64_t banks) const;

    RefreshLedger ledger_;  ///< One unit per (rank, bank-group slice).
    int groups_;
    int banksPerGroup_;
    bool pullInEnabled_;
    bool pairingEnabled_;   ///< HiRA refresh-refresh slice doubling.

    /** Slices whose nominal refresh could not be postponed. */
    std::uint64_t dueNow_ = 0;

    /** Per-slice pairing coverage draw for the next due slot: -1
     *  undecided, else 0/1 (one draw per slot, reset on issue). */
    std::vector<int> pairDraw_;

    std::uint64_t pairedIssued_ = 0;
    Tick lastTick_ = 0;
};

} // namespace dsarp

#endif // DSARP_REFRESH_SAME_BANK_HH
