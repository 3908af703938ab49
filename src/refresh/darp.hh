/**
 * @file
 * DARP: Dynamic Access Refresh Parallelization (paper Section 4.2), the
 * first of the paper's two mechanisms, and its DDR5 same-bank form.
 *
 * DARP schedules refresh *units*. A unit is one bank, or, under
 * RefreshMode::kSameBank (the REFsb and HiRAsb entries), one bank-group
 * slice of TimingParams::banksPerGroup banks: one REFsb command
 * refreshes the whole slice in tRFCsb while the other bank groups keep
 * serving, DDR5's own adoption of the paper's refresh-access
 * parallelism. A slice is due every tREFIsb = tREFIab / (banks /
 * slice).
 *
 * Component 1, out-of-order refresh (Figure 8): at each nominal refresh
 * instant of a unit the scheduler postpones the unit's refresh if any
 * of its banks has pending demand requests and its credit allows (the
 * erratum bounds postponement to 8 commands; we force a refresh at the
 * limit). A slice must drain a whole bank group before it can refresh,
 * so it stops postponing two slots before the limit. When the channel
 * is otherwise idle, a *random* unit with no pending demands receives a
 * postponed or pulled-in refresh; for slices this is gated by
 * MemConfig::sameBankPullIn (config key "refresh.samebank.pullIn").
 *
 * Component 2, write-refresh parallelization (Algorithm 1, banks only):
 * while the channel drains a write batch, every tRFCpb the scheduler
 * refreshes the bank with the fewest pending demands (credit
 * permitting), hiding the refresh under the batched writes.
 *
 * HiRA's refresh-refresh pairing (Yağlıkçı+, MICRO'22), armed by
 * MemConfig::hira when banks have a second subarray: a due unit at
 * least two slots behind may cover two slots' rows in one command at
 * unchanged tRFC, gated by the spec's hiraRefCoverage. HiRA
 * (refresh/hira.hh) and HiRAsb share this step.
 *
 * Decisions come from unit masks (bit rank x units + unit): the
 * ledger's force/pull-in masks, the on-time mask dueNow_, and the
 * controller's demandBanks() and the channel's openBanks() folded to
 * units. Urgent requests are the set bits of force | dueNow_ outside
 * ranks locked in self-refresh; the idle pull-in and the write-refresh
 * choice test DRAM legality only for pull-in-eligible units with no
 * open bank (an open bank can never take a plain refresh), in the same
 * order and with the same RNG draw as a walk over every unit.
 * Postpone/force decisions and the dueNow_ marks only change at ledger
 * accrual instants; between them urgent()/opportunistic() are pure
 * functions of frozen controller and DRAM state (the pairing draw is
 * cached per slot, and the controller replays the per-tick pull-in
 * draw itself), so the base class's accrual-instant wake holds.
 */

#ifndef DSARP_REFRESH_DARP_HH
#define DSARP_REFRESH_DARP_HH

#include <cstdint>
#include <vector>

#include "refresh/scheduler.hh"

namespace dsarp {

class DarpScheduler : public LedgerScheduler
{
  public:
    DarpScheduler(const MemConfig *cfg, const TimingParams *timing,
                  ControllerView *view);

    void tick(Tick now) override;
    void urgent(Tick now, std::vector<RefreshRequest> &out) override;
    bool opportunistic(Tick now, RefreshRequest &out) override;
    void onIssued(const RefreshRequest &req, Tick now) override;
    void onSrEnter(RankId rank, Tick now) override;

    /** Units marked for an on-time refresh (bit rank x units + unit). */
    std::uint64_t dueNow() const { return dueNow_; }

  protected:
    // Protected, not private: HiRA (refresh/hira.hh) extends DARP's
    // out-of-order scheduling with hidden-refresh issue paths.
    int index(RankId r, int u) const { return r * units_ + u; }

    /** The REFpb (REFsb for slices) of unit @p u of rank @p r. */
    RefreshRequest request(RankId r, int u, bool blocking) const;

    /** Units holding a set bit of @p banks, a bank mask in the layout
     *  of Channel::openBanks(). */
    std::uint64_t unitsOf(std::uint64_t banks) const;

    /** Write-refresh choice among rank @p r's candidate @p banks (bank
     *  bits): the refreshable one with the fewest pending demands,
     *  lowest first on ties; kNone when none can refresh. */
    BankId leastLoaded(RankId r, std::uint64_t banks, std::uint64_t demand,
                       Tick now) const;

    bool sameBank_;  ///< Units are REFsb slices, not banks.
    int width_;      ///< Banks per unit.
    int units_;      ///< Units per rank.
    int headroom_;   ///< Slots short of the limit where postponing stops.
    bool pullIn_;
    bool writeRefresh_;
    bool pairing_;   ///< HiRA refresh-refresh pairing.
    int slot_ = 1;   ///< Ledger parts per slot (the ledger denominator).

    /** Units whose nominal refresh could not be postponed (Figure 8
     *  "R"), one bit per unit as in the ledger's masks. */
    std::uint64_t dueNow_ = 0;

    /** Per-unit pairing draw for the next due slot: -1 undecided, else
     *  0/1. Drawn once per slot (redrawing every tick would inflate the
     *  effective probability) and reset when the unit's refresh issues. */
    std::vector<int> pairDraw_;

    Tick lastTick_ = 0;
};

} // namespace dsarp

#endif // DSARP_REFRESH_DARP_HH
