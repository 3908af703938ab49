/**
 * @file
 * Refresh scheduling policy interface.
 *
 * A scheduler is consulted by its channel controller every tick. It may
 * demand *urgent* refreshes (issued with priority over demand requests;
 * blocking urgent requests also stop new ACTs to their target so the bank
 * or rank drains) and *opportunistic* refreshes (issued only when the
 * channel had nothing better to do this tick).
 *
 * Every policy but NoREF derives from LedgerScheduler, which owns the
 * RefreshLedger of obligations and its plumbing: accrual on tick(),
 * the self-refresh pause, and the accrual-instant wake.
 */

#ifndef DSARP_REFRESH_SCHEDULER_HH
#define DSARP_REFRESH_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "dram/channel.hh"
#include "dram/timing.hh"
#include "refresh/ledger.hh"

namespace dsarp {

/**
 * Controller state a refresh policy may observe (paper Section 4.2.1:
 * DARP monitors the bank request queues' occupancies). demandBanks()
 * answers "which banks have demand" for the whole channel at once, in
 * the bank-bit layout of Channel::openBanks() and RefreshLedger's unit
 * masks, so a policy picks candidates with mask arithmetic (a rank has
 * demand when any of its Channel::rankBankBits() is set) and asks
 * pendingDemands() "how many" only for the banks it must weigh.
 */
class ControllerView
{
  public:
    virtual ~ControllerView() = default;

    /** Pending read+write demand requests queued for a bank. */
    virtual int pendingDemands(RankId r, BankId b) const = 0;

    /** Banks with pendingDemands() > 0: bit rank x banksPerRank +
     *  bank. */
    virtual std::uint64_t demandBanks() const = 0;

    /** True while the channel drains a write batch (writeback mode). */
    virtual bool inWritebackMode() const = 0;

    /** Tick of the last demand activity on a rank (for idle prediction). */
    virtual Tick lastDemandActivity(RankId r) const = 0;

    /** Index of the channel this controller drives, for cross-channel
     *  refresh phasing. Defaulted so single-channel mocks need not
     *  care. */
    virtual ChannelId channelId() const { return 0; }

    virtual const Channel &dram() const = 0;
    virtual Rng &schedulerRng() = 0;
};

/**
 * One refresh the policy wants issued: the REFab, REFpb or REFsb
 * command itself, with any overrides (FGR/AR latency and rows, HiRA's
 * hidden one-row refresh), which the controller issues as written.
 */
struct RefreshRequest
{
    Command cmd{};
    bool blocking = false;  ///< Stop new ACTs to the target until issued.
    int ledgerParts = 0;    ///< Ledger sub-units retired (0 = full slot).

    bool operator==(const RefreshRequest &) const = default;
};

/** Counters reported by every policy. */
struct RefreshSchedStats
{
    std::uint64_t postponed = 0;  ///< Refreshes deferred past nominal time.
    std::uint64_t pulledIn = 0;   ///< Refreshes issued ahead of schedule.
    std::uint64_t forced = 0;     ///< Issued at the postpone limit.
    std::uint64_t issued = 0;     ///< Total refresh commands issued.
};

class RefreshScheduler
{
  public:
    RefreshScheduler(const MemConfig *cfg, const TimingParams *timing,
                     ControllerView *view)
        : cfg_(cfg), timing_(timing), view_(view)
    {}

    virtual ~RefreshScheduler() = default;

    /** Advance internal obligation tracking to @p now. */
    virtual void tick(Tick now) = 0;

    /**
     * Append refreshes that should be issued with priority over demands.
     * Order matters: the controller issues the first legal one.
     */
    virtual void urgent(Tick now, std::vector<RefreshRequest> &out) = 0;

    /** A refresh to issue only because the channel is otherwise idle. */
    virtual bool opportunistic(Tick now, RefreshRequest &out) = 0;

    /** Notification that @p req was put on the command bus at @p now. */
    virtual void onIssued(const RefreshRequest &req, Tick now) = 0;

    /**
     * Notification that a *demand* command went on the bus at @p now.
     * Default no-op; HiRA watches ACTs so it can pair a hidden refresh
     * with the activation (tHiRA cycles later, different subarray).
     */
    virtual void
    onDemandCommand(const Command &cmd, Tick now)
    {
        (void)cmd;
        (void)now;
    }

    /**
     * Self-refresh entry/exit notifications (SRE/SRX issued by the
     * controller's idle-entry policy). Ledger-driven policies pause
     * the rank's obligation tracking across the residency -- the
     * device refreshes itself internally -- and re-anchor on exit.
     * Default no-op (NoREF has nothing to pause).
     */
    virtual void
    onSrEnter(RankId rank, Tick now)
    {
        (void)rank;
        (void)now;
    }

    virtual void
    onSrExit(RankId rank, Tick now)
    {
        (void)rank;
        (void)now;
    }

    /**
     * Earliest tick strictly after @p now at which this policy could
     * behave differently than it just did (ledger accrual instants,
     * HiRA window arming, elastic idle-release thresholds, ...), or
     * kTickNever. The event-driven engine sleeps to the minimum over
     * all components and runs none of the ticks before it. There is no
     * safe default: a wake at or before @p now is a bug, and the
     * controller panics on it. Called only after a tick on which the
     * controller issued nothing and no core enqueued (after any other
     * tick the engine steps one tick).
     */
    virtual Tick nextWake(Tick now) = 0;

    /**
     * Account @p ticks consecutive skipped ticks starting at
     * @p firstTick. A skipped tick is one the cycle engine would have
     * executed with no command issued and no threshold crossed; the
     * policy must replay whatever per-tick side effects of its own it
     * has on that path (per-tick stat counters in urgent(), say) so
     * the event engine stays bit-identical. The controller already
     * replays the RNG draws opportunistic() made on the last inert
     * tick, once per skipped tick: a policy must not replay them
     * again. Default: none.
     */
    virtual void
    skipTicks(Tick firstTick, Tick ticks)
    {
        (void)firstTick;
        (void)ticks;
    }

    const RefreshSchedStats &stats() const { return stats_; }

    /** Zero the counters (obligation state is preserved). */
    void resetStats() { stats_ = RefreshSchedStats{}; }

  protected:
    /** A rank in self-refresh (or its tXS exit window) accepts no
     *  refresh commands; policies skip it when emitting requests. */
    bool
    rankInSelfRefresh(RankId r, Tick now) const
    {
        return view_->dram().rank(r).selfRefreshLockout(now);
    }

    /**
     * This channel's cross-channel refresh phase (config key
     * "refresh.channelStagger"): the ledger origin offset that keeps
     * sibling channels from refreshing on the same ticks. 0 when
     * staggering is off (the bit-identical default) or the system has
     * one channel; -1 selects the even spread tREFIab / channels.
     * Ledger-driven policies pass this as their ledger's channelPhase.
     */
    Cycles
    channelPhase() const
    {
        const int s = cfg_->channelStaggerCycles;
        if (s == 0 || cfg_->org.channels <= 1)
            return Cycles(0);
        const Cycles per =
            s < 0 ? timing_->tRefiAb / cfg_->org.channels : Cycles(s);
        return per * view_->channelId();
    }

    const MemConfig *cfg_;
    const TimingParams *timing_;
    ControllerView *view_;
    RefreshSchedStats stats_;
};

/**
 * A policy whose obligations live in one RefreshLedger: tick() accrues
 * them, self-refresh pauses the rank's units for the residency, and
 * nothing changes between accrual instants. Subclasses supply the
 * ledger's shape and the urgent()/onIssued() decisions.
 */
class LedgerScheduler : public RefreshScheduler
{
  public:
    /**
     * @param units       ledger units per rank
     * @param period      nominal interval between accruals of one unit
     * @param rankStagger phase offset between consecutive ranks
     * @param unitStagger phase offset between units within a rank
     * @param maxSlack    postpone/pull-in window, in ledger slots
     */
    LedgerScheduler(const MemConfig *cfg, const TimingParams *timing,
                    ControllerView *view, int units, Cycles period,
                    Cycles rankStagger, Cycles unitStagger,
                    int maxSlack = 8)
        : RefreshScheduler(cfg, timing, view),
          ledger_(cfg->org.ranksPerChannel, units, period, rankStagger,
                  unitStagger, maxSlack, channelPhase())
    {}

    void tick(Tick now) override { ledger_.advanceTo(now); }
    bool opportunistic(Tick, RefreshRequest &) override { return false; }

    void
    onSrEnter(RankId rank, Tick now) override
    {
        ledger_.pauseRank(rank, now);
    }

    void
    onSrExit(RankId rank, Tick now) override
    {
        ledger_.resumeRank(rank, now);
    }

    /** Nothing changes between ledger accrual instants. */
    Tick nextWake(Tick) override { return ledger_.nextAccrualTick(); }

    const RefreshLedger &ledger() const { return ledger_; }

  protected:
    RefreshLedger ledger_;
};

} // namespace dsarp

#endif // DSARP_REFRESH_SCHEDULER_HH
