/**
 * @file
 * Per-channel memory controller.
 *
 * Implements the paper's controller (Table 1): 64/64-entry read/write
 * queues, FR-FCFS, closed-row policy, batched writes with a low
 * watermark, and a pluggable refresh scheduling policy. Arbitration each
 * tick: urgent refreshes, then demand commands (writes during writeback
 * mode, reads otherwise), then a precharge assist for blocked refreshes,
 * then opportunistic refreshes.
 *
 * The controller implements ControllerView so refresh policies can
 * observe queue occupancies (DARP) and idleness (elastic refresh), and
 * exposes the DRAM-side refresh state (SARP's shadow refresh-subarray
 * counters, Section 4.3.2, are realized by reading the modeled refresh
 * unit the controller mirrors).
 */

#ifndef DSARP_CONTROLLER_CONTROLLER_HH
#define DSARP_CONTROLLER_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "controller/queues.hh"
#include "controller/scheduler.hh"
#include "controller/write_drain.hh"
#include "dram/channel.hh"
#include "refresh/scheduler.hh"

namespace dsarp {

/** A command with its issue tick, for the offline timing checker. */
struct TimedCommand
{
    Tick tick;
    Command cmd;
};

struct ControllerStats
{
    std::uint64_t readsEnqueued = 0;
    std::uint64_t writesEnqueued = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t readLatencySum = 0;  ///< Arrival to data return, ticks.
    LatencyHistogram readLatency;      ///< Same samples, bucketed.
    std::uint64_t forwardedReads = 0;  ///< Served from the write queue.
    std::uint64_t writebackModeTicks = 0;
    std::uint64_t ticks = 0;
    std::uint64_t readQueueOccupancySum = 0;
    std::uint64_t writeQueueOccupancySum = 0;
    /** Digest of every command issued since the last reset: each
     *  command's (tick, type, rank, bank, row, hidden) folded in issue
     *  order, so a reordered, retimed or retargeted command moves it
     *  even when every counter above stays put. */
    std::uint64_t cmdDigest = 0;
};

class ChannelController : public ControllerView
{
  public:
    using ReadCallback =
        std::function<void(const Request &, Tick doneTick)>;

    ChannelController(ChannelId id, const MemConfig *cfg,
                      const TimingParams *timing, std::uint64_t seed);

    /** Enqueue a demand request; false when the relevant queue is full. */
    bool enqueueRead(const Request &req, Tick now);
    bool enqueueWrite(const Request &req, Tick now);

    bool readQueueFull() const { return readQ_.full(); }
    bool writeQueueFull() const { return writeQ_.full(); }

    /** Invoked when read data returns (at its data-burst end tick). */
    void setReadCallback(ReadCallback cb) { readCallback_ = std::move(cb); }

    /** Advance one DRAM cycle: refresh policy, arbitration, stats. */
    void tick(Tick now);

    /**
     * Certificate for the event-driven engine, called after tick(@p
     * now): every tick before the returned one would issue no command
     * and deliver no read. The wakes are the next read-data delivery,
     * the refresh policy's wake (a policy wake at or before @p now
     * panics), the self-refresh idle-entry instants
     * of awake ranks, and the DRAM thresholds at which a command the
     * controller can want changes legality (Channel::nextDeadline():
     * refresh ends, self-refresh instants, ACT-ready of closed banks,
     * precharge-ready of open ones, and the column, bus and tRRD/tFAW
     * instants only of banks with work in the served queue, in its
     * direction). Returns @p now (forcing a one-tick step) whenever
     * the tick at @p now issued a command or a core enqueued since --
     * only provably inert state may be skipped.
     */
    Tick nextWake(Tick now);

    /**
     * Account the @p ticks skipped ticks [firstTick, firstTick+ticks)
     * for the event-driven engine: linear stat accrual (tick/occupancy/
     * writeback counters, activity sampling) plus a replay of the
     * per-tick RNG draws the opportunistic-refresh probe would have
     * made. Bit-identical to ticking cycle by cycle across an inert
     * span.
     */
    void skipTicks(Tick firstTick, Tick ticks);

    /**
     * True once, after a demand-queue pop that followed a rejected
     * enqueue: some core is spinning in fetch-retry against the full
     * queue, and its stalled-core certificate ends at the pop. The
     * event engine re-wakes every core at such ticks (reads the flag
     * destructively).
     */
    bool
    consumePoppedWithRejection()
    {
        const bool v = poppedWithRejection_;
        poppedWithRejection_ = false;
        return v;
    }

    /** @name ControllerView */
    /// @{
    int pendingDemands(RankId r, BankId b) const override;
    std::uint64_t
    demandBanks() const override
    {
        return readQ_.busyBanks() | writeQ_.busyBanks();
    }
    bool inWritebackMode() const override { return writeDrain_.active(); }
    Tick lastDemandActivity(RankId r) const override;
    ChannelId channelId() const override { return id_; }
    const Channel &dram() const override { return channel_; }
    Rng &schedulerRng() override { return rng_; }
    /// @}

    Channel &channel() { return channel_; }
    const ControllerStats &stats() const { return stats_; }
    const RefreshSchedStats &refreshStats() const
    {
        return refreshSched_->stats();
    }
    const RefreshScheduler &refreshScheduler() const
    {
        return *refreshSched_;
    }

    /** Attach a command log for the offline timing checker (or nullptr). */
    void setCommandLog(std::vector<TimedCommand> *log) { cmdLog_ = log; }

    /** Zero all measurement counters (queues and DRAM state persist). */
    void resetStats();

    ChannelId id() const { return id_; }

  private:
    void arbitrate(Tick now);

    /**
     * Put @p cmd (legal at @p now) on the bus: the one place a command
     * issues, is folded into stats_.cmdDigest and is logged. Returns
     * Channel::issue()'s data tick.
     */
    Tick issue(const Command &cmd, Tick now);

    /** issue() @p cmd if it is legal at @p now. */
    bool tryIssue(const Command &cmd, Tick now);

    /** Channel bank bits refresh @p cmd takes away
     *  (Rank::refreshBanks()): the blocked-ACT mask and the precharge
     *  assist. */
    std::uint64_t refreshBanks(const Command &cmd) const;

    /** Demand that needs the rank awake: queued reads, or queued
     *  writes once a write drain is active. */
    bool srDemandPending(RankId r) const;

    /** Issue the chosen demand command and retire its request if column. */
    void serveDemand(RequestQueue &queue, const CmdChoice &choice, Tick now);

    ChannelId id_;
    const MemConfig *cfg_;
    Channel channel_;
    Rng rng_;

    RequestQueue readQ_;
    RequestQueue writeQ_;
    WriteDrain writeDrain_;
    std::unique_ptr<RefreshScheduler> refreshSched_;

    struct PendingRead
    {
        Tick done;
        Request req;
    };
    std::vector<PendingRead> pendingReads_;

    std::vector<RefreshRequest> urgentScratch_;
    std::vector<Tick> lastDemandActivity_;

    ReadCallback readCallback_;
    ControllerStats stats_;
    std::vector<TimedCommand> *cmdLog_ = nullptr;

    /** @name Event-engine bookkeeping (see nextWake/skipTicks). */
    /// @{
    bool issuedThisTick_ = false;    ///< Any command went out at tick().
    bool enqueuedSinceTick_ = false; ///< A core enqueued after tick().
    bool sendRejected_ = false;      ///< An enqueue bounced off a full queue.
    bool poppedWithRejection_ = false; ///< ...and a slot has freed since.
    /** RNG draws the last inert opportunistic() probe made (replayed
     *  once per skipped tick; lazy draws in urgent() cache themselves
     *  and must not be replayed). */
    std::uint64_t oppDraws_ = 0;
    /** Memoized issuability deadline (see nextWake()): the earliest
     *  tick a command the controller can want may change legality. */
    Tick cachedDeadline_ = 0;
    bool deadlineCacheValid_ = false;
    /**
     * Frozen-pick certificate: while now < pickSkipUntil_, the demand
     * pick (and the precharge assist behind it) provably repeats its
     * last "nothing issuable" answer -- the queues are unchanged (an
     * enqueue zeroes this), no command issued (ditto), no DRAM timing
     * threshold expires before the issuability deadline, and the
     * refresh policy's urgent set is fixed until its own wake. Set by
     * nextWake() after an inert tick, so only event-engine runs
     * benefit; the cycle engine always runs the full pick.
     */
    Tick pickSkipUntil_ = 0;
    /// @}
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_CONTROLLER_HH
