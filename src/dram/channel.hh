/**
 * @file
 * Per-channel DRAM model: owns the ranks, enforces the shared data-bus
 * constraints (burst occupancy, read/write turnaround tWTR/tRTW, rank
 * switch tRTRS), and dispatches commands to rank/bank state machines.
 *
 * The command bus allows one command per cycle; the controller enforces
 * that by issuing at most one command per channel per tick.
 */

#ifndef DSARP_DRAM_CHANNEL_HH
#define DSARP_DRAM_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "dram/command.hh"
#include "dram/rank.hh"

namespace dsarp {

/** Command counters consumed by the energy model and tests. */
struct ChannelStats
{
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t pres = 0;
    std::uint64_t refAb = 0;
    std::uint64_t refPb = 0;
    /** Same-bank (bank-group slice) refresh commands (DDR5 REFsb). */
    std::uint64_t refSb = 0;
    /** Subset of refPb issued hidden beneath an open row (HiRA). */
    std::uint64_t refPbHidden = 0;
    /** Cycles actually spent in refresh, honouring FGR/AR overrides. */
    std::uint64_t refAbCycles = 0;
    std::uint64_t refPbCycles = 0;
    std::uint64_t refSbCycles = 0;
    /** Rank-ticks with an open row or refresh in flight (background pwr). */
    std::uint64_t rankActiveTicks = 0;
    std::uint64_t rankTotalTicks = 0;

    /** @name Command-level self-refresh protocol (SRE/SRX). */
    /// @{
    std::uint64_t srEnter = 0;  ///< SRE commands issued.
    std::uint64_t srExit = 0;   ///< SRX commands issued.
    std::uint64_t srTicks = 0;  ///< Rank-ticks spent in self-refresh.
    /// @}

    /**
     * Ticks during which this channel's refresh bursts overlapped a
     * refresh in flight on a *sibling* channel (the per-system sum is
     * sum_t max(0, refreshing channels - 1)). Computed by the owning
     * System from the refresh spans the channels report; the
     * cross-channel stagger exists to drive this to zero.
     */
    std::uint64_t refOverlapTicks = 0;
};

class Channel
{
  public:
    Channel(const MemConfig *cfg, const TimingParams *timing);

    Rank &rank(RankId r) { return ranks_[r]; }
    const Rank &rank(RankId r) const { return ranks_[r]; }
    int numRanks() const { return static_cast<int>(ranks_.size()); }

    /** Full legality check: bank, rank, and data-bus constraints. */
    bool canIssue(const Command &cmd, Tick now) const;

    /**
     * Banks with a row open: bit (rank x banksPerRank + bank) mirrors
     * Bank::isOpen(). Kept by issue(), the only path that opens or
     * closes rows, so readers (the FR-FCFS pick, activity sampling)
     * need not walk every bank. The config bounds a channel to 64
     * banks (MemConfig::validate()).
     */
    std::uint64_t openBanks() const { return openBanks_; }

    /**
     * Issue a command (must be legal). Returns the tick the data burst
     * completes for column commands (read data arrival / write data end);
     * 0 for non-column commands.
     */
    Tick issue(const Command &cmd, Tick now);

    /** Accumulate per-tick activity for the energy model. */
    void sampleActivity(Tick now);

    /**
     * Bulk form of sampleActivity() for the event-driven engine: one
     * evaluation at @p firstTick stands for @p ticks consecutive
     * skipped ticks. Legal only inside an inert span -- the engine
     * wakes at every threshold below, so no predicate can change.
     */
    void sampleActivitySpan(Tick firstTick, Tick ticks);

    /**
     * Earliest pending channel/rank/bank threshold strictly after
     * @p now (kTickNever when none): bus-turnaround instants (command
     * legality leads the burst by tCL/tCWL), tWTR/tRTW windows, and
     * every rank/bank deadline.
     */
    Tick nextDeadline(Tick now) const;

    const ChannelStats &stats() const { return stats_; }
    const TimingParams &timing() const { return *timing_; }

    /**
     * Observer for refresh bursts: invoked at every REFab/REFpb/REFsb
     * issue with the burst's [start, end) tick span (end honours
     * FGR/AR tRFC overrides). The System uses it for cross-channel
     * refresh-overlap accounting.
     */
    using RefreshSpanCallback = std::function<void(Tick start, Tick end)>;
    void setRefreshSpanCallback(RefreshSpanCallback cb)
    {
        refreshSpanCb_ = std::move(cb);
    }

    /** Overlap ticks attributed to this channel (see stats above). */
    void addRefOverlapTicks(std::uint64_t t) { stats_.refOverlapTicks += t; }

    /** Zero the counters (DRAM state is preserved). */
    void resetStats() { stats_ = ChannelStats{}; }

  private:
    bool busOkForRead(RankId r, Tick now) const;
    bool busOkForWrite(RankId r, Tick now) const;

    /** This command's bit in openBanks_. */
    std::uint64_t
    bankBit(const Command &cmd) const
    {
        return std::uint64_t(1)
            << (cmd.rank * cfg_->org.banksPerRank + cmd.bank);
    }

    /** Rank @p r's bits in openBanks_. */
    std::uint64_t
    rankBankBits(RankId r) const
    {
        const int banks = cfg_->org.banksPerRank;
        return lowBits(banks) << (r * banks);
    }

    const MemConfig *cfg_;
    const TimingParams *timing_;
    std::vector<Rank> ranks_;
    std::uint64_t openBanks_ = 0;

    Tick busBusyUntil_ = 0;        ///< End of the last data burst.
    bool lastBurstWasWrite_ = false;
    RankId lastBurstRank_ = kNone;
    Tick lastRdCmdAt_ = kTickNever;
    std::vector<Tick> wrDataEnd_;  ///< Per-rank last write-data end (tWTR).
    /** Per-rank memo of Rank::nextDeadline, dirtied by issue(). */
    mutable std::vector<Tick> rankDeadlineCache_;
    mutable std::vector<std::uint8_t> rankDeadlineDirty_;

    RefreshSpanCallback refreshSpanCb_;

    ChannelStats stats_;
};

} // namespace dsarp

#endif // DSARP_DRAM_CHANNEL_HH
