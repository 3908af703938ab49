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

    /** Rank @p r's bits in openBanks() and every other bank mask. */
    std::uint64_t
    rankBankBits(RankId r) const
    {
        const int banks = cfg_->org.banksPerRank;
        return lowBits(banks) << (r * banks);
    }

    /**
     * Issue a command (must be legal). Returns the tick the data burst
     * completes for column commands (read data arrival / write data end);
     * 0 for non-column commands.
     */
    Tick issue(const Command &cmd, Tick now);

    /** Accumulate per-tick activity for the energy model. */
    void sampleActivity(Tick now) { sampleActivitySpan(now, 1); }

    /**
     * Bulk form of sampleActivity() for the event-driven engine: one
     * evaluation at @p firstTick stands for @p ticks consecutive
     * skipped ticks. Legal only inside an inert span -- the engine
     * wakes at every threshold below, so no predicate can change.
     */
    void sampleActivitySpan(Tick firstTick, Tick ticks);

    /**
     * Earliest threshold strictly after @p now (kTickNever when none)
     * at which a command the controller can want changes legality.
     * @p demand holds the bank bits of the served queue's requests and
     * @p writes its direction. Every rank's demand-free deadlines
     * count (Rank::nextDeadline(): refresh ends, self-refresh
     * instants, ACT-ready of closed banks, precharge-ready of open
     * ones). Beyond them:
     *   - an open bank in @p demand adds the instant its column
     *     command becomes legal: the later of its column-ready
     *     instant and the bus's readiness in that direction (the
     *     burst lead of tCL/tCWL, tRTRS on a rank switch, tWTR or
     *     tRTW);
     *   - a closed bank in @p demand adds the instant its ACT
     *     becomes legal: the later of its ACT-ready instant and its
     *     rank's tRRD/tFAW.
     * A rank inside its self-refresh lockout adds neither: its
     * lockout's end is a deadline.
     */
    Tick nextDeadline(Tick now, std::uint64_t demand, bool writes) const;

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
    /** First tick the data bus and the turnaround windows admit a
     *  read or a write to rank @p r: a column command is legal on the
     *  bus from then on, until the next one issues. */
    Tick busReadyAt(RankId r, bool write) const;

    /** This command's bit in openBanks_. */
    std::uint64_t
    bankBit(const Command &cmd) const
    {
        return std::uint64_t(1)
            << (cmd.rank * cfg_->org.banksPerRank + cmd.bank);
    }

    const MemConfig *cfg_;
    const TimingParams *timing_;
    std::vector<Rank> ranks_;
    std::uint64_t openBanks_ = 0;

    Tick busBusyUntil_ = 0;        ///< End of the last data burst.
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
