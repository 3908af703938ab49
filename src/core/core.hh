/**
 * @file
 * Trace-driven core model (paper Table 1): 4 GHz, 3-wide retire,
 * 128-entry instruction window, 8 MSHRs.
 *
 * The window retires up to retireWidth instructions per CPU cycle in
 * order; a read at the window head blocks retirement until its data
 * returns (reads are latency-critical). Writebacks are fire-and-forget
 * into the memory controller's write queue (DRAM writes are not
 * latency-critical, Section 4.2.2) -- the core only stalls on them when
 * the write queue is full.
 */

#ifndef DSARP_CORE_CORE_HH
#define DSARP_CORE_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>

#include "common/config.hh"
#include "common/types.hh"
#include "core/trace.hh"

namespace dsarp {

struct CoreStats
{
    std::uint64_t instructionsRetired = 0;
    std::uint64_t cpuCycles = 0;
    std::uint64_t readsIssued = 0;
    std::uint64_t writebacksIssued = 0;
    std::uint64_t readStallCycles = 0;  ///< Retire blocked on a load.

    double
    ipc() const
    {
        return cpuCycles
            ? static_cast<double>(instructionsRetired) / cpuCycles
            : 0.0;
    }
};

class Core
{
  public:
    /** Returns false when the memory system cannot accept the request. */
    using SendRead = std::function<bool(std::uint64_t id, Addr addr)>;
    using SendWrite = std::function<bool(Addr addr)>;

    Core(CoreId id, const CoreConfig *cfg, TraceSource *trace);

    void bind(SendRead sendRead, SendWrite sendWrite);

    /**
     * Advance cpuCyclesPerTick CPU cycles. Inert work is cheap: inside
     * a certified gap-streaming span the tick is one linear step, and
     * once a cycle changes nothing the tick's remaining cycles are
     * bulk-counted. Both are exact, so every counter matches a
     * cycle-by-cycle loop.
     */
    void tick();

    /**
     * Earliest tick strictly after @p now at which this core could do
     * more than linearly replayable work. A fully blocked core
     * (pending-load head or stalled fetch) waits on controller-side
     * events, which only fire at controller wakes -- where the core
     * ticks again. A core streaming non-memory gap instructions at the
     * fixed retire rate certifies the whole linear span (see tick()).
     * Any other progress forces the one-tick step.
     */
    Tick nextWake(Tick now) const;

    /**
     * Account @p ticks skipped ticks for the event-driven engine,
     * replaying exactly what the certified-inert (or certified-linear)
     * ticks would have done: a blocked core advances the cycle counter
     * and, iff the window head is a pending load, the read-stall
     * counter; a gap-streaming core additionally retires and refills
     * retireWidth x cpuCyclesPerTick instructions per tick, and counts
     * its certified span down so an earlier wake resumes it exactly.
     */
    void skipTicks(Tick ticks);

    /** Read data for request @p id has returned. */
    void onReadComplete(std::uint64_t id);

    /** Zero the measurement counters (state is preserved). */
    void resetStats();

    CoreId id() const { return id_; }
    const CoreStats &stats() const { return stats_; }
    int outstandingReads() const { return outstanding_; }

  private:
    void fetch();
    void retire();

    /** Everything one CPU cycle can move besides the stall and cycle
     *  counters: equal marks around a cycle mean it was inert. */
    struct Mark
    {
        std::uint64_t retired, reads, writebacks;
        int windowInstrs, gapLeft;
        bool havePending, writebackSent;

        bool operator==(const Mark &) const = default;
    };
    Mark mark() const;

    /** Take @p ticks ticks of the certified gap-streaming span. */
    void streamStep(Tick ticks);

    struct WindowEntry
    {
        bool isLoad = false;
        std::uint64_t loadId = 0;
        int instrs = 0;  ///< For non-load batches.
    };

    CoreId id_;
    const CoreConfig *cfg_;
    TraceSource *trace_;
    SendRead sendRead_;
    SendWrite sendWrite_;

    std::deque<WindowEntry> window_;
    int windowInstrs_ = 0;
    int outstanding_ = 0;
    std::unordered_set<std::uint64_t> completed_;

    TraceRecord pending_;
    bool havePending_ = false;
    int pendingGapLeft_ = 0;
    bool writebackSent_ = false;

    std::uint64_t nextLoadId_;
    CoreStats stats_;

    /** How the last tick() ended, deciding nextWake()/skipTicks(). */
    enum class TickMode
    {
        kActive,     ///< Non-linear progress: step one tick.
        kStalled,    ///< Blocked: only stall/cycle counters move.
        kStreaming,  ///< Draining gap instrs at the fixed retire rate.
    };
    TickMode mode_ = TickMode::kActive;
    /** Ticks left in the certified linear span; > 0 in kStreaming. */
    Tick streamTicks_ = 0;
};

} // namespace dsarp

#endif // DSARP_CORE_CORE_HH
