/**
 * @file
 * Unit tests for the trace-driven core model: retire width, window
 * blocking on loads, MSHR limits, and write-queue backpressure; and
 * differential tests showing tick()'s fast paths (inert-cycle bulk
 * counting, the gap-streaming step, skipTicks() with early wakes) end
 * with the same stats as a cycle-by-cycle run.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/core.hh"

using namespace dsarp;

namespace {

/** Deterministic trace: fixed gap, sequential addresses. */
class FixedTrace : public TraceSource
{
  public:
    explicit FixedTrace(int gap, bool writeback = false)
        : gap_(gap), writeback_(writeback)
    {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.gap = gap_;
        rec.readAddr = nextAddr_;
        nextAddr_ += 64;
        rec.hasWriteback = writeback_;
        rec.writebackAddr = rec.readAddr + (1 << 20);
        return rec;
    }

  private:
    int gap_;
    bool writeback_;
    Addr nextAddr_ = 0;
};

class CoreHarness
{
  public:
    CoreHarness(TraceSource *trace, bool accept_reads = true,
                bool accept_writes = true, bool instant_complete = true)
        : core_(0, &cfg_, trace)
    {
        core_.bind(
            [this, accept_reads,
             instant_complete](std::uint64_t id, Addr) {
                if (!accept_reads)
                    return false;
                if (instant_complete)
                    toComplete_.push_back(id);
                else
                    pending_.push_back(id);
                return true;
            },
            [this, accept_writes](Addr) {
                if (!accept_writes)
                    return false;
                ++writes_;
                return true;
            });
    }

    /** One DRAM tick; completions issued last tick land first. */
    void
    tick()
    {
        for (std::uint64_t id : toComplete_)
            core_.onReadComplete(id);
        toComplete_.clear();
        core_.tick();
    }

    CoreConfig cfg_;
    Core core_;
    std::vector<std::uint64_t> toComplete_;
    std::vector<std::uint64_t> pending_;
    int writes_ = 0;
};

} // namespace

TEST(Core, RetireWidthBoundsIpc)
{
    FixedTrace trace(1000000);  // Essentially no memory operations.
    CoreHarness h(&trace);
    for (int i = 0; i < 1000; ++i)
        h.tick();
    const CoreStats &s = h.core_.stats();
    EXPECT_EQ(s.cpuCycles, 6000u);
    // 3-wide: IPC must be exactly at the width for a compute-only trace.
    EXPECT_NEAR(s.ipc(), 3.0, 0.01);
}

TEST(Core, WindowBlocksOnOutstandingLoad)
{
    FixedTrace trace(0);  // Every instruction is a load.
    CoreHarness h(&trace, true, true, /*instant_complete=*/false);
    for (int i = 0; i < 100; ++i)
        h.tick();
    const CoreStats &s = h.core_.stats();
    // No load ever completes: nothing can retire past the first one.
    EXPECT_EQ(s.instructionsRetired, 0u);
    EXPECT_GT(s.readStallCycles, 0u);
}

TEST(Core, MshrLimitCapsOutstandingReads)
{
    FixedTrace trace(0);
    CoreHarness h(&trace, true, true, /*instant_complete=*/false);
    for (int i = 0; i < 100; ++i)
        h.tick();
    EXPECT_EQ(h.core_.outstandingReads(), h.cfg_.mshrs);
    EXPECT_EQ(h.core_.stats().readsIssued,
              static_cast<std::uint64_t>(h.cfg_.mshrs));
}

TEST(Core, CompletionsUnblockRetirement)
{
    FixedTrace trace(10);
    CoreHarness h(&trace);  // Instant completion.
    for (int i = 0; i < 500; ++i)
        h.tick();
    const CoreStats &s = h.core_.stats();
    EXPECT_GT(s.instructionsRetired, 1000u);
    EXPECT_GT(s.readsIssued, 50u);
    // Only the loads issued during the last tick can still be in flight.
    EXPECT_LE(h.core_.outstandingReads(), h.cfg_.mshrs);
}

TEST(Core, RejectedReadsRetryWithoutLoss)
{
    FixedTrace trace(5);
    CoreHarness h(&trace, /*accept_reads=*/false);
    for (int i = 0; i < 50; ++i)
        h.tick();
    EXPECT_EQ(h.core_.stats().readsIssued, 0u);
    // The window fills with the gap instructions and retires them.
    EXPECT_GT(h.core_.stats().instructionsRetired, 0u);
}

TEST(Core, WritebacksGoOutBeforeTheRead)
{
    FixedTrace trace(5, /*writeback=*/true);
    CoreHarness h(&trace);
    for (int i = 0; i < 200; ++i)
        h.tick();
    EXPECT_EQ(h.core_.stats().writebacksIssued,
              static_cast<std::uint64_t>(h.writes_));
    EXPECT_GE(h.writes_, 1);
    // One writeback per read record.
    EXPECT_EQ(h.core_.stats().writebacksIssued,
              h.core_.stats().readsIssued);
}

TEST(Core, FullWriteQueueStallsFetchNotRetire)
{
    FixedTrace trace(5, /*writeback=*/true);
    CoreHarness h(&trace, true, /*accept_writes=*/false);
    for (int i = 0; i < 100; ++i)
        h.tick();
    // No read can issue because its writeback cannot drain...
    EXPECT_EQ(h.core_.stats().readsIssued, 0u);
    // ...but the already-fetched gap instructions retire fine.
    EXPECT_GT(h.core_.stats().instructionsRetired, 0u);
}

TEST(Core, ResetStatsPreservesProgress)
{
    FixedTrace trace(10);
    CoreHarness h(&trace);
    for (int i = 0; i < 100; ++i)
        h.tick();
    h.core_.resetStats();
    EXPECT_EQ(h.core_.stats().instructionsRetired, 0u);
    EXPECT_EQ(h.core_.stats().cpuCycles, 0u);
    for (int i = 0; i < 100; ++i)
        h.tick();
    EXPECT_GT(h.core_.stats().instructionsRetired, 0u);
}

TEST(Core, IpcScalesWithMemoryLatencyPressure)
{
    // A memory-light trace must out-IPC a memory-heavy one when loads
    // never complete quickly; with instant completion both do well.
    FixedTrace light(500);
    FixedTrace heavy(5);
    CoreHarness hl(&light);
    CoreHarness hh(&heavy);
    for (int i = 0; i < 500; ++i) {
        hl.tick();
        hh.tick();
    }
    EXPECT_GT(hl.core_.stats().ipc(), 2.5);
    EXPECT_GT(hh.core_.stats().ipc(), 1.0);
}

// ---------------------------------------------------------------------
// Differential tests for Core::tick()'s fast paths.
// ---------------------------------------------------------------------

namespace {

constexpr int kSubCycles = 6;  ///< CPU cycles per DRAM tick below.

/** Seeded trace: gaps uniform in [minGap, maxGap]; each read carries a
 *  writeback with probability @p writebackPct percent. */
class RandomTrace : public TraceSource
{
  public:
    RandomTrace(std::uint64_t seed, int min_gap, int max_gap,
                int writeback_pct)
        : rng_(seed), minGap_(min_gap), maxGap_(max_gap),
          writebackPct_(writeback_pct)
    {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.gap = minGap_ + static_cast<int>(rng_.below(
                                static_cast<std::uint64_t>(
                                    maxGap_ - minGap_ + 1)));
        rec.readAddr = nextAddr_;
        nextAddr_ += 64;
        rec.hasWriteback = static_cast<int>(rng_.below(100)) <
            writebackPct_;
        rec.writebackAddr = rec.readAddr + (1 << 20);
        return rec;
    }

  private:
    Rng rng_;
    int minGap_;
    int maxGap_;
    int writebackPct_;
    Addr nextAddr_ = 0;
};

/** Shape of a ScriptedMemory. */
struct MemoryScript
{
    int readSlots = 64;   ///< Reads in flight before refusing.
    Tick latency = 40;    ///< Acceptance tick to completion.
    int writeSlots = 64;  ///< Queued writes before refusing.
    Tick drainEvery = 4;  ///< One queued write leaves per this many ticks.
};

/**
 * A memory whose state moves only at DRAM-tick boundaries, apart from
 * the core's own accepted sends: completions and accept/refuse
 * decisions are the same for every CPU cycle of one tick.
 */
class ScriptedMemory
{
  public:
    explicit ScriptedMemory(const MemoryScript &script) : script_(script) {}

    void
    bind(Core &core)
    {
        core.bind(
            [this](std::uint64_t id, Addr) {
                if (static_cast<int>(inFlight_.size()) >=
                    script_.readSlots) {
                    ++refusedReads;
                    return false;
                }
                inFlight_.push_back({now_ + script_.latency, id});
                acceptedIds.push_back(id);
                return true;
            },
            [this](Addr) {
                if (queuedWrites_ >= script_.writeSlots) {
                    ++refusedWrites;
                    return false;
                }
                ++queuedWrites_;
                return true;
            });
    }

    /**
     * Open DRAM tick @p t: drain a write when due and return the reads
     * completing now. @p changed reports whether anything moved.
     */
    std::vector<std::uint64_t>
    beginTick(Tick t, bool &changed)
    {
        now_ = t;
        changed = false;
        if (queuedWrites_ > 0 && t % script_.drainEvery == 0) {
            --queuedWrites_;
            changed = true;
        }
        std::vector<std::uint64_t> done;
        while (!inFlight_.empty() && inFlight_.front().first <= t) {
            done.push_back(inFlight_.front().second);
            inFlight_.pop_front();
        }
        changed |= !done.empty();
        return done;
    }

    std::vector<std::uint64_t> acceptedIds;
    std::uint64_t refusedReads = 0;
    std::uint64_t refusedWrites = 0;

  private:
    MemoryScript script_;
    Tick now_ = 0;
    std::deque<std::pair<Tick, std::uint64_t>> inFlight_;
    int queuedWrites_ = 0;
};

/** One core on its own trace and memory. The core holds pointers to
 *  the other members, so a lane never moves. */
struct Lane
{
    Lane(int cpu_cycles_per_tick, std::uint64_t seed, int min_gap,
         int max_gap, int writeback_pct, const MemoryScript &script)
        : trace(seed, min_gap, max_gap, writeback_pct), memory(script),
          core(0, &cfg, &trace)
    {
        cfg.cpuCyclesPerTick = cpu_cycles_per_tick;
        memory.bind(core);
    }
    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    CoreConfig cfg;
    RandomTrace trace;
    ScriptedMemory memory;
    Core core;
};

/** What the reference lane of runThreeWays() went through. */
struct PathUse
{
    CoreStats stats;
    std::uint64_t refusedReads = 0;
    std::uint64_t refusedWrites = 0;
    int stalledTicks = 0;    ///< nextWake() certified a stall.
    int streamingTicks = 0;  ///< nextWake() certified a linear span.
};

void
expectSameRun(const Lane &want, const Lane &got, const char *what)
{
    const CoreStats &a = want.core.stats();
    const CoreStats &b = got.core.stats();
    EXPECT_EQ(a.cpuCycles, b.cpuCycles) << what;
    EXPECT_EQ(a.instructionsRetired, b.instructionsRetired) << what;
    EXPECT_EQ(a.readsIssued, b.readsIssued) << what;
    EXPECT_EQ(a.writebacksIssued, b.writebacksIssued) << what;
    EXPECT_EQ(a.readStallCycles, b.readStallCycles) << what;
    EXPECT_EQ(want.memory.acceptedIds, got.memory.acceptedIds) << what;
}

/**
 * Drive one trace three ways for @p ticks DRAM ticks: (a) one tick of
 * kSubCycles CPU cycles per DRAM tick, (b) kSubCycles one-cycle ticks
 * per DRAM tick, (c) like (a) but event-engine style -- tick only at
 * nextWake() or when the memory moved, skipTicks() in between. All
 * three must end identical; what (a) went through is returned.
 */
PathUse
runThreeWays(int min_gap, int max_gap, int writeback_pct,
             const MemoryScript &script, Tick ticks)
{
    const std::uint64_t seed = 11;
    Lane whole(kSubCycles, seed, min_gap, max_gap, writeback_pct, script);
    Lane split(1, seed, min_gap, max_gap, writeback_pct, script);
    Lane sparse(kSubCycles, seed, min_gap, max_gap, writeback_pct, script);
    PathUse use;
    Tick sparse_next = 0;
    Tick sparse_wake = 0;
    for (Tick t = 0; t < ticks; ++t) {
        bool changed = false;
        for (std::uint64_t id : whole.memory.beginTick(t, changed))
            whole.core.onReadComplete(id);
        whole.core.tick();
        const Tick w = whole.core.nextWake(t);
        use.stalledTicks += w == kTickNever;
        use.streamingTicks += w != kTickNever && w > t + 1;

        for (std::uint64_t id : split.memory.beginTick(t, changed))
            split.core.onReadComplete(id);
        for (int c = 0; c < kSubCycles; ++c)
            split.core.tick();

        const std::vector<std::uint64_t> done =
            sparse.memory.beginTick(t, changed);
        if (!changed && t < sparse_wake)
            continue;
        // Settle the skipped span before the delivery, as the System's
        // read callback does.
        if (sparse_next < t)
            sparse.core.skipTicks(t - sparse_next);
        for (std::uint64_t id : done)
            sparse.core.onReadComplete(id);
        sparse.core.tick();
        sparse_next = t + 1;
        const Tick sw = sparse.core.nextWake(t);
        sparse_wake = sw <= t ? t + 1 : sw;
    }
    if (sparse_next < ticks)
        sparse.core.skipTicks(ticks - sparse_next);

    expectSameRun(whole, split, "one-cycle ticks");
    expectSameRun(whole, sparse, "event-style ticks");
    // Ids are taken only by accepted reads, so they run gap-free.
    for (std::size_t i = 0; i < whole.memory.acceptedIds.size(); ++i)
        EXPECT_EQ(whole.memory.acceptedIds[i], i + 1);
    use.stats = whole.core.stats();
    use.refusedReads = whole.memory.refusedReads;
    use.refusedWrites = whole.memory.refusedWrites;
    return use;
}

} // namespace

TEST(CoreFastPath, StallHeavyMatchesCycleByCycle)
{
    MemoryScript script;
    script.latency = 60;
    const PathUse run = runThreeWays(0, 4, 0, script, 4000);
    EXPECT_GT(run.stats.readStallCycles * 2, run.stats.cpuCycles);
    EXPECT_GT(run.stalledTicks, 1000);
}

TEST(CoreFastPath, GapStreamingMatchesCycleByCycle)
{
    MemoryScript script;
    script.latency = 40;
    const PathUse run = runThreeWays(300, 3000, 0, script, 4000);
    EXPECT_GT(run.streamingTicks, 2000);
    EXPECT_GT(run.stats.readsIssued, 10u);
}

TEST(CoreFastPath, RefusedReadsMatchCycleByCycle)
{
    MemoryScript script;
    script.readSlots = 2;
    script.latency = 30;
    const PathUse run = runThreeWays(0, 20, 0, script, 4000);
    EXPECT_GT(run.refusedReads, 100u);
    EXPECT_GT(run.stats.readsIssued, 100u);
}

TEST(CoreFastPath, FullWriteQueueMatchesCycleByCycle)
{
    MemoryScript script;
    script.latency = 20;
    script.writeSlots = 2;
    script.drainEvery = 15;
    const PathUse run = runThreeWays(0, 20, 100, script, 4000);
    EXPECT_GT(run.refusedWrites, 100u);
    EXPECT_GT(run.stats.writebacksIssued, 100u);
}
