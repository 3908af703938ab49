#include "core/core.hh"

#include <algorithm>

#include "common/log.hh"

namespace dsarp {

Core::Core(CoreId id, const CoreConfig *cfg, TraceSource *trace)
    : id_(id), cfg_(cfg), trace_(trace),
      nextLoadId_((static_cast<std::uint64_t>(id) << 48) + 1)
{
}

void
Core::bind(SendRead send_read, SendWrite send_write)
{
    sendRead_ = std::move(send_read);
    sendWrite_ = std::move(send_write);
}

void
Core::onReadComplete(std::uint64_t id)
{
    completed_.insert(id);
    --outstanding_;
    DSARP_ASSERT(outstanding_ >= 0, "read completion underflow");
}

void
Core::resetStats()
{
    stats_ = CoreStats{};
}

void
Core::fetch()
{
    while (windowInstrs_ < cfg_->windowSize) {
        if (!havePending_) {
            pending_ = trace_->next();
            havePending_ = true;
            pendingGapLeft_ = pending_.gap;
            writebackSent_ = false;
        }

        if (pendingGapLeft_ > 0) {
            const int take =
                std::min(pendingGapLeft_, cfg_->windowSize - windowInstrs_);
            if (!window_.empty() && !window_.back().isLoad) {
                window_.back().instrs += take;
            } else {
                window_.push_back({false, 0, take});
            }
            windowInstrs_ += take;
            pendingGapLeft_ -= take;
            continue;
        }

        // The record's read. Its writeback (dirty eviction) goes out
        // first, fire-and-forget; a full write queue stalls fetch.
        if (pending_.hasWriteback && !writebackSent_) {
            if (!sendWrite_(pending_.writebackAddr))
                return;
            writebackSent_ = true;
            ++stats_.writebacksIssued;
        }
        if (outstanding_ >= cfg_->mshrs)
            return;
        // The id is taken only once the send is accepted: a refused
        // read leaves the core untouched, which tick()'s inert-cycle
        // fast path relies on.
        if (!sendRead_(nextLoadId_, pending_.readAddr))
            return;
        const std::uint64_t load_id = nextLoadId_++;
        ++outstanding_;
        ++stats_.readsIssued;
        window_.push_back({true, load_id, 1});
        windowInstrs_ += 1;
        havePending_ = false;
    }
}

void
Core::retire()
{
    int budget = cfg_->retireWidth;
    while (budget > 0 && !window_.empty()) {
        WindowEntry &head = window_.front();
        if (head.isLoad) {
            auto it = completed_.find(head.loadId);
            if (it == completed_.end()) {
                ++stats_.readStallCycles;
                return;  // Oldest instruction is a pending load: stall.
            }
            completed_.erase(it);
            window_.pop_front();
            windowInstrs_ -= 1;
            stats_.instructionsRetired += 1;
            budget -= 1;
        } else {
            const int take = std::min(budget, head.instrs);
            head.instrs -= take;
            windowInstrs_ -= take;
            stats_.instructionsRetired += take;
            budget -= take;
            if (head.instrs == 0)
                window_.pop_front();
        }
    }
}

Core::Mark
Core::mark() const
{
    return {stats_.instructionsRetired, stats_.readsIssued,
            stats_.writebacksIssued,    windowInstrs_,
            pendingGapLeft_,            havePending_,
            writebackSent_};
}

void
Core::streamStep(Tick ticks)
{
    DSARP_ASSERT(mode_ == TickMode::kStreaming && ticks <= streamTicks_,
                 "step exceeds streaming certificate");
    const std::uint64_t cpt =
        static_cast<std::uint64_t>(cfg_->cpuCyclesPerTick);
    const int drained = static_cast<int>(
        ticks * cpt * static_cast<std::uint64_t>(cfg_->retireWidth));
    stats_.cpuCycles += ticks * cpt;
    stats_.instructionsRetired += static_cast<std::uint64_t>(drained);
    pendingGapLeft_ -= drained;
    if (window_.size() > 1) {
        window_.front().instrs -= drained;
        window_.back().instrs += drained;
    }
    streamTicks_ -= ticks;
    // The span's last step is where a full tick() would re-certify.
    if (streamTicks_ == 0)
        mode_ = TickMode::kActive;
}

void
Core::tick()
{
    // Inside a certified gap-streaming span the tick is the linear
    // step skipTicks() replays: take it in O(1).
    if (mode_ == TickMode::kStreaming) {
        streamStep(1);
        return;
    }

    // Completions and queue slots only change between ticks, so once
    // one CPU cycle changes nothing but the stall/cycle counters, every
    // later cycle of this tick repeats it exactly: bulk-add them. A
    // refused send is such a cycle.
    const int cpt = cfg_->cpuCyclesPerTick;
    bool progress = false;
    for (int c = 0; c < cpt; ++c) {
        const Mark before = mark();
        const std::uint64_t stalls_before = stats_.readStallCycles;
        ++stats_.cpuCycles;
        retire();
        fetch();
        if (mark() == before) {
            const std::uint64_t rest = static_cast<std::uint64_t>(cpt - 1 - c);
            stats_.cpuCycles += rest;
            if (stats_.readStallCycles != stalls_before)
                stats_.readStallCycles += rest;
            break;
        }
        progress = true;
    }
    mode_ = progress ? TickMode::kActive : TickMode::kStalled;
    streamTicks_ = 0;

    // Gap-streaming certificate: with a full window whose head and
    // tail are non-load batches and a deep non-memory gap still
    // pending, every following tick retires exactly retireWidth x
    // cpuCyclesPerTick gap instructions from the head and refetches as
    // many at the tail -- pure linear motion with no memory traffic,
    // no trace advance and no stalls, so both the next ticks and the
    // event engine's skipTicks() take it as one streamStep(). The span
    // is cut one tick short of any boundary (head batch or pending gap
    // running low) so every step stays strictly in this regime.
    if (progress && windowInstrs_ == cfg_->windowSize && havePending_ &&
        !window_.empty() && !window_.front().isLoad &&
        !window_.back().isLoad) {
        const int rate = cfg_->retireWidth * cpt;
        std::int64_t span = pendingGapLeft_ / rate - 1;
        if (window_.size() > 1)
            span = std::min<std::int64_t>(
                span, window_.front().instrs / rate - 1);
        if (span > 0) {
            mode_ = TickMode::kStreaming;
            streamTicks_ = static_cast<Tick>(span);
        }
    }
}

Tick
Core::nextWake(Tick now) const
{
    switch (mode_) {
    case TickMode::kActive:
        return now;
    case TickMode::kStalled:
        return kTickNever;
    case TickMode::kStreaming:
        return now + streamTicks_ + 1;
    }
    return now;
}

void
Core::skipTicks(Tick ticks)
{
    if (mode_ == TickMode::kStreaming) {
        streamStep(ticks);
        return;
    }

    const std::uint64_t cycles =
        ticks * static_cast<std::uint64_t>(cfg_->cpuCyclesPerTick);
    stats_.cpuCycles += cycles;
    if (!window_.empty() && window_.front().isLoad &&
        completed_.find(window_.front().loadId) == completed_.end()) {
        stats_.readStallCycles += cycles;
    }
}

} // namespace dsarp
