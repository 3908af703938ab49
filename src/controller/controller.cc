#include "controller/controller.hh"

#include <bit>

#include "common/log.hh"
#include "refresh/registry.hh"

namespace dsarp {

namespace {

/** Fold one issued command into a command-stream digest. */
std::uint64_t
foldCommand(std::uint64_t digest, Tick tick, const Command &cmd)
{
    const std::uint64_t target = static_cast<std::uint64_t>(cmd.type) |
        static_cast<std::uint64_t>(cmd.rank) << 8 |
        static_cast<std::uint64_t>(cmd.bank) << 16 |
        static_cast<std::uint64_t>(cmd.hidden) << 24;
    digest = mix64(digest ^ tick);
    digest = mix64(digest ^ target);
    return mix64(digest ^ static_cast<std::uint64_t>(cmd.row));
}

} // namespace

ChannelController::ChannelController(ChannelId id, const MemConfig *cfg,
                                     const TimingParams *timing,
                                     std::uint64_t seed)
    : id_(id), cfg_(cfg), channel_(cfg, timing),
      rng_(seed ^ (0x5851f42d4c957f2dULL * (id + 1))),
      readQ_(cfg->readQueueSize, cfg->org.ranksPerChannel,
             cfg->org.banksPerRank),
      writeQ_(cfg->writeQueueSize, cfg->org.ranksPerChannel,
              cfg->org.banksPerRank),
      writeDrain_(cfg->writeHighWatermark, cfg->writeLowWatermark)
{
    refreshSched_ =
        RefreshPolicyRegistry::instance().make(*cfg, *timing, *this);
    lastDemandActivity_.assign(cfg->org.ranksPerChannel, 0);
    pendingReads_.reserve(cfg->readQueueSize);
    urgentScratch_.reserve(8);
}

bool
ChannelController::enqueueRead(const Request &req, Tick now)
{
    // Forward from the write queue when a not-yet-drained write to the
    // same line exists (the controller holds the freshest data). The
    // completion is delivered on the next tick, never synchronously.
    if (writeQ_.findAddr(req.addr, req.loc.rank, req.loc.bank) >= 0) {
        ++stats_.forwardedReads;
        pendingReads_.push_back({now + 1, req});
        enqueuedSinceTick_ = true;
        return true;
    }
    if (!readQ_.push(req)) {
        // The core retries every tick; the event engine re-wakes it
        // when a pop frees a slot (see consumePoppedWithRejection).
        sendRejected_ = true;
        return false;
    }
    ++stats_.readsEnqueued;
    lastDemandActivity_[req.loc.rank] = now;
    enqueuedSinceTick_ = true;
    return true;
}

bool
ChannelController::enqueueWrite(const Request &req, Tick now)
{
    if (!writeQ_.push(req)) {
        sendRejected_ = true;
        return false;
    }
    ++stats_.writesEnqueued;
    lastDemandActivity_[req.loc.rank] = now;
    enqueuedSinceTick_ = true;
    return true;
}

int
ChannelController::pendingDemands(RankId r, BankId b) const
{
    return readQ_.bankCount(r, b) + writeQ_.bankCount(r, b);
}

Tick
ChannelController::lastDemandActivity(RankId r) const
{
    return lastDemandActivity_[r];
}

bool
ChannelController::srDemandPending(RankId r) const
{
    // Reads are latency-critical: any queued read wakes (or keeps
    // awake) the rank. Writes sit in the queue until the drain
    // watermark fires, so below it they neither block self-refresh
    // entry nor wake a sleeping rank -- once writeback mode starts,
    // the batch needs the DRAM and the rank must be up.
    const std::uint64_t rank_bits = channel_.rankBankBits(r);
    if (readQ_.busyBanks() & rank_bits)
        return true;
    return writeDrain_.active() && (writeQ_.busyBanks() & rank_bits);
}

void
ChannelController::resetStats()
{
    stats_ = ControllerStats{};
    channel_.resetStats();
    refreshSched_->resetStats();
}

std::uint64_t
ChannelController::refreshBanks(const Command &cmd) const
{
    return channel_.rank(cmd.rank).refreshBanks(cmd.type, cmd.bank)
        << (cmd.rank * cfg_->org.banksPerRank);
}

Tick
ChannelController::issue(const Command &cmd, Tick now)
{
    const Tick data_tick = channel_.issue(cmd, now);
    issuedThisTick_ = true;
    stats_.cmdDigest = foldCommand(stats_.cmdDigest, now, cmd);
    if (cmdLog_)
        cmdLog_->push_back({now, cmd});
    return data_tick;
}

bool
ChannelController::tryIssue(const Command &cmd, Tick now)
{
    if (!channel_.canIssue(cmd, now))
        return false;
    issue(cmd, now);
    return true;
}

void
ChannelController::serveDemand(RequestQueue &queue, const CmdChoice &choice,
                               Tick now)
{
    const Tick data_tick = issue(choice.cmd, now);
    lastDemandActivity_[choice.cmd.rank] = now;
    refreshSched_->onDemandCommand(choice.cmd, now);

    if (!isColumnCmd(choice.cmd.type))
        return;  // ACT: the request stays queued for its column command.

    if (sendRejected_) {
        // A queue slot frees while some core sits in fetch-retry:
        // that core's stalled certificate is void from here on.
        poppedWithRejection_ = true;
        sendRejected_ = false;
    }
    Request req = queue.pop(choice.queueIndex);
    if (req.isWrite) {
        ++stats_.writesIssued;
    } else {
        pendingReads_.push_back({data_tick, req});
    }
}

void
ChannelController::arbitrate(Tick now)
{
    // 0. Self-refresh exit: a rank in self-refresh with demand that
    //    needs the DRAM must wake up. SRX is legal once the minimum
    //    residency tCKESR has elapsed; the first command after it then
    //    waits out tXS, so the latency cost of sleeping is paid by the
    //    demand stream (no free lunch).
    for (RankId r = 0; r < channel_.numRanks(); ++r) {
        if (!channel_.rank(r).inSelfRefresh(now))
            continue;
        if (!srDemandPending(r))
            continue;
        Command srx;
        srx.type = CommandType::kSrExit;
        srx.rank = r;
        if (tryIssue(srx, now)) {
            refreshSched_->onSrExit(r, now);
            return;
        }
    }

    urgentScratch_.clear();
    refreshSched_->urgent(now, urgentScratch_);

    // Mark targets of blocking refreshes so FR-FCFS stops opening rows
    // there and the bank/rank drains: one bit per bank, as in
    // Channel::openBanks().
    std::uint64_t act_blocked = 0;
    for (const RefreshRequest &req : urgentScratch_) {
        if (req.blocking)
            act_blocked |= refreshBanks(req.cmd);
    }

    // 1. Urgent refreshes, in policy priority order.
    for (const RefreshRequest &req : urgentScratch_) {
        if (tryIssue(req.cmd, now)) {
            refreshSched_->onIssued(req, now);
            return;
        }
    }

    // 2. Demand commands: writes during writeback mode, reads otherwise.
    //    Skipped wholesale while the frozen-pick certificate holds (see
    //    pickSkipUntil_): this tick was reached by a wake that cannot
    //    change the pick's "nothing issuable" answer. The policy wake
    //    and the idle-entry thresholds bound the certificate, so that
    //    is a read delivery or the first tick of a System::run() call.
    //    On DDR5-4800 sub-channels idling with self-refresh, 6345 of
    //    6369 skipped picks under REFab and 7256 of 7280 under DSARP
    //    fell on read deliveries, the rest on a run() call's first tick.
    if (now >= pickSkipUntil_) {
        RequestQueue &queue = writeDrain_.active() ? writeQ_ : readQ_;
        CmdChoice choice = FrFcfs::pick(queue, channel_, now, act_blocked,
                                        cfg_->org.banksPerRank);
        if (choice.valid) {
            serveDemand(queue, choice, now);
            return;
        }

        // 3. Precharge assist: a blocking refresh target still has a
        //    row open (e.g. read row hits stranded by writeback mode);
        //    close it. Under the certificate its answer is frozen too:
        //    the urgent set, every open row, and PRE legality are all
        //    unchanged since it last found nothing.
        const int banks_per_rank = cfg_->org.banksPerRank;
        for (const RefreshRequest &req : urgentScratch_) {
            if (!req.blocking)
                continue;
            const Command &ref = req.cmd;
            for (std::uint64_t open = refreshBanks(ref) & channel_.openBanks();
                 open; open &= open - 1) {
                Command pre;
                pre.type = CommandType::kPre;
                pre.rank = ref.rank;
                pre.bank = std::countr_zero(open) - ref.rank * banks_per_rank;
                if (tryIssue(pre, now))
                    return;
            }
        }
    }

    // 4. Self-refresh entry: no urgent refresh or demand wanted the
    //    bus this tick. A rank that has seen no demand for the
    //    idle-entry threshold, has none queued, and is fully quiesced
    //    enters self-refresh; its refresh ledger pauses (the device
    //    retires owed slots at the internal rate) until demand wakes
    //    it. Deliberately ahead of the opportunistic pull-in: for a
    //    rank idle enough to sleep, the device's internal refresh
    //    covers the same obligations a pull-in would, at IDD6 instead
    //    of a command -- and a pull-in issued every idle tick would
    //    otherwise starve entry forever.
    if (cfg_->srIdleEntryCycles > 0) {
        for (RankId r = 0; r < channel_.numRanks(); ++r) {
            if (channel_.rank(r).inSelfRefresh(now))
                continue;
            if (srDemandPending(r))
                continue;
            if (now - lastDemandActivity_[r] <
                static_cast<Tick>(cfg_->srIdleEntryCycles)) {
                continue;
            }
            Command sre;
            sre.type = CommandType::kSrEnter;
            sre.rank = r;
            if (tryIssue(sre, now)) {
                refreshSched_->onSrEnter(r, now);
                return;
            }
        }
    }

    // 5. Opportunistic refresh (DARP's idle-bank pull-in). Measure the
    //    probe's RNG appetite: an inert tick reaches this point, so the
    //    event engine replays exactly these draws per skipped tick.
    RefreshRequest opp;
    const std::uint64_t draws_before = rng_.draws();
    const bool opp_wanted = refreshSched_->opportunistic(now, opp);
    oppDraws_ = rng_.draws() - draws_before;
    if (opp_wanted) {
        if (tryIssue(opp.cmd, now)) {
            refreshSched_->onIssued(opp, now);
            return;
        }
    }
}

void
ChannelController::tick(Tick now)
{
    ++stats_.ticks;
    if (issuedThisTick_ || enqueuedSinceTick_) {
        deadlineCacheValid_ = false;
        pickSkipUntil_ = 0;
    }
    issuedThisTick_ = false;
    enqueuedSinceTick_ = false;

    refreshSched_->tick(now);
    writeDrain_.update(writeQ_.size());
    if (writeDrain_.active())
        ++stats_.writebackModeTicks;

    // Deliver read data that has arrived.
    for (std::size_t i = 0; i < pendingReads_.size();) {
        if (pendingReads_[i].done <= now) {
            const PendingRead pr = pendingReads_[i];
            pendingReads_[i] = pendingReads_.back();
            pendingReads_.pop_back();
            ++stats_.readsCompleted;
            stats_.readLatencySum += pr.done - pr.req.arrival;
            stats_.readLatency.add(pr.done - pr.req.arrival);
            if (readCallback_)
                readCallback_(pr.req, pr.done);
        } else {
            ++i;
        }
    }

    arbitrate(now);

    stats_.readQueueOccupancySum += readQ_.size();
    stats_.writeQueueOccupancySum += writeQ_.size();
    channel_.sampleActivity(now);
}

Tick
ChannelController::nextWake(Tick now)
{
    // A tick that issued a command, or fresh work enqueued by a core
    // after this controller ticked, may enable another command on the
    // very next tick: step (tick() then drops the cache and the pick
    // certificate below).
    if (issuedThisTick_ || enqueuedSinceTick_)
        return now;

    // The issuability deadline depends on the DRAM state, the served
    // queue's banks and direction, and the idle clocks. Each moves
    // only at an issue or an enqueue (the write drain switches only at
    // the tick after one), so an inert controller re-enumerates only
    // once the cached minimum has passed. Read deliveries and the
    // refresh scheduler are outside the cache: neither changes what a
    // command's legality depends on.
    if (!deadlineCacheValid_ || cachedDeadline_ <= now) {
        const bool writes = writeDrain_.active();
        Tick issu = channel_.nextDeadline(
            now, (writes ? writeQ_ : readQ_).busyBanks(), writes);
        // Self-refresh idle-entry thresholds (arbitrate step 4) of the
        // ranks that are awake: a rank in self-refresh leaves it only
        // by an issued SRX.
        if (cfg_->srIdleEntryCycles > 0) {
            for (RankId r = 0; r < channel_.numRanks(); ++r) {
                const Tick t = lastDemandActivity_[r] +
                    static_cast<Tick>(cfg_->srIdleEntryCycles);
                if (t > now && t < issu &&
                    !channel_.rank(r).inSelfRefresh(now)) {
                    issu = t;
                }
            }
        }
        cachedDeadline_ = issu;
        deadlineCacheValid_ = true;
    }
    // This tick was inert and everything the demand pick (and the
    // precharge assist behind it) reads is frozen until the
    // issuability deadline (idle-entry thresholds included) or the
    // policy's next state change, whichever is first. Only a read
    // delivery, or the first tick of a System::run() call, wakes the
    // controller before then, and that tick may skip the FR-FCFS scan.
    Tick wake = cachedDeadline_;
    const Tick sched = refreshSched_->nextWake(now);
    DSARP_ASSERT(sched > now, "refresh policy wake not after the current "
                              "tick (RefreshScheduler::nextWake)");
    if (sched < wake)
        wake = sched;
    pickSkipUntil_ = wake;
    for (const PendingRead &pr : pendingReads_) {
        if (pr.done > now && pr.done < wake)
            wake = pr.done;
    }
    return wake;
}

void
ChannelController::skipTicks(Tick firstTick, Tick ticks)
{
    // Replay the linear per-tick effects of an inert tick() across the
    // span [firstTick, firstTick + ticks). Queue sizes, drain state,
    // and every DRAM predicate are frozen: nothing issued, nothing was
    // enqueued, and the engine wakes at every timing threshold.
    stats_.ticks += ticks;
    if (writeDrain_.active())
        stats_.writebackModeTicks += ticks;
    stats_.readQueueOccupancySum +=
        ticks * static_cast<std::uint64_t>(readQ_.size());
    stats_.writeQueueOccupancySum +=
        ticks * static_cast<std::uint64_t>(writeQ_.size());
    rng_.discard(oppDraws_ * ticks);
    refreshSched_->skipTicks(firstTick, ticks);
    channel_.sampleActivitySpan(firstTick, ticks);
}

} // namespace dsarp
