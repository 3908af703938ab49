#include "refresh/elastic.hh"

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(elastic, {
    "Elastic", "elastic refresh [Stuecheli+, MICRO'10]: postpone while "
               "the rank is busy",
    [](MemConfig &m) { m.refresh = RefreshMode::kElastic; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<ElasticScheduler>(&c, &t, &v);
    }})

ElasticScheduler::ElasticScheduler(const MemConfig *cfg,
                                   const TimingParams *timing,
                                   ControllerView *view)
    : RefreshScheduler(cfg, timing, view),
      // Same rank phasing as the REFab baseline.
      ledger_(cfg->org.ranksPerChannel, 1, timing->tRefiAb,
              timing->tRefiAb /
                  (cfg->refabStaggerDivisor * cfg->org.ranksPerChannel),
              Cycles(), 8, channelPhase())
{
    // The most patient threshold: wait for an idle gap about as long as
    // the average rank idle period that would hide a refresh.
    maxIdleDelay_ = static_cast<Tick>((timing->tRfcAb / 2).count());
}

Tick
ElasticScheduler::idleThreshold(int owed) const
{
    if (owed <= 0)
        return maxIdleDelay_;
    const int slack = ledger_.maxSlack();
    if (owed >= slack)
        return 0;
    // Linear decay: more postponed refreshes -> less patience.
    return maxIdleDelay_ * static_cast<Tick>(slack - owed) / slack;
}

void
ElasticScheduler::tick(Tick now)
{
    ledger_.advanceTo(now);
}

void
ElasticScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // The device refreshes itself; ledger paused.
        if (!ledger_.due(r))
            continue;
        if (ledger_.mustForce(r)) {
            RefreshRequest req;
            req.allBank = true;
            req.rank = r;
            req.blocking = true;
            out.push_back(req);
            ++stats_.forced;
            continue;
        }
        // Release early if the rank has no demand and has been idle long
        // enough for the current elasticity level.
        if (view_->pendingDemandsRank(r) == 0) {
            const Tick idle_for = now - view_->lastDemandActivity(r);
            if (idle_for >= idleThreshold(ledger_.owed(r))) {
                RefreshRequest req;
                req.allBank = true;
                req.rank = r;
                req.blocking = true;
                out.push_back(req);
            }
        }
    }
}

Tick
ElasticScheduler::nextWake(Tick now)
{
    Tick wake = ledger_.nextAccrualTick();
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now) || !ledger_.due(r) ||
            ledger_.mustForce(r)) {
            continue;
        }
        if (view_->pendingDemandsRank(r) != 0)
            continue;  // Next demand dequeue is a command, hence a wake.
        const Tick release =
            view_->lastDemandActivity(r) + idleThreshold(ledger_.owed(r));
        if (release > now && release < wake)
            wake = release;
    }
    return wake;
}

void
ElasticScheduler::skipTicks(Tick firstTick, Tick ticks)
{
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (!rankInSelfRefresh(r, firstTick) && ledger_.due(r) &&
            ledger_.mustForce(r)) {
            stats_.forced += ticks;
        }
    }
}

bool
ElasticScheduler::opportunistic(Tick, RefreshRequest &)
{
    // Elastic refresh never pulls in refreshes ahead of schedule
    // (Section 6.1.1 calls this out as a shortcoming).
    return false;
}

void
ElasticScheduler::onIssued(const RefreshRequest &req, Tick)
{
    if (ledger_.owed(req.rank) > 1)
        ++stats_.postponed;
    ledger_.onRefresh(req.rank);
    ++stats_.issued;
}

void
ElasticScheduler::onSrEnter(RankId rank, Tick now)
{
    ledger_.pauseRank(rank, now);
}

void
ElasticScheduler::onSrExit(RankId rank, Tick now)
{
    ledger_.resumeRank(rank, now);
}

} // namespace dsarp
