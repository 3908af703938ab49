#include "refresh/elastic.hh"

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(elastic, {
    "Elastic", "elastic refresh [Stuecheli+, MICRO'10]: postpone while "
               "the rank is busy",
    nullptr,  // All-bank timing: the tags resolve() resets to.
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<ElasticScheduler>(&c, &t, &v);
    }})

ElasticScheduler::ElasticScheduler(const MemConfig *cfg,
                                   const TimingParams *timing,
                                   ControllerView *view)
    // Same rank phasing as the REFab baseline.
    : LedgerScheduler(cfg, timing, view, 1, timing->tRefiAb,
                      timing->tRefiAb / (cfg->refabStaggerDivisor *
                                         cfg->org.ranksPerChannel),
                      Cycles())
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
ElasticScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // The device refreshes itself; ledger paused.
        if (!ledger_.due(r))
            continue;
        // Forced at the postpone limit; below it, released early once
        // the rank has no demand and has been idle long enough for the
        // current elasticity level.
        if (!ledger_.mustForce(r) &&
            ((view_->demandBanks() & view_->dram().rankBankBits(r)) ||
             now - view_->lastDemandActivity(r) <
                 idleThreshold(ledger_.owed(r)))) {
            continue;
        }
        RefreshRequest req;
        req.cmd.type = CommandType::kRefAb;
        req.cmd.rank = r;
        req.blocking = true;
        out.push_back(req);
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
        if (view_->demandBanks() & view_->dram().rankBankBits(r))
            continue;  // Next demand dequeue is a command, hence a wake.
        const Tick release =
            view_->lastDemandActivity(r) + idleThreshold(ledger_.owed(r));
        if (release > now && release < wake)
            wake = release;
    }
    return wake;
}

void
ElasticScheduler::onIssued(const RefreshRequest &req, Tick)
{
    if (ledger_.mustForce(req.cmd.rank))
        ++stats_.forced;
    if (ledger_.owed(req.cmd.rank) > 1)
        ++stats_.postponed;
    ledger_.onRefresh(req.cmd.rank);
    ++stats_.issued;
}

} // namespace dsarp
