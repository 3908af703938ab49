#include "refresh/all_bank.hh"

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(refab, {
    "REFab", "rank-level all-bank refresh (DDR baseline)",
    nullptr,  // The tags resolve() resets to are REFab's.
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<AllBankScheduler>(&c, &t, &v);
    }}, {"all_bank"})

DSARP_REGISTER_REFRESH_POLICY(sarpab, {
    "SARPab", "all-bank refresh + subarray access-refresh parallelization",
    [](MemConfig &m) { m.sarp = true; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<AllBankScheduler>(&c, &t, &v);
    }}, {"sarp_ab"})

AllBankScheduler::AllBankScheduler(const MemConfig *cfg,
                                   const TimingParams *timing,
                                   ControllerView *view)
    // One unit per rank, with a small phase offset between ranks: just
    // enough that the commands do not collide on the command bus. Wide
    // staggering is strictly worse for throughput -- it doubles the
    // fraction of time the channel runs at half capacity -- so the
    // near-aligned schedule is the strongest (fairest) baseline.
    : LedgerScheduler(cfg, timing, view, 1, timing->tRefiAb,
                      timing->tRefiAb / (cfg->refabStaggerDivisor *
                                         cfg->org.ranksPerChannel),
                      Cycles())
{
}

void
AllBankScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    if (!ledger_.dueMask())
        return;  // No rank owes a refresh.
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // The device refreshes itself; ledger paused.
        if (ledger_.due(r)) {
            RefreshRequest req;
            req.cmd.type = CommandType::kRefAb;
            req.cmd.rank = r;
            req.blocking = true;
            out.push_back(req);
        }
    }
}

void
AllBankScheduler::onIssued(const RefreshRequest &req, Tick)
{
    ledger_.onRefresh(req.cmd.rank);
    ++stats_.issued;
}

} // namespace dsarp
