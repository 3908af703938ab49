#include "refresh/per_bank.hh"

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(refpb, {
    "REFpb", "sequential round-robin per-bank refresh (LPDDR baseline)",
    [](MemConfig &m) { m.refresh = RefreshMode::kPerBank; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<PerBankScheduler>(&c, &t, &v);
    }}, {"per_bank"})

DSARP_REGISTER_REFRESH_POLICY(sarppb, {
    "SARPpb", "per-bank refresh + subarray access-refresh parallelization",
    [](MemConfig &m) {
        m.refresh = RefreshMode::kPerBank;
        m.sarp = true;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<PerBankScheduler>(&c, &t, &v);
    }}, {"sarp_pb"})

PerBankScheduler::PerBankScheduler(const MemConfig *cfg,
                                   const TimingParams *timing,
                                   ControllerView *view)
    // One unit per bank, accruing every tREFIab, staggered by tREFIpb
    // within the rank so each rank sees one obligation per tREFIpb in
    // round-robin order; ranks are phase-shifted by half a slot.
    : LedgerScheduler(cfg, timing, view, cfg->org.banksPerRank,
                      timing->tRefiAb, timing->tRefiPb / 2,
                      timing->tRefiPb),
      rrIndex_(cfg->org.ranksPerChannel, 0)
{
}

void
PerBankScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    if (!ledger_.dueMask())
        return;  // No bank owes a refresh.
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // The device refreshes itself; ledger paused.
        // Strict sequential order: only the round-robin bank may refresh.
        const BankId b = rrIndex_[r];
        if (ledger_.due(r, b)) {
            RefreshRequest req;
            req.cmd.type = CommandType::kRefPb;
            req.cmd.rank = r;
            req.cmd.bank = b;
            req.blocking = true;
            out.push_back(req);
        }
    }
}

void
PerBankScheduler::onIssued(const RefreshRequest &req, Tick)
{
    ledger_.onRefresh(req.cmd.rank, req.cmd.bank);
    rrIndex_[req.cmd.rank] = (req.cmd.bank + 1) % ledger_.banksPerRank();
    ++stats_.issued;
}

} // namespace dsarp
