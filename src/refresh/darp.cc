#include "refresh/darp.hh"

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(darp, {
    "DARP", "out-of-order per-bank refresh + write-refresh "
            "parallelization (paper Section 4.2)",
    [](MemConfig &m) {
        m.refresh = RefreshMode::kDarp;
        m.sarp = false;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<DarpScheduler>(&c, &t, &v);
    }})

DSARP_REGISTER_REFRESH_POLICY(dsarp, {
    "DSARP", "DARP + SARP combined (the paper's headline mechanism)",
    [](MemConfig &m) {
        m.refresh = RefreshMode::kDarp;
        m.sarp = true;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<DarpScheduler>(&c, &t, &v);
    }})

DarpScheduler::DarpScheduler(const MemConfig *cfg,
                             const TimingParams *timing,
                             ControllerView *view)
    : RefreshScheduler(cfg, timing, view),
      ledger_(cfg->org.ranksPerChannel, cfg->org.banksPerRank,
              timing->tRefiAb, timing->tRefiPb / 2, timing->tRefiPb, 8,
              channelPhase()),
      banks_(cfg->org.banksPerRank),
      writeRefreshEnabled_(cfg->darpWriteRefresh)
{
    dueNow_.assign(cfg->org.ranksPerChannel * banks_, 0);
}

bool
DarpScheduler::refreshable(RankId r, BankId b, Tick now) const
{
    const Rank &rk = view_->dram().rank(r);
    return rk.canRefPbRankLevel(now) && rk.bank(b).canRefresh(now);
}

void
DarpScheduler::tick(Tick now)
{
    // Nothing accrued means no bank reached a nominal instant in
    // (lastTick_, now]: the scan below would find nothing.
    if (!ledger_.advanceTo(now)) {
        lastTick_ = now;
        return;
    }

    // Figure 8, step 1: at each bank's nominal refresh instant, decide
    // whether to postpone. A refresh is postponed when the bank has
    // pending demand requests and the postpone window has room; otherwise
    // the bank is marked for an on-time refresh.
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // Ledger paused; the device refreshes itself.
        for (BankId b = 0; b < banks_; ++b) {
            if (!ledger_.accruedBetween(r, b, lastTick_, now))
                continue;
            if (ledger_.owed(r, b) <= 0) {
                // Already covered by earlier pull-ins; nothing due.
                continue;
            }
            if (view_->pendingDemands(r, b) > 0 && !ledger_.mustForce(r, b)) {
                ++stats_.postponed;
            } else {
                dueNow_[index(r, b)] = 1;
            }
        }
    }
    lastTick_ = now;
}

void
DarpScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    // Forced and on-time refreshes first (blocking so the bank drains).
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;
        for (BankId b = 0; b < banks_; ++b) {
            if (ledger_.mustForce(r, b) || dueNow_[index(r, b)]) {
                RefreshRequest req;
                req.rank = r;
                req.bank = b;
                req.blocking = true;
                out.push_back(req);
            }
        }
    }

    // Algorithm 1 (write-refresh parallelization): while draining writes,
    // if a rank has no refresh in flight, refresh its bank with the
    // fewest pending demands, credit permitting.
    if (!writeRefreshEnabled_ || !view_->inWritebackMode())
        return;
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        const Rank &rk = view_->dram().rank(r);
        if (rk.selfRefreshLockout(now) || rk.refPbInFlight(now) ||
            rk.refAbInFlight(now)) {
            continue;
        }
        BankId best = kNone;
        int best_count = 0;
        for (BankId b = 0; b < banks_; ++b) {
            if (!ledger_.canPullIn(r, b) || !refreshable(r, b, now))
                continue;
            const int count = view_->pendingDemands(r, b);
            if (best == kNone || count < best_count) {
                best = b;
                best_count = count;
            }
        }
        if (best != kNone) {
            RefreshRequest req;
            req.rank = r;
            req.bank = best;
            req.blocking = false;  // Issue only if legal this tick.
            out.push_back(req);
        }
    }
}

bool
DarpScheduler::opportunistic(Tick now, RefreshRequest &out)
{
    // Figure 8, step 3: the channel is idle; pick a random bank with no
    // pending demand requests and refresh it (a postponed refresh being
    // made up, or a new pull-in).
    const int ranks = ledger_.numRanks();
    const int total = ranks * banks_;
    const int start = static_cast<int>(view_->schedulerRng().below(total));
    for (int i = 0; i < total; ++i) {
        const int idx = (start + i) % total;
        const RankId r = idx / banks_;
        const BankId b = idx % banks_;
        if (view_->pendingDemands(r, b) > 0)
            continue;
        if (!ledger_.canPullIn(r, b) || !refreshable(r, b, now))
            continue;
        out = RefreshRequest{};
        out.rank = r;
        out.bank = b;
        out.blocking = false;
        return true;
    }
    return false;
}

void
DarpScheduler::onIssued(const RefreshRequest &req, Tick)
{
    if (ledger_.mustForce(req.rank, req.bank))
        ++stats_.forced;
    if (ledger_.owed(req.rank, req.bank) <= 0)
        ++stats_.pulledIn;
    ledger_.onRefresh(req.rank, req.bank);
    dueNow_[index(req.rank, req.bank)] = 0;
    ++stats_.issued;
}

void
DarpScheduler::onSrEnter(RankId rank, Tick now)
{
    ledger_.pauseRank(rank, now);
    // Anything marked due is covered by the device's internal refresh;
    // the flags would otherwise survive the residency and fire stale
    // blocking requests at exit.
    for (BankId b = 0; b < banks_; ++b)
        dueNow_[index(rank, b)] = 0;
}

void
DarpScheduler::onSrExit(RankId rank, Tick now)
{
    ledger_.resumeRank(rank, now);
}

} // namespace dsarp
