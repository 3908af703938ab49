#include "refresh/darp.hh"

#include <bit>

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(darp, {
    "DARP", "out-of-order per-bank refresh + write-refresh "
            "parallelization (paper Section 4.2)",
    [](MemConfig &m) { m.refresh = RefreshMode::kDarp; },
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
}

BankId
DarpScheduler::leastLoaded(RankId r, std::uint64_t banks,
                           std::uint64_t demand, Tick now) const
{
    const Rank &rk = view_->dram().rank(r);
    // A bank without demand has the fewest (none), and the lowest one
    // wins ties, so idle banks are tried first.
    for (std::uint64_t idle = banks & ~demand; idle; idle &= idle - 1) {
        const BankId b = std::countr_zero(idle) % banks_;
        if (rk.bank(b).canRefresh(now))
            return b;
    }
    BankId best = kNone;
    int best_count = 0;
    for (std::uint64_t busy = banks & demand; busy; busy &= busy - 1) {
        const BankId b = std::countr_zero(busy) % banks_;
        if (!rk.bank(b).canRefresh(now))
            continue;
        const int count = view_->pendingDemands(r, b);
        if (best == kNone || count < best_count) {
            best = b;
            best_count = count;
        }
    }
    return best;
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
    const std::uint64_t demand = view_->demandBanks();
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
            const std::uint64_t bit = std::uint64_t(1) << index(r, b);
            if ((demand & bit) && !ledger_.mustForce(r, b)) {
                ++stats_.postponed;
            } else {
                dueNow_ |= bit;
            }
        }
    }
    lastTick_ = now;
}

void
DarpScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    // Forced and on-time refreshes first (blocking so the bank drains),
    // in ascending bank order, skipping ranks locked in self-refresh.
    std::uint64_t pending = ledger_.forceMask() | dueNow_;
    while (pending) {
        const RankId r = std::countr_zero(pending) / banks_;
        std::uint64_t bits = pending & ledger_.rankMask(r);
        pending &= ~bits;
        if (rankInSelfRefresh(r, now))
            continue;
        for (; bits; bits &= bits - 1) {
            RefreshRequest req;
            req.rank = r;
            req.bank = std::countr_zero(bits) % banks_;
            req.blocking = true;
            out.push_back(req);
        }
    }

    // Algorithm 1 (write-refresh parallelization): while draining writes,
    // if a rank has no refresh in flight, refresh its bank with the
    // fewest pending demands, credit permitting. Only closed banks with
    // pull-in credit can qualify; ties go to the lowest bank.
    if (!writeRefreshEnabled_ || !view_->inWritebackMode())
        return;
    const std::uint64_t demand = view_->demandBanks();
    std::uint64_t candidates =
        ledger_.pullMask() & ~view_->dram().openBanks();
    while (candidates) {
        const RankId r = std::countr_zero(candidates) / banks_;
        const std::uint64_t banks = candidates & ledger_.rankMask(r);
        candidates &= ~banks;
        // A rank with a refresh in flight (or locked in self-refresh,
        // which canRefPbRankLevel() covers) takes no new one.
        const Rank &rk = view_->dram().rank(r);
        if (rk.refPbInFlight(now) || !rk.canRefPbRankLevel(now))
            continue;
        const BankId best = leastLoaded(r, banks, demand, now);
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
    // made up, or a new pull-in). The start bank is drawn even when no
    // bank qualifies, so the RNG stream does not depend on the masks;
    // the walk visits banks from it upward, then wraps.
    const int total = ledger_.numRanks() * banks_;
    const int start = static_cast<int>(view_->schedulerRng().below(total));
    const std::uint64_t candidates = ledger_.pullMask() &
        ~view_->demandBanks() & ~view_->dram().openBanks();
    std::uint64_t blocked = 0;  // Banks of ranks that take no REFpb now.
    for (std::uint64_t bits : {candidates & ~lowBits(start),
                               candidates & lowBits(start)}) {
        while ((bits &= ~blocked)) {
            const int idx = std::countr_zero(bits);
            const RankId r = idx / banks_;
            const Rank &rk = view_->dram().rank(r);
            if (!rk.canRefPbRankLevel(now)) {
                blocked |= ledger_.rankMask(r);
                continue;
            }
            bits &= bits - 1;
            const BankId b = idx % banks_;
            if (!rk.bank(b).canRefresh(now))
                continue;
            out = RefreshRequest{};
            out.rank = r;
            out.bank = b;
            out.blocking = false;
            return true;
        }
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
    dueNow_ &= ~(std::uint64_t(1) << index(req.rank, req.bank));
    ++stats_.issued;
}

void
DarpScheduler::onSrEnter(RankId rank, Tick now)
{
    ledger_.pauseRank(rank, now);
    // Anything marked due is covered by the device's internal refresh;
    // the flags would otherwise survive the residency and fire stale
    // blocking requests at exit.
    dueNow_ &= ~ledger_.rankMask(rank);
}

void
DarpScheduler::onSrExit(RankId rank, Tick now)
{
    ledger_.resumeRank(rank, now);
}

} // namespace dsarp
