#include "refresh/darp.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(darp, {
    "DARP", "out-of-order per-bank refresh + write-refresh "
            "parallelization (paper Section 4.2)",
    [](MemConfig &m) { m.refresh = RefreshMode::kPerBank; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<DarpScheduler>(&c, &t, &v);
    }})

DSARP_REGISTER_REFRESH_POLICY(dsarp, {
    "DSARP", "DARP + SARP combined (the paper's headline mechanism)",
    [](MemConfig &m) {
        m.refresh = RefreshMode::kPerBank;
        m.sarp = true;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<DarpScheduler>(&c, &t, &v);
    }})

DSARP_REGISTER_REFRESH_POLICY(refsb, {
    "REFsb", "DDR5 same-bank refresh: one command refreshes a "
             "bank-group slice while other groups keep serving",
    [](MemConfig &m) { m.refresh = RefreshMode::kSameBank; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<DarpScheduler>(&c, &t, &v);
    }}, {"same_bank", "samebank"})

DSARP_REGISTER_REFRESH_POLICY(hirasb, {
    "HiRAsb", "REFsb + HiRA refresh-refresh pairing: doubled same-bank "
              "slices when a bank group falls two slots behind",
    [](MemConfig &m) {
        m.refresh = RefreshMode::kSameBank;
        m.hira = true;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<DarpScheduler>(&c, &t, &v);
    }}, {"refsb+hira"})

namespace {

bool
sameBank(const MemConfig &cfg)
{
    return cfg.refresh == RefreshMode::kSameBank;
}

/** Banks per unit: a bank-group slice under REFsb, else one bank. */
int
unitWidth(const MemConfig &cfg, const TimingParams &t)
{
    return sameBank(cfg) ? std::max(1, t.banksPerGroup) : 1;
}

/** Nominal interval between consecutive units' refreshes in a rank. */
Cycles
unitInterval(const MemConfig &cfg, const TimingParams &t)
{
    return sameBank(cfg) ? t.tRefiSb : t.tRefiPb;
}

} // namespace

DarpScheduler::DarpScheduler(const MemConfig *cfg,
                             const TimingParams *timing,
                             ControllerView *view)
    // One unit per bank or slice, accruing every tREFIab, staggered by
    // one unit interval within the rank (the round-robin origin); ranks
    // are phase-shifted by half an interval.
    : LedgerScheduler(cfg, timing, view,
                      cfg->org.banksPerRank / unitWidth(*cfg, *timing),
                      timing->tRefiAb, unitInterval(*cfg, *timing) / 2,
                      unitInterval(*cfg, *timing)),
      sameBank_(sameBank(*cfg)),
      width_(unitWidth(*cfg, *timing)),
      units_(ledger_.banksPerRank()),
      // A slice refresh must drain a whole bank group before it becomes
      // legal, so slices stop postponing two slots ahead of the hard
      // JEDEC limit -- the drain headroom keeps the bound (never > 9
      // intervals unrefreshed) safe under load.
      headroom_(sameBank_ ? 2 : 0),
      pullIn_(!sameBank_ || cfg->sameBankPullIn),
      writeRefresh_(!sameBank_ && cfg->darpWriteRefresh),
      pairing_(cfg->hira && cfg->org.subarraysPerBank >= 2),
      pairDraw_(cfg->org.ranksPerChannel * units_, -1)
{
    DSARP_ASSERT(!sameBank_ || (timing->banksPerGroup > 0 &&
                                units_ * width_ == cfg->org.banksPerRank),
                 "REFsb scheduler needs same-bank slices that tile the "
                 "rank");
}

RefreshRequest
DarpScheduler::request(RankId r, int u, bool blocking) const
{
    RefreshRequest req;
    req.cmd.type = sameBank_ ? CommandType::kRefSb : CommandType::kRefPb;
    req.cmd.rank = r;
    req.cmd.bank = u;
    req.blocking = blocking;
    return req;
}

std::uint64_t
DarpScheduler::unitsOf(std::uint64_t banks) const
{
    if (width_ == 1)
        return banks;
    // Slices tile each rank's banks, so bank bit i lies in unit bit
    // i / width_.
    std::uint64_t units = 0;
    while (banks) {
        const int u = std::countr_zero(banks) / width_;
        units |= std::uint64_t(1) << u;
        banks &= ~(lowBits(width_) << (u * width_));
    }
    return units;
}

BankId
DarpScheduler::leastLoaded(RankId r, std::uint64_t banks,
                           std::uint64_t demand, Tick now) const
{
    const Rank &rk = view_->dram().rank(r);
    // A bank without demand has the fewest (none), and the lowest one
    // wins ties, so idle banks are tried first.
    for (std::uint64_t idle = banks & ~demand; idle; idle &= idle - 1) {
        const BankId b = std::countr_zero(idle) % units_;
        if (rk.bank(b).canRefresh(now))
            return b;
    }
    BankId best = kNone;
    int best_count = 0;
    for (std::uint64_t busy = banks & demand; busy; busy &= busy - 1) {
        const BankId b = std::countr_zero(busy) % units_;
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
    // Nothing accrued means no unit reached a nominal instant in
    // (lastTick_, now]: the scan below would find nothing.
    if (!ledger_.advanceTo(now)) {
        lastTick_ = now;
        return;
    }

    // Figure 8, step 1: at each unit's nominal refresh instant, decide
    // whether to postpone. A refresh is postponed when the unit has
    // pending demand requests and it owes fewer than the postpone
    // limit (less the headroom); otherwise the unit is marked for an
    // on-time refresh.
    const std::uint64_t demand = unitsOf(view_->demandBanks());
    const int postpone_below = (ledger_.maxSlack() - headroom_) * slot_;
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // Ledger paused; the device refreshes itself.
        for (int u = 0; u < units_; ++u) {
            if (!ledger_.accruedBetween(r, u, lastTick_, now))
                continue;
            if (ledger_.owed(r, u) <= 0) {
                // Already covered by earlier pull-ins; nothing due.
                continue;
            }
            const std::uint64_t bit = std::uint64_t(1) << index(r, u);
            if ((demand & bit) && ledger_.owed(r, u) < postpone_below) {
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
    // Forced and on-time refreshes first (blocking so the unit drains),
    // in ascending unit order, skipping ranks locked in self-refresh.
    std::uint64_t pending = ledger_.forceMask() | dueNow_;
    while (pending) {
        const RankId r = std::countr_zero(pending) / units_;
        std::uint64_t bits = pending & ledger_.rankMask(r);
        pending &= ~bits;
        if (rankInSelfRefresh(r, now))
            continue;
        for (; bits; bits &= bits - 1) {
            const int u = std::countr_zero(bits) % units_;
            RefreshRequest req = request(r, u, true);
            // HiRA refresh-refresh pairing: a unit two or more slots
            // behind may retire two slots in one command at unchanged
            // tRFC, coverage permitting.
            if (pairing_ && ledger_.owed(r, u) >= 2 * slot_) {
                int &draw = pairDraw_[index(r, u)];
                if (draw < 0) {
                    draw = view_->schedulerRng().chance(
                               timing_->hiraRefCoverage)
                        ? 1
                        : 0;
                }
                if (draw == 1) {
                    req.cmd.rowsOverride = 2 * timing_->rowsPerRefresh;
                    req.ledgerParts = 2 * slot_;
                }
            }
            out.push_back(req);
        }
    }

    // Algorithm 1 (write-refresh parallelization): while draining writes,
    // if a rank has no refresh in flight, refresh its bank with the
    // fewest pending demands, credit permitting. Only closed banks with
    // pull-in credit can qualify; ties go to the lowest bank.
    if (!writeRefresh_ || !view_->inWritebackMode())
        return;
    const std::uint64_t demand = view_->demandBanks();
    std::uint64_t candidates =
        ledger_.pullMask() & ~view_->dram().openBanks();
    while (candidates) {
        const RankId r = std::countr_zero(candidates) / units_;
        const std::uint64_t banks = candidates & ledger_.rankMask(r);
        candidates &= ~banks;
        // A rank with a refresh in flight (or locked in self-refresh,
        // which canRefPbRankLevel() covers) takes no new one.
        const Rank &rk = view_->dram().rank(r);
        if (rk.refPbInFlight(now) || !rk.canRefPbRankLevel(now))
            continue;
        const BankId best = leastLoaded(r, banks, demand, now);
        if (best != kNone)
            out.push_back(request(r, best, false));  // Only if legal now.
    }
}

bool
DarpScheduler::opportunistic(Tick now, RefreshRequest &out)
{
    // Figure 8, step 3: the channel is idle; pick a random unit with no
    // pending demand requests and refresh it (a postponed refresh being
    // made up, or a new pull-in). A unit with an open bank cannot
    // refresh. The start unit is drawn even when no unit qualifies, so
    // the RNG stream does not depend on the masks; the walk visits
    // units from it upward, then wraps.
    if (!pullIn_)
        return false;
    const int total = ledger_.numRanks() * units_;
    const int start = static_cast<int>(view_->schedulerRng().below(total));
    const std::uint64_t candidates = ledger_.pullMask() &
        ~unitsOf(view_->demandBanks() | view_->dram().openBanks());
    std::uint64_t blocked = 0;  // Units of ranks that take no refresh now.
    for (std::uint64_t bits : {candidates & ~lowBits(start),
                               candidates & lowBits(start)}) {
        while ((bits &= ~blocked)) {
            const int idx = std::countr_zero(bits);
            const RankId r = idx / units_;
            // canRefSb() implies canRefPbRankLevel(), so the rank test
            // skips no slice that could refresh.
            if (!view_->dram().rank(r).canRefPbRankLevel(now)) {
                blocked |= ledger_.rankMask(r);
                continue;
            }
            bits &= bits - 1;
            const RefreshRequest req = request(r, idx % units_, false);
            if (view_->dram().canIssue(req.cmd, now)) {
                out = req;
                return true;
            }
        }
    }
    return false;
}

void
DarpScheduler::onIssued(const RefreshRequest &req, Tick)
{
    const RankId r = req.cmd.rank;
    const int u = req.cmd.bank;
    if (ledger_.mustForce(r, u))
        ++stats_.forced;
    if (ledger_.owed(r, u) <= 0)
        ++stats_.pulledIn;
    // One command retires its unit's slot (a slice: every bank of the
    // group at once); a paired command retires two.
    ledger_.onPartialRefresh(r, u, req.ledgerParts ? req.ledgerParts : slot_);
    dueNow_ &= ~(std::uint64_t(1) << index(r, u));
    pairDraw_[index(r, u)] = -1;
    ++stats_.issued;
}

void
DarpScheduler::onSrEnter(RankId rank, Tick now)
{
    LedgerScheduler::onSrEnter(rank, now);
    // Due marks and pairing draws are covered by the device's internal
    // refresh; the marks would otherwise survive the residency and fire
    // stale blocking requests at exit.
    dueNow_ &= ~ledger_.rankMask(rank);
    std::fill_n(pairDraw_.begin() + index(rank, 0), units_, -1);
}

} // namespace dsarp
