#include "refresh/same_bank.hh"

#include <bit>

#include "common/log.hh"
#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(refsb, {
    "REFsb", "DDR5 same-bank refresh: one command refreshes a "
             "bank-group slice while other groups keep serving",
    [](MemConfig &m) { m.refresh = RefreshMode::kSameBank; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<SameBankScheduler>(&c, &t, &v);
    }}, {"same_bank", "samebank"})

DSARP_REGISTER_REFRESH_POLICY(hirasb, {
    "HiRAsb", "REFsb + HiRA refresh-refresh pairing: doubled same-bank "
              "slices when a bank group falls two slots behind",
    [](MemConfig &m) {
        m.refresh = RefreshMode::kSameBank;
        m.hira = true;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<SameBankScheduler>(&c, &t, &v);
    }}, {"refsb+hira"})

SameBankScheduler::SameBankScheduler(const MemConfig *cfg,
                                     const TimingParams *timing,
                                     ControllerView *view)
    : RefreshScheduler(cfg, timing, view),
      // One ledger unit per bank-group slice, accruing every tREFIab,
      // staggered by tREFIsb within the rank (the slice round-robin
      // origin); ranks are phase-shifted by half a slot, mirroring the
      // per-bank policies.
      ledger_(cfg->org.ranksPerChannel,
              timing->banksPerGroup > 0
                  ? cfg->org.banksPerRank / timing->banksPerGroup
                  : 1,
              timing->tRefiAb, timing->tRefiSb / 2, timing->tRefiSb, 8,
              channelPhase()),
      groups_(timing->banksPerGroup > 0
                  ? cfg->org.banksPerRank / timing->banksPerGroup
                  : 1),
      banksPerGroup_(timing->banksPerGroup),
      pullInEnabled_(cfg->sameBankPullIn),
      pairingEnabled_(cfg->hira && cfg->org.subarraysPerBank >= 2)
{
    DSARP_ASSERT(timing->banksPerGroup > 0 &&
                     groups_ * banksPerGroup_ == cfg->org.banksPerRank,
                 "REFsb scheduler needs same-bank slices that tile the "
                 "rank");
    pairDraw_.assign(cfg->org.ranksPerChannel * groups_, -1);
}

std::uint64_t
SameBankScheduler::slicesOf(std::uint64_t banks) const
{
    // Slices tile each rank's banks, so bank bit i lies in slice bit
    // i / banksPerGroup_.
    std::uint64_t slices = 0;
    while (banks) {
        const int slice = std::countr_zero(banks) / banksPerGroup_;
        slices |= std::uint64_t(1) << slice;
        banks &= ~(lowBits(banksPerGroup_) << (slice * banksPerGroup_));
    }
    return slices;
}

void
SameBankScheduler::tick(Tick now)
{
    // Nothing accrued means no slice reached a nominal instant in
    // (lastTick_, now]: the scan below would find nothing.
    if (!ledger_.advanceTo(now)) {
        lastTick_ = now;
        return;
    }

    // DARP's postpone decision (Figure 8, step 1) at slice
    // granularity: at a slice's nominal refresh instant, postpone when
    // any bank of the group has pending demands and the postpone
    // window has room; otherwise mark the slice for an on-time
    // refresh.
    const std::uint64_t demand = slicesOf(view_->demandBanks());
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // Ledger paused; the device refreshes itself.
        for (int g = 0; g < groups_; ++g) {
            if (!ledger_.accruedBetween(r, g, lastTick_, now))
                continue;
            if (ledger_.owed(r, g) <= 0)
                continue;  // Covered by earlier pull-ins.
            // A slice refresh must drain a whole bank group before it
            // becomes legal, so stop postponing two slots ahead of the
            // hard JEDEC limit -- the drain headroom keeps the bound
            // (never > 9 intervals unrefreshed) safe under load.
            const std::uint64_t bit = std::uint64_t(1) << index(r, g);
            if ((demand & bit) &&
                ledger_.owed(r, g) + 2 < ledger_.maxSlack() &&
                !ledger_.mustForce(r, g)) {
                ++stats_.postponed;
            } else {
                dueNow_ |= bit;
            }
        }
    }
    lastTick_ = now;
}

void
SameBankScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    // Forced and on-time slices in ascending order, skipping ranks
    // locked in self-refresh.
    std::uint64_t pending = ledger_.forceMask() | dueNow_;
    while (pending) {
        const RankId r = std::countr_zero(pending) / groups_;
        std::uint64_t bits = pending & ledger_.rankMask(r);
        pending &= ~bits;
        if (rankInSelfRefresh(r, now))
            continue;
        for (; bits; bits &= bits - 1) {
            const int g = std::countr_zero(bits) % groups_;
            RefreshRequest req;
            req.sameBank = true;
            req.rank = r;
            req.bank = g;
            req.blocking = true;
            // HiRA refresh-refresh pairing extended to slices: a
            // group two or more slots behind may retire two slots in
            // one command at unchanged tRFCsb, coverage permitting.
            // One draw per due slot (redrawing every tick would
            // inflate the probability); reset when the slice issues.
            if (pairingEnabled_ && ledger_.owed(r, g) >= 2) {
                int &draw = pairDraw_[index(r, g)];
                if (draw < 0) {
                    draw = view_->schedulerRng().chance(
                               timing_->hiraRefCoverage)
                        ? 1
                        : 0;
                }
                if (draw == 1) {
                    req.rowsOverride = 2 * timing_->rowsPerRefresh;
                    req.ledgerParts = 2;
                }
            }
            out.push_back(req);
        }
    }
}

bool
SameBankScheduler::opportunistic(Tick now, RefreshRequest &out)
{
    // Idle-channel pull-in (Figure 8, step 3, at slice granularity):
    // a random slice with no pending demands in any of its banks
    // receives a postponed or pulled-in refresh, credit permitting. A
    // slice with an open bank cannot refresh, so only slices free of
    // both are tested, from the drawn start upward, then wrapped. (The
    // ledger stays at denominator 1, so pullMask() is one-slot credit.)
    if (!pullInEnabled_)
        return false;
    const int total = ledger_.numRanks() * groups_;
    const int start = static_cast<int>(view_->schedulerRng().below(total));
    const std::uint64_t candidates = ledger_.pullMask() &
        ~slicesOf(view_->demandBanks() | view_->dram().openBanks());
    for (std::uint64_t bits : {candidates & ~lowBits(start),
                               candidates & lowBits(start)}) {
        for (; bits; bits &= bits - 1) {
            const int idx = std::countr_zero(bits);
            const RankId r = idx / groups_;
            const int g = idx % groups_;
            if (!view_->dram().rank(r).canRefSb(now, g))
                continue;
            out = RefreshRequest{};
            out.sameBank = true;
            out.rank = r;
            out.bank = g;
            out.blocking = false;
            return true;
        }
    }
    return false;
}

void
SameBankScheduler::onIssued(const RefreshRequest &req, Tick)
{
    const int g = req.bank;
    if (ledger_.mustForce(req.rank, g))
        ++stats_.forced;
    if (ledger_.owed(req.rank, g) <= 0)
        ++stats_.pulledIn;
    // One command retires the whole slice's obligation -- all banks
    // sharing the bank-group index at once; a paired command retires
    // two slots' worth.
    if (req.ledgerParts > 0) {
        ledger_.onPartialRefresh(req.rank, g, req.ledgerParts);
        if (req.ledgerParts > 1)
            ++pairedIssued_;
    } else {
        ledger_.onRefresh(req.rank, g);
    }
    dueNow_ &= ~(std::uint64_t(1) << index(req.rank, g));
    pairDraw_[index(req.rank, g)] = -1;
    ++stats_.issued;
}

void
SameBankScheduler::onSrEnter(RankId rank, Tick now)
{
    ledger_.pauseRank(rank, now);
    // Due slices and pairing draws are covered by the device's own
    // refresh during the residency.
    dueNow_ &= ~ledger_.rankMask(rank);
    for (int g = 0; g < groups_; ++g)
        pairDraw_[index(rank, g)] = -1;
}

void
SameBankScheduler::onSrExit(RankId rank, Tick now)
{
    ledger_.resumeRank(rank, now);
}

} // namespace dsarp
