#include "refresh/fgr.hh"

#include <algorithm>
#include <cmath>

#include "refresh/all_bank.hh"
#include "refresh/registry.hh"

namespace dsarp {

// Static FGR is the on-time all-bank schedule run on rate-scaled timing
// (DramSpec::timingFor applies the spec's 2x/4x divisors when the
// config bundle sets the kFgr* profile); only AR needs its own
// scheduler.

DSARP_REGISTER_REFRESH_POLICY(fgr2x, {
    "FGR2x", "DDR4 fine granularity refresh at 2x rate",
    [](MemConfig &m) { m.refresh = RefreshMode::kFgr2x; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<AllBankScheduler>(&c, &t, &v);
    }})

DSARP_REGISTER_REFRESH_POLICY(fgr4x, {
    "FGR4x", "DDR4 fine granularity refresh at 4x rate",
    [](MemConfig &m) { m.refresh = RefreshMode::kFgr4x; },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<AllBankScheduler>(&c, &t, &v);
    }})

DSARP_REGISTER_REFRESH_POLICY(adaptive, {
    "AR", "adaptive refresh [Mukundan+, ISCA'13]: dynamic 1x/4x FGR mix",
    nullptr,  // 1x timing; the scheduler mixes in 4x commands itself.
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<AdaptiveScheduler>(&c, &t, &v);
    }}, {"adaptive"})

AdaptiveScheduler::AdaptiveScheduler(const MemConfig *cfg,
                                     const TimingParams *timing,
                                     ControllerView *view)
    // Quarter-slot accrual: one quarter per tREFIab/4, forcing at 8
    // full commands' worth (32 quarters) of postponement.
    : LedgerScheduler(cfg, timing, view, 1, timing->tRefiAb / 4,
                      timing->tRefiAb / (8 * cfg->org.ranksPerChannel),
                      Cycles(), 8 * 4)
{
    // The spec's own 4x divisor: DDR4 parts use their native tRFC4
    // ratio rather than the Section 6.5 DDR3 projection.
    tRfc4x_ = Cycles(static_cast<std::int64_t>(std::ceil(
        static_cast<double>(timing->tRfcAb.count()) /
            timing->rfcDivisorFor(4) -
        1e-9)));
    rows4x_ = std::max(1, timing->rowsPerRefresh / 4);
    // Start with a full budget: a fresh system has banked no overrun.
    budget_.assign(cfg->org.ranksPerChannel,
                   4.0 * static_cast<double>(timing->tRfcAb.count()));
    pending4x_.assign(cfg->org.ranksPerChannel, 0);
}

void
AdaptiveScheduler::tick(Tick now)
{
    ledger_.advanceTo(now);
    // Grant busy-time budget as obligations accrue: each quarter-slot is
    // worth a quarter of a (slightly padded) 1x command. The cap keeps a
    // long idle stretch from banking an unbounded 4x burst.
    const std::uint64_t accrued = ledger_.totalAccrued();
    if (accrued > lastAccrued_) {
        const double t_rfc_ab =
            static_cast<double>(timing_->tRfcAb.count());
        const double grant = (accrued - lastAccrued_) *
            (t_rfc_ab * arBudgetSlack / 4.0) /
            ledger_.numRanks();
        for (double &b : budget_)
            b = std::min(b + grant, 4.0 * t_rfc_ab);
        lastAccrued_ = accrued;
    }
    // 4x is attractive while the channel drains writes: the short
    // lockout tucks under the batch.
    fastMode_ = view_->inWritebackMode();
}

void
AdaptiveScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        if (rankInSelfRefresh(r, now))
            continue;  // The device refreshes itself; ledger paused.
        // A slot already being executed fine-grained finishes in 4x
        // mode regardless of the current writeback state.
        bool use_fast = pending4x_[r] > 0;

        if (!use_fast) {
            // AR keeps REFab's schedule: a refresh goes out when a full
            // slot is due. The only choice is its granularity: split
            // into 4x commands when a write drain is in progress and
            // the busy-time budget covers the 2.45x inflation.
            if (ledger_.owed(r) < 4)
                continue;
            use_fast = fastMode_ && !ledger_.mustForce(r) &&
                budget_[r] >= 4.0 * static_cast<double>(tRfc4x_.count());
            if (use_fast)
                pending4x_[r] = 4;
        }

        RefreshRequest req;
        req.cmd.type = CommandType::kRefAb;
        req.cmd.rank = r;
        req.blocking = true;
        if (use_fast) {
            req.cmd.tRfcOverride = tRfc4x_;
            req.cmd.rowsOverride = rows4x_;
            req.ledgerParts = 1;
        } else {
            req.ledgerParts = 4;
        }
        out.push_back(req);
    }
}

void
AdaptiveScheduler::onIssued(const RefreshRequest &req, Tick)
{
    const RankId r = req.cmd.rank;
    if (ledger_.mustForce(r))
        ++stats_.forced;
    const int parts = req.ledgerParts ? req.ledgerParts : 4;
    ledger_.onPartialRefresh(r, 0, parts);
    const Cycles t_rfc =
        req.cmd.tRfcOverride ? req.cmd.tRfcOverride : timing_->tRfcAb;
    budget_[r] -= static_cast<double>(t_rfc.count());
    if (req.ledgerParts == 1 && pending4x_[r] > 0)
        --pending4x_[r];
    ++stats_.issued;
}

void
AdaptiveScheduler::onSrEnter(RankId rank, Tick now)
{
    LedgerScheduler::onSrEnter(rank, now);
    // A partially-executed 4x slot is finished by the device's own
    // refresh; restart granularity selection cleanly at exit.
    pending4x_[rank] = 0;
}

} // namespace dsarp
