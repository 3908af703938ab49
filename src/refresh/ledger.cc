#include "refresh/ledger.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/log.hh"

namespace dsarp {

RefreshLedger::RefreshLedger(int ranks, int banks, Cycles period,
                             Cycles rank_stagger, Cycles unit_stagger,
                             int max_slack, Cycles channel_phase)
    : ranks_(ranks), banks_(banks),
      period_(static_cast<Tick>(period.count())), maxSlack_(max_slack)
{
    DSARP_ASSERT(ranks > 0 && banks > 0 && period > Cycles(0),
                 "bad ledger shape");
    DSARP_ASSERT(ranks * banks <= MemOrg::kMaxBanksPerChannel,
                 "ledger exceeds the 64-unit masks");
    owed_.assign(ranks * banks, 0);
    nextAccrual_.resize(ranks * banks);
    firstAccrual_.resize(ranks * banks);
    pausedAt_.assign(ranks, kTickNever);
    for (int r = 0; r < ranks; ++r) {
        for (int b = 0; b < banks; ++b) {
            // Stagger banks within a rank (the REFpb round-robin origin)
            // and phase-shift ranks against each other; the first
            // obligation lands one full period in, so a fresh system is
            // not instantly behind. The channel phase shifts the whole
            // ledger so sibling channels' schedules interleave instead
            // of refreshing in lockstep.
            const Tick offset =
                Tick(0) + (period + rank_stagger * r + unit_stagger * b +
                           channel_phase);
            firstAccrual_[index(r, b)] = offset;
            nextAccrual_[index(r, b)] = offset;
            refreshMasks(index(r, b));
        }
    }
    refreshNextAny();
}

void
RefreshLedger::setDenominator(int denom)
{
    DSARP_ASSERT(denom >= 1, "bad denominator");
    if (denom == denom_)
        return;
    // The denominator may change mid-window (e.g. a policy that turns
    // fractional accounting on once slice pairing arms -- REFsb
    // retiring multiple banks at once composed with HiRA). Balances
    // are stored in 1/denom sub-units, so they must be rescaled in
    // place; without this, an existing balance silently reinterprets
    // against the new denominator while canPullInParts() compares it
    // to the rescaled window -maxSlack * denom, letting a unit pull in
    // far beyond (or short of) the JEDEC window.
    for (int &balance : owed_) {
        const long long scaled =
            static_cast<long long>(balance) * denom;
        DSARP_ASSERT(scaled % denom_ == 0,
                     "denominator change would truncate a fractional "
                     "refresh balance");
        balance = static_cast<int>(scaled / denom_);
    }
    denom_ = denom;
    for (int i = 0; i < static_cast<int>(owed_.size()); ++i)
        refreshMasks(i);
}

bool
RefreshLedger::advanceTo(Tick now)
{
    if (now < nextAny_)
        return false;
    for (int i = 0; i < static_cast<int>(owed_.size()); ++i) {
        if (pausedAt_[i / banks_] != kTickNever || nextAccrual_[i] > now)
            continue;  // Paused (the device accrues) or not yet due.
        while (nextAccrual_[i] <= now) {
            owed_[i] += denom_;
            nextAccrual_[i] += period_;
            ++totalAccrued_;
        }
        refreshMasks(i);
    }
    refreshNextAny();
    return true;
}

void
RefreshLedger::refreshNextAny()
{
    Tick earliest = kTickNever;
    for (int i = 0; i < static_cast<int>(owed_.size()); ++i) {
        if (pausedAt_[i / banks_] == kTickNever)
            earliest = std::min(earliest, nextAccrual_[i]);
    }
    nextAny_ = earliest;
}

void
RefreshLedger::refreshMasks(int i)
{
    const std::uint64_t bit = std::uint64_t(1) << i;
    const int window = maxSlack_ * denom_;
    const auto place = [bit](std::uint64_t &mask, bool on) {
        mask = on ? mask | bit : mask & ~bit;
    };
    place(forceMask_, owed_[i] >= window);
    place(dueMask_, owed_[i] > 0);
    place(pullMask_, owed_[i] - denom_ >= -window);
}

void
RefreshLedger::pauseRank(RankId r, Tick now)
{
    DSARP_ASSERT(r >= 0 && r < ranks_, "pauseRank: bad rank");
    DSARP_ASSERT(pausedAt_[r] == kTickNever, "rank already paused");
    pausedAt_[r] = now;
    refreshNextAny();
}

void
RefreshLedger::resumeRank(RankId r, Tick now)
{
    DSARP_ASSERT(r >= 0 && r < ranks_, "resumeRank: bad rank");
    DSARP_ASSERT(pausedAt_[r] != kTickNever, "rank not paused");
    const Tick paused = now - pausedAt_[r];
    pausedAt_[r] = kTickNever;

    // Internal retirement: the device refreshed one slot's worth of
    // rows per period of residency, first paying down anything owed at
    // entry. It never banks pull-in credit -- a device emerging from a
    // long sleep owes nothing, it is not ahead.
    const int internally_retired =
        static_cast<int>(std::min<Tick>(paused / period_,
                                        static_cast<Tick>(maxSlack_))) *
        denom_;
    for (int b = 0; b < banks_; ++b) {
        const int i = index(r, b);
        if (owed_[i] > 0)
            owed_[i] = std::max(0, owed_[i] - internally_retired);
        // Re-anchor every accrual instant by the paused duration so
        // the postpone/pull-in window restarts from the exit tick;
        // firstAccrual_ shifts with it so accruedBetween() never
        // reports phantom accruals from inside the residency.
        nextAccrual_[i] += paused;
        firstAccrual_[i] += paused;
        refreshMasks(i);
    }
    refreshNextAny();
}

bool
RefreshLedger::rankPaused(RankId r) const
{
    return pausedAt_[r] != kTickNever;
}

bool
RefreshLedger::mustForce(RankId r, BankId b) const
{
    return owed(r, b) >= maxSlack_ * denom_;
}

bool
RefreshLedger::canPullIn(RankId r, BankId b) const
{
    // Equivalent to owed > -maxSlack for whole-slot accounting
    // (denom == 1), and generalizes to fractional denominators: the
    // retired slot must not push the balance past the window.
    return canPullInParts(r, b, denom_);
}

bool
RefreshLedger::canPullInParts(RankId r, BankId b, int parts) const
{
    return owed(r, b) - parts >= -maxSlack_ * denom_;
}

void
RefreshLedger::onRefresh(RankId r, BankId b)
{
    onPartialRefresh(r, b, denom_);
}

void
RefreshLedger::onPartialRefresh(RankId r, BankId b, int parts)
{
    owed_[index(r, b)] -= parts;
    ++totalRetired_;
    DSARP_ASSERT(owed_[index(r, b)] >= -maxSlack_ * denom_,
                 "pulled in beyond the JEDEC window");
    refreshMasks(index(r, b));
}

bool
RefreshLedger::accruedBetween(RankId r, BankId b, Tick prev, Tick now) const
{
    const Tick first = firstAccrual_[index(r, b)];
    if (now < first)
        return false;
    // Largest accrual instant <= now; check it is > prev.
    const Tick k = (now - first) / period_;
    const Tick instant = first + k * period_;
    return instant > prev;
}

} // namespace dsarp
