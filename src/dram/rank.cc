#include "dram/rank.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace dsarp {

Rank::Rank(const MemConfig *cfg, const TimingParams *timing)
    : cfg_(cfg), timing_(timing)
{
    banks_.reserve(cfg->org.banksPerRank);
    for (int b = 0; b < cfg->org.banksPerRank; ++b) {
        banks_.emplace_back(timing, cfg->org.rowsPerSubarray(),
                            cfg->org.rowsPerBank, cfg->sarp);
    }
    tRrdInflAb_ =
        timing->tRrd.ceilScaled(refreshInflationMult(*cfg, true, 0));
    tRrdInflPb_ =
        timing->tRrd.ceilScaled(refreshInflationMult(*cfg, false, 1));
    tFawInflAb_ =
        timing->tFaw.ceilScaled(refreshInflationMult(*cfg, true, 0));
    tFawInflPb_ =
        timing->tFaw.ceilScaled(refreshInflationMult(*cfg, false, 1));
    refPbEnds_.reserve(cfg->maxOverlappedRefPb);
}

double
Rank::refreshInflationMult(const MemConfig &cfg, bool ab_in_flight,
                           int pb_in_flight)
{
    // Without SARP, HiRA, or the overlapped-REFpb extension, the
    // baseline never activates during refresh, so no inflation applies.
    const bool extended =
        cfg.sarp || cfg.hira || cfg.maxOverlappedRefPb > 1;
    if (!extended)
        return 1.0;
    if (ab_in_flight)
        return MemConfig::sarpInflationAb;
    if (pb_in_flight > 0) {
        // Each in-flight per-bank refresh adds one refresh current's
        // worth of overhead on top of the four-activate budget.
        return 1.0 + pb_in_flight * (MemConfig::sarpInflationPb - 1.0);
    }
    return 1.0;
}

int
Rank::pruneInFlight(std::vector<Tick> &ends, Tick now)
{
    // Prune completed refreshes; the vectors never exceed the overlap
    // cap, so this is a handful of comparisons.
    auto it = std::remove_if(ends.begin(), ends.end(),
                             [now](Tick end) { return end <= now; });
    ends.erase(it, ends.end());
    return static_cast<int>(ends.size());
}

int
Rank::refPbCount(Tick now) const
{
    return pruneInFlight(refPbEnds_, now);
}

int
Rank::hiddenRefPbCount(Tick now) const
{
    return pruneInFlight(hiddenPbEnds_, now);
}

int
Rank::inflationPbCount(const MemConfig &cfg, int pb_in_flight,
                       int hidden_pb_in_flight)
{
    // SARP (and the footnote-5 overlap extension) activates during any
    // in-flight refresh, so every REFpb counts. HiRA alone only
    // overlaps activations with its *hidden* refreshes -- a plain
    // blocking REFpb under HiRA behaves exactly like DARP's and must
    // not be penalized.
    if (cfg.sarp || cfg.maxOverlappedRefPb > 1)
        return pb_in_flight;
    return hidden_pb_in_flight;
}

int
Rank::inflationRefPbCount(Tick now) const
{
    return inflationPbCount(*cfg_, refPbCount(now),
                            hiddenRefPbCount(now));
}

Cycles
Rank::effTRrd(Tick now) const
{
    if (cfg_->sarp || cfg_->hira || cfg_->maxOverlappedRefPb > 1) {
        if (refAbInFlight(now))
            return tRrdInflAb_;
        const int pb = inflationRefPbCount(now);
        if (pb == 1)
            return tRrdInflPb_;
        if (pb > 1) {
            return timing_->tRrd.ceilScaled(
                refreshInflationMult(*cfg_, false, pb));
        }
    }
    return timing_->tRrd;
}

Cycles
Rank::effTFaw(Tick now) const
{
    if (cfg_->sarp || cfg_->hira || cfg_->maxOverlappedRefPb > 1) {
        if (refAbInFlight(now))
            return tFawInflAb_;
        const int pb = inflationRefPbCount(now);
        if (pb == 1)
            return tFawInflPb_;
        if (pb > 1) {
            return timing_->tFaw.ceilScaled(
                refreshInflationMult(*cfg_, false, pb));
        }
    }
    return timing_->tFaw;
}

bool
Rank::canActRankLevel(Tick now) const
{
    if (selfRefreshLockout(now))
        return false;
    if (lastActAt_ != kTickNever && now < lastActAt_ + effTRrd(now))
        return false;
    if (actsSeen_ >= 4) {
        // Oldest of the last four ACTs bounds the four-activate window.
        if (now < actWindow_[0] + effTFaw(now))
            return false;
    }
    return true;
}

bool
Rank::refSbInFlight(Tick now) const
{
    return pruneInFlight(refSbEnds_, now) > 0;
}

bool
Rank::canRefPbRankLevel(Tick now) const
{
    return !selfRefreshLockout(now) &&
        refPbCount(now) < cfg_->maxOverlappedRefPb &&
        !refAbInFlight(now) && !refSbInFlight(now);
}

bool
Rank::canRefAb(Tick now) const
{
    if (selfRefreshLockout(now))
        return false;
    if (refreshInFlight(now))
        return false;
    for (const Bank &b : banks_) {
        if (!b.canRefresh(now))
            return false;
    }
    return true;
}

bool
Rank::canRefSb(Tick now, int group) const
{
    if (selfRefreshLockout(now))
        return false;
    // Refreshes of any granularity never overlap within a rank; banks
    // outside the slice are unconstrained (they keep serving).
    if (refreshInFlight(now))
        return false;
    const int slice = timing_->banksPerGroup;
    if (slice <= 0 || group < 0 ||
        (group + 1) * slice > static_cast<int>(banks_.size())) {
        return false;
    }
    for (int b = group * slice; b < (group + 1) * slice; ++b) {
        if (!banks_[b].canRefresh(now))
            return false;
    }
    return true;
}

void
Rank::onAct(Tick now)
{
    lastActAt_ = now;
    // Slide the four-entry window.
    actWindow_[0] = actWindow_[1];
    actWindow_[1] = actWindow_[2];
    actWindow_[2] = actWindow_[3];
    actWindow_[3] = now;
    if (actsSeen_ < 4)
        ++actsSeen_;
}

void
Rank::onRefPb(Tick now, BankId bank, Cycles t_rfc_override,
              int rows_override, bool hidden)
{
    DSARP_ASSERT(canRefPbRankLevel(now), "REFpb exceeds the overlap limit");
    const Cycles t_rfc = t_rfc_override ? t_rfc_override : timing_->tRfcPb;
    banks_[bank].onRefresh(now, t_rfc, rows_override, hidden);
    refPbEnds_.push_back(now + t_rfc);
    refreshUntil_ = std::max(refreshUntil_, now + t_rfc);
    if (hidden)
        hiddenPbEnds_.push_back(now + t_rfc);
}

void
Rank::onRefSb(Tick now, int group, Cycles t_rfc_override,
              int rows_override)
{
    DSARP_ASSERT(canRefSb(now, group), "illegal same-bank refresh");
    const Cycles t_rfc = t_rfc_override ? t_rfc_override : timing_->tRfcSb;
    const int slice = timing_->banksPerGroup;
    for (int b = group * slice; b < (group + 1) * slice; ++b)
        banks_[b].onRefresh(now, t_rfc, rows_override);
    pruneInFlight(refSbEnds_, now);
    refSbEnds_.push_back(now + t_rfc);
    refreshUntil_ = std::max(refreshUntil_, now + t_rfc);
}

void
Rank::onRefAb(Tick now, Cycles t_rfc_override, int rows_override)
{
    DSARP_ASSERT(canRefAb(now), "REFab while rank not idle");
    const Cycles t_rfc = t_rfc_override ? t_rfc_override : timing_->tRfcAb;
    for (Bank &b : banks_)
        b.onRefresh(now, t_rfc, rows_override);
    refAbUntil_ = now + t_rfc;
    refreshUntil_ = std::max(refreshUntil_, refAbUntil_);
}

bool
Rank::canSrEnter(Tick now) const
{
    // SRE needs a fully quiesced rank: the device assumes control of
    // refresh from a precharged, refresh-idle state (JEDEC: all banks
    // precharged, tRFC of any refresh satisfied).
    if (srActive_ || now < srExitLockoutUntil_)
        return false;
    if (refreshInFlight(now))
        return false;
    for (const Bank &b : banks_) {
        if (!b.canRefresh(now))
            return false;
    }
    return true;
}

bool
Rank::canSrExit(Tick now) const
{
    return srActive_ && srEnteredAt_ != kTickNever &&
        now >= srEnteredAt_ + timing_->tCkesr;
}

void
Rank::onSrEnter(Tick now)
{
    DSARP_ASSERT(canSrEnter(now), "SRE on a non-idle rank");
    srActive_ = true;
    srEnteredAt_ = now;
}

void
Rank::onSrExit(Tick now)
{
    DSARP_ASSERT(canSrExit(now), "SRX outside self-refresh or below "
                                 "the tCKESR minimum residency");
    srActive_ = false;
    // The device finishes its in-progress internal refresh burst on
    // exit: nothing is legal on the rank until tXS has elapsed.
    srExitLockoutUntil_ = now + timing_->tXs;
}

Tick
Rank::actReadyAt(Tick now) const
{
    if (lastActAt_ == kTickNever)
        return 0;
    // Only an in-flight refresh inflates tRRD/tFAW: skip counting the
    // in-flight lists when there is none.
    const bool inflated = refreshInFlight(now);
    Tick ready = lastActAt_ + (inflated ? effTRrd(now) : timing_->tRrd);
    if (actsSeen_ >= 4) {
        ready = std::max(ready, actWindow_[0] +
                                    (inflated ? effTFaw(now) : timing_->tFaw));
    }
    return ready;
}

Tick
Rank::nextDeadline(Tick now) const
{
    Tick deadline = kTickNever;
    const auto add = [&](Tick t) {
        deadline = std::min(deadline, t > now ? t : kTickNever);
    };
    // Every refresh's banks end with it (hiddenPbEnds_ is a subset of
    // refPbEnds_), so these also stand for the banks' refresh ends.
    add(refAbUntil_);
    for (Tick end : refPbEnds_)
        add(end);
    for (Tick end : refSbEnds_)
        add(end);
    add(srExitLockoutUntil_);
    if (srActive_ && srEnteredAt_ != kTickNever)
        add(srEnteredAt_ + timing_->tCkesr);
    for (const Bank &b : banks_)
        add(b.nextDeadline(now, cfg_->hira));
    return deadline;
}

} // namespace dsarp
