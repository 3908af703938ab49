#include "dram/rank.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hh"

namespace dsarp {

Rank::Rank(const MemConfig *cfg, const TimingParams *timing)
    : cfg_(cfg), timing_(timing),
      inflates_(cfg->sarp || cfg->hira || cfg->maxOverlappedRefPb > 1)
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

Rank::ActSpacing
Rank::actSpacing(Tick now) const
{
    // Only an in-flight refresh inflates the spacing: skip counting the
    // in-flight lists when there is none.
    if (inflates_ && refreshInFlight(now)) {
        if (refAbInFlight(now))
            return {tRrdInflAb_, tFawInflAb_};
        const int pb = inflationRefPbCount(now);
        if (pb == 1)
            return {tRrdInflPb_, tFawInflPb_};
        if (pb > 1) {
            const double mult = refreshInflationMult(*cfg_, false, pb);
            return {timing_->tRrd.ceilScaled(mult),
                    timing_->tFaw.ceilScaled(mult)};
        }
    }
    return {timing_->tRrd, timing_->tFaw};
}

Tick
Rank::actReadyAt(Tick now) const
{
    if (lastActAt_ == kTickNever)
        return 0;
    const ActSpacing spacing = actSpacing(now);
    Tick ready = lastActAt_ + spacing.tRrd;
    // Oldest of the last four ACTs bounds the four-activate window.
    if (actsSeen_ >= 4)
        ready = std::max(ready, actWindow_[0] + spacing.tFaw);
    return ready;
}

bool
Rank::canActRankLevel(Tick now) const
{
    return !selfRefreshLockout(now) && now >= actReadyAt(now);
}

bool
Rank::canRefPbRankLevel(Tick now) const
{
    return !selfRefreshLockout(now) &&
        refPbCount(now) < cfg_->maxOverlappedRefPb &&
        !refAbInFlight(now) && !refSbInFlight(now);
}

std::uint64_t
Rank::refreshBanks(CommandType type, BankId bank) const
{
    switch (type) {
      case CommandType::kRefAb:
        return lowBits(numBanks());
      case CommandType::kRefSb: {
        const int slice = timing_->banksPerGroup;
        if (slice <= 0 || bank < 0 || (bank + 1) * slice > numBanks())
            return 0;
        return lowBits(slice) << (bank * slice);
      }
      default:
        return std::uint64_t(1) << bank;
    }
}

bool
Rank::quiescent(Tick now, std::uint64_t banks) const
{
    // Refreshes of any granularity never overlap within a rank; banks
    // outside @p banks are unconstrained (they keep serving).
    if (selfRefreshLockout(now) || refreshInFlight(now))
        return false;
    for (; banks; banks &= banks - 1) {
        if (!banks_[std::countr_zero(banks)].canRefresh(now))
            return false;
    }
    return true;
}

bool
Rank::canRefAb(Tick now) const
{
    return quiescent(now, refreshBanks(CommandType::kRefAb, 0));
}

bool
Rank::canRefSb(Tick now, int group) const
{
    const std::uint64_t slice = refreshBanks(CommandType::kRefSb, group);
    return slice && quiescent(now, slice);
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

Tick
Rank::onRefresh(Tick now, const Command &cmd)
{
    const bool ab = cmd.type == CommandType::kRefAb;
    const bool sb = cmd.type == CommandType::kRefSb;
    DSARP_ASSERT(ab   ? canRefAb(now)
                 : sb ? canRefSb(now, cmd.bank)
                      : canRefPbRankLevel(now),
                 "illegal refresh");
    const Cycles t_rfc = cmd.tRfcOverride ? cmd.tRfcOverride
        : ab                              ? timing_->tRfcAb
        : sb                              ? timing_->tRfcSb
                                          : timing_->tRfcPb;
    const Tick end = now + t_rfc;
    for (std::uint64_t bits = refreshBanks(cmd.type, cmd.bank); bits;
         bits &= bits - 1) {
        banks_[std::countr_zero(bits)].onRefresh(now, t_rfc,
                                                 cmd.rowsOverride,
                                                 cmd.hidden);
    }
    if (ab) {
        refAbUntil_ = end;
    } else if (sb) {
        refSbUntil_ = end;
    } else {
        refPbEnds_.push_back(end);
        if (cmd.hidden)
            hiddenPbEnds_.push_back(end);
    }
    refreshUntil_ = std::max(refreshUntil_, end);
    return end;
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
Rank::nextDeadline(Tick now) const
{
    Tick deadline = kTickNever;
    const auto add = [&](Tick t) {
        deadline = std::min(deadline, t > now ? t : kTickNever);
    };
    // Every refresh's banks end with it (hiddenPbEnds_ is a subset of
    // refPbEnds_), so these also stand for the banks' refresh ends.
    add(refAbUntil_);
    add(refSbUntil_);
    for (Tick end : refPbEnds_)
        add(end);
    add(srExitLockoutUntil_);
    if (srActive_ && srEnteredAt_ != kTickNever)
        add(srEnteredAt_ + timing_->tCkesr);
    for (const Bank &b : banks_)
        add(b.nextDeadline(now, cfg_->hira));
    return deadline;
}

} // namespace dsarp
