#include "dram/channel.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace dsarp {

Channel::Channel(const MemConfig *cfg, const TimingParams *timing)
    : cfg_(cfg), timing_(timing)
{
    DSARP_ASSERT(cfg->org.ranksPerChannel <= MemOrg::kMaxRanksPerChannel &&
                     cfg->org.ranksPerChannel * cfg->org.banksPerRank <=
                         MemOrg::kMaxBanksPerChannel,
                 "channel geometry exceeds the MemOrg bounds");
    ranks_.reserve(cfg->org.ranksPerChannel);
    for (int r = 0; r < cfg->org.ranksPerChannel; ++r)
        ranks_.emplace_back(cfg, timing);
    wrDataEnd_.assign(cfg->org.ranksPerChannel, 0);
    rankDeadlineCache_.assign(cfg->org.ranksPerChannel, 0);
    rankDeadlineDirty_.assign(cfg->org.ranksPerChannel, 1);
}

bool
Channel::canIssue(const Command &cmd, Tick now) const
{
    const Rank &rk = ranks_[cmd.rank];
    // A rank in self-refresh accepts only SRX, and nothing at all
    // inside the tXS exit window. The rank-level can* checks repeat
    // this for refresh commands (schedulers query them directly); the
    // bank-level paths are covered only here.
    if (rk.selfRefreshLockout(now) && cmd.type != CommandType::kSrExit)
        return false;
    switch (cmd.type) {
      case CommandType::kAct:
        return rk.bank(cmd.bank).canAct(now, cmd.row) &&
            rk.canActRankLevel(now);
      case CommandType::kRd:
      case CommandType::kRdA:
      case CommandType::kWr:
      case CommandType::kWrA:
        return rk.bank(cmd.bank).canColumn(now) &&
            now >= busReadyAt(cmd.rank, isWriteCmd(cmd.type));
      case CommandType::kPre:
        return rk.bank(cmd.bank).canPre(now);
      case CommandType::kRefPb:
        return rk.canRefPbRankLevel(now) &&
            (cmd.hidden ? rk.bank(cmd.bank).canHiddenRefresh(now)
                        : rk.bank(cmd.bank).canRefresh(now));
      case CommandType::kRefAb:
        return rk.canRefAb(now);
      case CommandType::kRefSb:
        return rk.canRefSb(now, cmd.bank);
      case CommandType::kSrEnter:
        return rk.canSrEnter(now);
      case CommandType::kSrExit:
        return rk.canSrExit(now);
    }
    return false;
}

Tick
Channel::issue(const Command &cmd, Tick now)
{
    DSARP_ASSERT(canIssue(cmd, now), "issuing illegal command");
    Rank &rk = ranks_[cmd.rank];
    rankDeadlineDirty_[cmd.rank] = 1;
    switch (cmd.type) {
      case CommandType::kAct:
        rk.bank(cmd.bank).onAct(now, cmd.row, cmd.subarray);
        rk.onAct(now);
        openBanks_ |= bankBit(cmd);
        ++stats_.acts;
        return 0;

      case CommandType::kRd:
      case CommandType::kRdA: {
        rk.bank(cmd.bank).onRead(now, cmd.type == CommandType::kRdA);
        if (cmd.type == CommandType::kRdA)
            openBanks_ &= ~bankBit(cmd);
        const Tick data_end = now + timing_->tCl + timing_->tBl;
        busBusyUntil_ = data_end;
        lastBurstRank_ = cmd.rank;
        lastRdCmdAt_ = now;
        ++stats_.reads;
        return data_end;
      }

      case CommandType::kWr:
      case CommandType::kWrA: {
        rk.bank(cmd.bank).onWrite(now, cmd.type == CommandType::kWrA);
        if (cmd.type == CommandType::kWrA)
            openBanks_ &= ~bankBit(cmd);
        const Tick data_end = now + timing_->tCwl + timing_->tBl;
        busBusyUntil_ = data_end;
        lastBurstRank_ = cmd.rank;
        wrDataEnd_[cmd.rank] = data_end;
        ++stats_.writes;
        return data_end;
      }

      case CommandType::kPre:
        rk.bank(cmd.bank).onPre(now);
        openBanks_ &= ~bankBit(cmd);
        ++stats_.pres;
        return 0;

      case CommandType::kRefAb:
      case CommandType::kRefPb:
      case CommandType::kRefSb: {
        const Tick end = rk.onRefresh(now, cmd);
        const bool ab = cmd.type == CommandType::kRefAb;
        const bool sb = cmd.type == CommandType::kRefSb;
        ++(ab ? stats_.refAb : sb ? stats_.refSb : stats_.refPb);
        (ab ? stats_.refAbCycles
         : sb ? stats_.refSbCycles
              : stats_.refPbCycles) += end - now;
        stats_.refPbHidden += cmd.hidden;
        if (refreshSpanCb_)
            refreshSpanCb_(now, end);
        return 0;
      }

      case CommandType::kSrEnter:
        rk.onSrEnter(now);
        ++stats_.srEnter;
        return 0;

      case CommandType::kSrExit:
        rk.onSrExit(now);
        ++stats_.srExit;
        return 0;
    }
    return 0;
}

Tick
Channel::busReadyAt(RankId r, bool write) const
{
    // The burst must find the bus free, plus a rank-switch gap. It
    // leads the data by tCL/tCWL, so the command may issue that much
    // before the bus frees.
    Tick bus_free = busBusyUntil_;
    if (lastBurstRank_ != kNone && lastBurstRank_ != r)
        bus_free += timing_->tRtrs;
    const Tick lead =
        static_cast<Tick>((write ? timing_->tCwl : timing_->tCl).count());
    Tick ready = bus_free > lead ? bus_free - lead : 0;
    if (write) {
        // Read-to-write command turnaround on the shared bus.
        if (lastRdCmdAt_ != kTickNever)
            ready = std::max(ready, lastRdCmdAt_ + timing_->tRtw);
    } else {
        // Write-to-read turnaround within the same rank (tWTR counts
        // from the end of write data to the read command).
        ready = std::max(ready, wrDataEnd_[r] + timing_->tWtr);
    }
    return ready;
}

Tick
Channel::nextDeadline(Tick now, std::uint64_t demand, bool writes) const
{
    Tick deadline = kTickNever;
    const auto add = [&](Tick t) {
        deadline = std::min(deadline, t > now ? t : kTickNever);
    };
    const int banks = cfg_->org.banksPerRank;
    for (RankId r = 0; r < static_cast<RankId>(ranks_.size()); ++r) {
        const Rank &rk = ranks_[r];
        // A rank's demand-free set only moves when a command issues to
        // it (every eff* flip instant -- refresh start/end -- is either
        // an issue or itself a deadline capping the cached value), so
        // the O(banks) walk reruns only after an issue or once the
        // cached instant has passed.
        if (rankDeadlineDirty_[r] || rankDeadlineCache_[r] <= now) {
            rankDeadlineCache_[r] = rk.nextDeadline(now);
            rankDeadlineDirty_[r] = 0;
        }
        deadline = std::min(deadline, rankDeadlineCache_[r]);

        const std::uint64_t queued = demand >> (r * banks) & lowBits(banks);
        if (!queued || rk.selfRefreshLockout(now))
            continue;
        const auto bank = [&](std::uint64_t bits) -> const Bank & {
            return rk.bank(std::countr_zero(bits));
        };
        const std::uint64_t open = openBanks_ >> (r * banks) & lowBits(banks);
        if (queued & open) {
            const Tick bus = busReadyAt(r, writes);
            for (std::uint64_t bits = queued & open; bits; bits &= bits - 1)
                add(std::max(bus, bank(bits).colReadyAt()));
        }
        if (queued & ~open) {
            const Tick act = rk.actReadyAt(now);
            for (std::uint64_t bits = queued & ~open; bits; bits &= bits - 1)
                add(std::max(act, bank(bits).actReadyAt()));
        }
    }
    return deadline;
}

void
Channel::sampleActivitySpan(Tick firstTick, Tick ticks)
{
    // One evaluation per rank stands for the whole span: the event
    // engine wakes at every threshold nextDeadline() enumerates, so
    // within a skipped span every predicate below is constant.
    for (RankId r = 0; r < static_cast<RankId>(ranks_.size()); ++r) {
        const Rank &rk = ranks_[r];
        stats_.rankTotalTicks += ticks;

        // Command-level self-refresh: real residency, billed IDD6.
        if (rk.inSelfRefresh(firstTick)) {
            stats_.srTicks += ticks;
            continue;
        }

        // Active standby: a row open or a refresh in flight.
        const bool row_open = openBanks_ & rankBankBits(r);
        if (row_open || rk.refreshInFlight(firstTick))
            stats_.rankActiveTicks += ticks;
    }
}

} // namespace dsarp
