#include "controller/scheduler.hh"

#include <algorithm>
#include <bit>

namespace dsarp {

CmdChoice
FrFcfs::pick(const RequestQueue &queue, const Channel &channel, Tick now,
             std::uint64_t act_blocked, int banks_per_rank)
{
    CmdChoice choice;
    const std::uint64_t busy = queue.busyBanks();
    if (!busy)
        return choice;

    // The pick walks banks, not queue entries: the channel keeps the
    // open-bank mask as it issues, and the queue indexes its positions
    // by bank. Each phase takes every bank's best candidate and keeps
    // the oldest across banks -- exactly the entry an arrival-order
    // scan would return. `older` holds the positions older than the
    // best candidate so far; nothing at or above it can win.
    const std::uint64_t open_mask = channel.openBanks();
    std::uint64_t older = ~std::uint64_t(0);

    // Phase 1: row hits. Oldest request whose row is open and whose
    // column command is legal right now. Every hit in a bank shares
    // the bank's column legality, and the bus check depends only on
    // the direction, so each direction is probed at most once.
    int hit = -1;
    for (std::uint64_t banks = open_mask & busy; banks; banks &= banks - 1) {
        const int idx = std::countr_zero(banks);
        const Bank &bank =
            channel.rank(idx / banks_per_rank).bank(idx % banks_per_rank);
        int legal[2] = {-1, -1};  // Per direction: unknown, no, yes.
        for (std::uint64_t pos = queue.positions(idx) & older; pos;
             pos &= pos - 1) {
            const int i = std::countr_zero(pos);
            const Request &req = queue.at(i);
            if (req.loc.row != bank.openRow())
                continue;
            int &ok = legal[req.isWrite];
            if (ok < 0) {
                Command probe;
                probe.type = req.isWrite ? CommandType::kWr : CommandType::kRd;
                probe.rank = req.loc.rank;
                probe.bank = req.loc.bank;
                ok = channel.canIssue(probe, now);
            }
            if (ok) {
                hit = i;
                older = lowBits(i);
                break;
            }
        }
    }
    if (hit >= 0) {
        // Keep the row open only if another request for it is queued;
        // otherwise auto-precharge (closed-row policy). A pending
        // blocking refresh on the bank also forces the precharge.
        const Request &req = queue.at(hit);
        const int idx = req.loc.rank * banks_per_rank + req.loc.bank;
        const bool auto_pre =
            queue.rowCount(req.loc.rank, req.loc.bank, req.loc.row) <= 1 ||
            (act_blocked >> idx & 1);
        choice.valid = true;
        choice.cmd.type = req.isWrite
            ? (auto_pre ? CommandType::kWrA : CommandType::kWr)
            : (auto_pre ? CommandType::kRdA : CommandType::kRd);
        choice.cmd.rank = req.loc.rank;
        choice.cmd.bank = req.loc.bank;
        choice.cmd.row = req.loc.row;
        choice.cmd.column = req.loc.column;
        choice.cmd.subarray = req.loc.subarray;
        choice.queueIndex = hit;
        return choice;
    }

    // Phase 2: the oldest request needing an ACT whose ACT is legal,
    // over the closed banks no blocking refresh holds. A bank offers
    // only its oldest request -- a younger one must not jump ahead of
    // it -- unless the bank is refreshing: under SARP a younger request
    // may target a different, accessible subarray, so each is offered
    // in order. Rank-level legality (tRRD/tFAW) is evaluated lazily,
    // at most once per rank.
    int rank_ok[MemOrg::kMaxRanksPerChannel];
    std::fill(rank_ok, rank_ok + MemOrg::kMaxRanksPerChannel, -1);
    for (std::uint64_t banks = busy & ~open_mask & ~act_blocked; banks;
         banks &= banks - 1) {
        const int idx = std::countr_zero(banks);
        const RankId r = idx / banks_per_rank;
        const Bank &bank = channel.rank(r).bank(idx % banks_per_rank);
        std::uint64_t pos = queue.positions(idx) & older;
        if (!pos || now < bank.actReadyAt())
            continue;  // Inside tRC/tRP, or refreshing without SARP.
        if (!bank.refreshing(now))
            pos = std::uint64_t(1) << std::countr_zero(pos);
        for (; pos; pos &= pos - 1) {
            const int i = std::countr_zero(pos);
            const Request &req = queue.at(i);
            if (!bank.canAct(now, req.loc.row))
                continue;
            if (rank_ok[r] < 0)
                rank_ok[r] = channel.rank(r).canActRankLevel(now);
            if (rank_ok[r]) {
                older = lowBits(i);
                choice.valid = true;
                choice.cmd.type = CommandType::kAct;
                choice.cmd.rank = req.loc.rank;
                choice.cmd.bank = req.loc.bank;
                choice.cmd.row = req.loc.row;
                choice.cmd.subarray = req.loc.subarray;
            }
            break;
        }
    }
    if (choice.valid)
        return choice;

    // Phase 3: conflict precharge. A bank can be left open for a row this
    // queue does not want -- e.g. read row hits stranded by writeback
    // mode, or a plain-RD stream whose tail was served elsewhere. Close
    // it so the waiting request can activate next cycle. Only the
    // oldest 16 requests count: this is a liveness path, not a
    // throughput path. A bank qualifies through its oldest request
    // when no queued request hits its open row (then none of its
    // requests does) and PRE is legal.
    older = lowBits(16);
    for (std::uint64_t banks = open_mask & busy; banks; banks &= banks - 1) {
        const int idx = std::countr_zero(banks);
        const std::uint64_t pos = queue.positions(idx) & older;
        if (!pos)
            continue;
        Command pre;
        pre.type = CommandType::kPre;
        pre.rank = idx / banks_per_rank;
        pre.bank = idx % banks_per_rank;
        const RowId open_row = channel.rank(pre.rank).bank(pre.bank).openRow();
        if (!channel.canIssue(pre, now) ||
            queue.rowCount(pre.rank, pre.bank, open_row) > 0) {
            continue;
        }
        older = lowBits(std::countr_zero(pos));
        choice.valid = true;
        choice.cmd = pre;
    }
    return choice;
}

} // namespace dsarp
