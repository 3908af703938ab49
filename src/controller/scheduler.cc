#include "controller/scheduler.hh"

#include <algorithm>

namespace dsarp {

CmdChoice
FrFcfs::pick(const RequestQueue &queue, const Channel &channel, Tick now,
             const std::vector<std::uint8_t> &act_blocked_bank,
             const std::vector<std::uint8_t> &act_blocked_rank,
             int banks_per_rank)
{
    CmdChoice choice;
    if (queue.empty())
        return choice;

    // Under the closed-row policy most banks are closed most ticks, so
    // the row-hit scan below reduces to a bitmask test per entry (and
    // vanishes when nothing is open). The channel keeps the mask as it
    // issues; the config bounds the geometry to its 64 bits.
    const std::uint64_t open_mask = channel.openBanks();

    // Phase 1: row hits. Oldest request whose row is open and whose
    // column command is legal right now.
    for (int i = 0; open_mask && i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const int open_idx = req.loc.rank * banks_per_rank + req.loc.bank;
        if (!(open_mask >> open_idx & 1) ||
            channel.rank(req.loc.rank).bank(req.loc.bank).openRow() !=
                req.loc.row) {
            continue;
        }

        // Keep the row open only if another request for it is queued;
        // otherwise auto-precharge (closed-row policy). A pending
        // blocking refresh on the bank also forces the precharge.
        const bool last_for_row =
            queue.rowCount(req.loc.rank, req.loc.bank, req.loc.row) <= 1;
        const bool blocked =
            act_blocked_bank[req.loc.rank * banks_per_rank + req.loc.bank] ||
            act_blocked_rank[req.loc.rank];
        const bool auto_pre = last_for_row || blocked;

        Command cmd;
        cmd.type = req.isWrite
            ? (auto_pre ? CommandType::kWrA : CommandType::kWr)
            : (auto_pre ? CommandType::kRdA : CommandType::kRd);
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        cmd.row = req.loc.row;
        cmd.column = req.loc.column;
        cmd.subarray = req.loc.subarray;
        if (channel.canIssue(cmd, now)) {
            choice.valid = true;
            choice.cmd = cmd;
            choice.queueIndex = i;
            return choice;
        }
    }

    // Phase 2: the oldest request needing an ACT whose ACT is legal.
    // Rank-level legality (tRRD/tFAW) is hoisted out of the scan, and
    // each (rank, bank) pair is attempted at most once -- a younger
    // request to a bank whose oldest request cannot activate must not
    // jump ahead of it.
    const int num_ranks = channel.numRanks();
    bool rank_act_ok[MemOrg::kMaxRanksPerChannel] = {};
    bool any_rank_ok = false;
    for (RankId r = 0; r < num_ranks; ++r) {
        rank_act_ok[r] = channel.rank(r).canActRankLevel(now);
        any_rank_ok |= rank_act_ok[r] && !act_blocked_rank[r];
    }
    std::uint64_t tried_banks = 0;
    for (int i = 0; any_rank_ok && i < queue.size(); ++i) {
        const Request &req = queue.at(i);
        const int bank_idx = req.loc.rank * banks_per_rank + req.loc.bank;
        const std::uint64_t bit = std::uint64_t(1) << bank_idx;
        if (tried_banks & bit)
            continue;
        // A refreshing bank stays eligible for younger requests: under
        // SARP they may target a different, accessible subarray.
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.refreshing(now))
            tried_banks |= bit;
        if (!rank_act_ok[req.loc.rank] || act_blocked_rank[req.loc.rank] ||
            act_blocked_bank[bank_idx]) {
            continue;
        }
        if (open_mask & bit)
            continue;  // Handled by phase 3 if the row is stranded.
        if (!bank.canAct(now, req.loc.row))
            continue;

        Command cmd;
        cmd.type = CommandType::kAct;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        cmd.row = req.loc.row;
        cmd.subarray = req.loc.subarray;
        choice.valid = true;
        choice.cmd = cmd;
        choice.queueIndex = -1;
        return choice;
    }

    // Phase 3: conflict precharge. A bank can be left open for a row this
    // queue does not want -- e.g. read row hits stranded by writeback
    // mode, or a plain-RD stream whose tail was served elsewhere. Close
    // it so the waiting request can activate next cycle. Scanning the
    // oldest few requests is enough: this is a liveness path, not a
    // throughput path, and rowCount makes it quadratic otherwise. With
    // no row open there is nothing to close.
    const int phase3_limit = open_mask ? std::min(queue.size(), 16) : 0;
    for (int i = 0; i < phase3_limit; ++i) {
        const Request &req = queue.at(i);
        const Bank &bank = channel.rank(req.loc.rank).bank(req.loc.bank);
        if (!bank.isOpen() || bank.openRow() == req.loc.row)
            continue;
        if (queue.rowCount(req.loc.rank, req.loc.bank, bank.openRow()) > 0)
            continue;  // This queue still has hits for the open row.

        Command cmd;
        cmd.type = CommandType::kPre;
        cmd.rank = req.loc.rank;
        cmd.bank = req.loc.bank;
        if (channel.canIssue(cmd, now)) {
            choice.valid = true;
            choice.cmd = cmd;
            choice.queueIndex = -1;
            return choice;
        }
    }

    return choice;
}

} // namespace dsarp
