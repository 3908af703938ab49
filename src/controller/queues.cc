#include "controller/queues.hh"

#include <bit>

#include "common/config.hh"
#include "common/log.hh"

namespace dsarp {

RequestQueue::RequestQueue(int capacity, int ranks, int banks_per_rank)
    : capacity_(capacity), banks_(banks_per_rank)
{
    DSARP_ASSERT(capacity <= MemConfig::kMaxQueueSize,
                 "queue capacity exceeds the 64-entry index");
    DSARP_ASSERT(ranks * banks_per_rank <= MemOrg::kMaxBanksPerChannel,
                 "channel geometry exceeds the 64-bank index");
    bankCount_.assign(ranks * banks_per_rank, 0);
    positions_.assign(ranks * banks_per_rank, 0);
    entries_.reserve(capacity);
}

bool
RequestQueue::push(const Request &req)
{
    if (full())
        return false;
    const int bank = req.loc.rank * banks_ + req.loc.bank;
    ++bankCount_[bank];
    positions_[bank] |= std::uint64_t(1) << size();
    busyBanks_ |= std::uint64_t(1) << bank;
    entries_.push_back(req);
    return true;
}

Request
RequestQueue::pop(int i)
{
    DSARP_ASSERT(i >= 0 && i < size(), "queue index out of range");
    Request req = entries_[i];
    const int popped = req.loc.rank * banks_ + req.loc.bank;
    DSARP_ASSERT(positions_[popped] >> i & 1,
                 "bank index out of sync with the queue");
    --bankCount_[popped];
    entries_.erase(entries_.begin() + i);
    // Close the gap at position i: the popped bit drops out and every
    // higher position moves down by one, in each busy bank's mask.
    const std::uint64_t below = lowBits(i);
    for (std::uint64_t busy = busyBanks_; busy; busy &= busy - 1) {
        const int bank = std::countr_zero(busy);
        std::uint64_t &pos = positions_[bank];
        pos = (pos & below) | (pos >> 1 & ~below);
        if (!pos)
            busyBanks_ &= ~(std::uint64_t(1) << bank);
    }
    return req;
}

int
RequestQueue::findAddr(Addr addr, RankId r, BankId b) const
{
    for (std::uint64_t pos = positions_[r * banks_ + b]; pos;
         pos &= pos - 1) {
        const int i = std::countr_zero(pos);
        if (entries_[i].addr == addr)
            return i;
    }
    return -1;
}

int
RequestQueue::rowCount(RankId r, BankId b, RowId row) const
{
    int count = 0;
    for (std::uint64_t pos = positions_[r * banks_ + b]; pos;
         pos &= pos - 1) {
        count += entries_[std::countr_zero(pos)].loc.row == row;
    }
    return count;
}

} // namespace dsarp
