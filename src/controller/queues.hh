/**
 * @file
 * Bounded request queue with a per-bank index of its entries.
 *
 * Requests are kept in arrival order (index 0 is the oldest) so the
 * FR-FCFS pick can honour age. Beside them the queue keeps, per bank,
 * a 64-bit mask of the queue positions that target the bank, and a
 * mask of the banks with queued work (bank bit rank x banksPerRank +
 * bank, as in Channel::openBanks()). The pick walks banks through
 * these masks instead of scanning every entry; a bank's lowest set bit
 * is its oldest request. The busy-bank mask is what DARP's
 * out-of-order refresh monitors (paper Section 4.2.1). The config
 * bounds a queue to 64 entries (MemConfig::kMaxQueueSize).
 */

#ifndef DSARP_CONTROLLER_QUEUES_HH
#define DSARP_CONTROLLER_QUEUES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "controller/request.hh"

namespace dsarp {

class RequestQueue
{
  public:
    RequestQueue(int capacity, int ranks, int banksPerRank);

    bool full() const { return size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    int size() const { return static_cast<int>(entries_.size()); }
    int capacity() const { return capacity_; }

    /** Append a request; returns false when the queue is full. */
    bool push(const Request &req);

    /** Oldest-first access. */
    const Request &at(int i) const { return entries_[i]; }

    /** Remove and return the request at index @p i. */
    Request pop(int i);

    /** Banks with queued requests: bit rank x banksPerRank + bank. */
    std::uint64_t busyBanks() const { return busyBanks_; }

    /** Queue positions whose request targets bank bit @p bankIdx. */
    std::uint64_t positions(int bankIdx) const { return positions_[bankIdx]; }

    /** Queued requests targeting a bank: ControllerView::
     *  pendingDemands(), which only DARP's write-refresh choice asks
     *  for. A counter, not the popcount of the bank's positions:
     *  without a POPCNT target flag std::popcount compiles to a
     *  library call. */
    int
    bankCount(RankId r, BankId b) const
    {
        return bankCount_[r * banks_ + b];
    }

    /** First index whose request matches @p addr, or -1, walking only
     *  the positions of (rank, bank): equal addresses decode to the
     *  same bank, so no match can sit anywhere else. */
    int findAddr(Addr addr, RankId r, BankId b) const;

    /** Requests queued for (rank, bank, row): a walk of the bank's
     *  positions, so it costs that bank's occupancy. */
    int rowCount(RankId r, BankId b, RowId row) const;

  private:
    int capacity_;
    int banks_;
    std::vector<Request> entries_;
    std::vector<int> bankCount_;
    std::vector<std::uint64_t> positions_;
    std::uint64_t busyBanks_ = 0;
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_QUEUES_HH
