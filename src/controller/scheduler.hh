/**
 * @file
 * FR-FCFS command selection (Rixner et al., ISCA 2000) with the paper's
 * closed-row policy.
 *
 * Priority: (1) the oldest request whose row is already open and whose
 * column command is legal this cycle -- issued with auto-precharge when it
 * is the last queued request for that row; (2) the oldest request whose
 * bank is closed and whose ACT is legal. ACTs to banks (or ranks) with a
 * blocking refresh pending are suppressed so the target can drain.
 */

#ifndef DSARP_CONTROLLER_SCHEDULER_HH
#define DSARP_CONTROLLER_SCHEDULER_HH

#include <vector>

#include "common/types.hh"
#include "controller/queues.hh"
#include "dram/channel.hh"
#include "dram/command.hh"

namespace dsarp {

/** Outcome of one FR-FCFS pick. */
struct CmdChoice
{
    bool valid = false;
    Command cmd;
    /** Queue index of the serviced request; -1 for ACT (request stays). */
    int queueIndex = -1;
};

class FrFcfs
{
  public:
    /**
     * Select the next command for @p queue.
     *
     * @param actBlockedBank per-(rank,bank) flags: suppress new ACTs.
     * @param actBlockedRank per-rank flags (all-bank refresh pending).
     */
    static CmdChoice pick(const RequestQueue &queue, const Channel &channel,
                          Tick now,
                          const std::vector<std::uint8_t> &actBlockedBank,
                          const std::vector<std::uint8_t> &actBlockedRank,
                          int banksPerRank);
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_SCHEDULER_HH
