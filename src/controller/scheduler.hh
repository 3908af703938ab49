/**
 * @file
 * FR-FCFS command selection (Rixner et al., ISCA 2000) with the paper's
 * closed-row policy.
 *
 * Priority: (1) the oldest request whose row is already open and whose
 * column command is legal this cycle -- issued with auto-precharge when it
 * is the last queued request for that row; (2) the oldest request whose
 * bank is closed and whose ACT is legal; (3) a precharge of a bank left
 * open for a row the queue no longer wants. ACTs to banks (or ranks)
 * with a blocking refresh pending are suppressed so the target can
 * drain. The pick walks the queue's per-bank index, so its cost follows
 * the banks with queued work, not the queue's occupancy.
 */

#ifndef DSARP_CONTROLLER_SCHEDULER_HH
#define DSARP_CONTROLLER_SCHEDULER_HH

#include <cstdint>

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
     * @param actBlocked bank bits (rank x banksPerRank + bank) whose new
     *        ACTs are suppressed; a blocking all-bank refresh sets every
     *        bit of its rank.
     */
    static CmdChoice pick(const RequestQueue &queue, const Channel &channel,
                          Tick now, std::uint64_t actBlocked,
                          int banksPerRank);
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_SCHEDULER_HH
