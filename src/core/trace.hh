/**
 * @file
 * Memory trace records and synthetic trace generation.
 *
 * The core model is trace-driven in the style of the paper's Pin-based
 * front end: a trace is an infinite stream of records, each carrying the
 * number of non-memory instructions preceding one memory read (an LLC
 * miss) and, optionally, the dirty-eviction writeback that miss caused.
 *
 * SyntheticTrace is the statistical substitute for the paper's SPEC
 * CPU2006 / STREAM / TPC / HPCC traces (see the README's "Workload
 * calibration"): a profile fixes the miss rate (MPKI), row-buffer
 * locality, writeback fraction, and footprint, which are the stream
 * properties that determine refresh/access interference.
 */

#ifndef DSARP_CORE_TRACE_HH
#define DSARP_CORE_TRACE_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/address.hh"

namespace dsarp {

struct TraceRecord
{
    int gap = 0;  ///< Non-memory instructions before the read.
    Addr readAddr = 0;
    bool hasWriteback = false;
    Addr writebackAddr = 0;
};

/** Infinite stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    virtual TraceRecord next() = 0;
};

/** Statistical properties of one synthetic benchmark. */
struct TraceProfile
{
    double mpki = 10.0;           ///< LLC-miss reads per kilo-instruction.
    double rowLocality = 0.5;     ///< P(continue walking the current row).
    double writebackFraction = 0.3;  ///< P(miss evicts a dirty line).
    int footprintRows = 512;      ///< Rows per bank in the working set.
    bool randomAccess = false;    ///< HPCC-style: every access jumps.
};

class SyntheticTrace : public TraceSource
{
  public:
    /**
     * @param coreId / @p corePartitions  private row-region selection:
     * core i touches rows [i, i + footprint) * rowsPerBank/partitions.
     */
    SyntheticTrace(const TraceProfile &profile, const AddressMap &map,
                   CoreId coreId, int corePartitions, std::uint64_t seed);

    TraceRecord next() override;

    const TraceProfile &profile() const { return profile_; }

  private:
    Addr randomLine();
    void jump();

    TraceProfile profile_;
    const AddressMap &map_;
    Rng rng_;

    RowId rowBase_;   ///< First row of this core's private region.
    int rowSpan_;     ///< Usable rows in the region.
    double meanGap_;

    DecodedAddr cursor_;  ///< Current streaming position.
};

} // namespace dsarp

#endif // DSARP_CORE_TRACE_HH
