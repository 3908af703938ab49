/**
 * @file
 * Last-level cache slice and a cache-filtered trace adapter.
 *
 * Table 1 gives each core a private 512 KB, 16-way, 64 B-line LLC slice.
 * CacheSlice is a plain LRU writeback model; CacheFilteredTrace wraps a
 * raw *access* trace and emits only the misses (with genuine dirty
 * evictions as writebacks), demonstrating the full core->LLC->DRAM path.
 * The calibrated workloads drive miss streams directly (README,
 * "Workload calibration").
 */

#ifndef DSARP_CORE_CACHE_HH
#define DSARP_CORE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/trace.hh"

namespace dsarp {

class CacheSlice
{
  public:
    CacheSlice(int sizeBytes, int ways, int lineBytes);

    struct AccessResult
    {
        bool hit = false;
        bool writeback = false;  ///< A dirty victim was evicted.
        Addr victimAddr = 0;
    };

    /** Look up @p addr; on a miss the line is filled (LRU victim). */
    AccessResult access(Addr addr, bool isWrite);

    /** True if the line is currently resident (no state change). */
    bool contains(Addr addr) const;

    int numSets() const { return sets_; }
    int numWays() const { return ways_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    int lineBytes_;
    int sets_;
    int ways_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/**
 * Adapts a raw access-level trace into the miss-level stream the core
 * model consumes: hits fold into the instruction gap, misses become
 * records, and writebacks come from real dirty evictions.
 */
class CacheFilteredTrace : public TraceSource
{
  public:
    CacheFilteredTrace(TraceSource &raw, CacheSlice &cache,
                       double writeProbability, std::uint64_t seed);

    TraceRecord next() override;

  private:
    TraceSource &raw_;
    CacheSlice &cache_;
    double writeProbability_;
    Rng rng_;
};

} // namespace dsarp

#endif // DSARP_CORE_CACHE_HH
