/**
 * @file
 * Sharded parallel sweep execution.
 *
 * A sweep is a list of independent (SystemConfig, Workload) points; the
 * SweepRunner shards them across a std::thread pool with an atomic
 * work-stealing index and writes each result into its point's slot, so
 * the output vector is byte-identical for any job count and any shard
 * order. Runner::run is safe to call concurrently: it holds no mutable
 * state beyond the process-wide alone-IPC memo cache, which is
 * mutex-guarded (see sim/runner.cc), and the registries are
 * thread-clean singletons (tests/test_thread_clean.cc).
 *
 * This file is the repo's single audited thread-spawn point: raw
 * std::thread/std::async anywhere else under src/, bench/ or tools/
 * fails the analyzer's single-thread-spawn-point rule
 * (tools/analyze/dsarp_analyze.py), so every parallel code path funnels
 * through parallelFor() and inherits its exception handling and
 * determinism contract.
 */

#ifndef DSARP_SIM_PARALLEL_HH
#define DSARP_SIM_PARALLEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/runner.hh"
#include "workload/workload.hh"

namespace dsarp {

/**
 * Run fn(0) .. fn(n-1) on @p jobs worker threads (clamped to [1, n];
 * jobs <= 1 runs inline on the caller). Items are claimed from an
 * atomic counter, so scheduling is dynamic but each index runs exactly
 * once. The first exception thrown by any item is rethrown on the
 * caller after all workers drain; @p fn must only touch shared state
 * through its own index's slot (or other synchronized paths).
 */
void parallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * One sweep point: a full system config plus the workload to run. A
 * config with open-loop traffic enabled runs through
 * Runner::runTraffic and ignores the workload.
 */
struct SweepPoint
{
    SystemConfig cfg;
    Workload workload;
};

class SweepRunner
{
  public:
    /**
     * @p jobs worker threads (values < 1 clamp to 1 = serial). The
     * Runner is shared by all workers and must outlive the sweep.
     */
    SweepRunner(Runner &runner, int jobs);

    int jobs() const { return jobs_; }

    /**
     * Evaluate every point; result i corresponds to points[i]
     * regardless of job count or completion order.
     */
    std::vector<RunResult> run(const std::vector<SweepPoint> &points);

    /**
     * Deterministic per-point seed: a splitmix64 mix of the sweep's
     * base seed and the point index, so a seed axis depends only on
     * (base, index) -- never on thread assignment or shard order.
     */
    static std::uint64_t pointSeed(std::uint64_t base, std::size_t index);

  private:
    Runner *runner_;
    int jobs_;
};

} // namespace dsarp

#endif // DSARP_SIM_PARALLEL_HH
