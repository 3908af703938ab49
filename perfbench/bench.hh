/**
 * @file
 * Shared declarations of the repository benchmark harness.
 *
 * The harness links the simulator library and drives it through public
 * API only. workloads.cc defines the three workloads and the simulated
 * (model) metrics and ordering checks on their results; traced.cc holds
 * the per-layer tracing run; harness.cc is the command line, the timed
 * leg and the correctness leg.
 */

#ifndef DSARP_PERFBENCH_BENCH_HH
#define DSARP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "workload/workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One simulated run of a workload's pass. */
struct Point
{
    dsarp::RunConfig cfg;  ///< Mechanism, device, front end, seed.
    dsarp::Workload mix;   ///< Closed loop: one benchmark per core.
};

/** A named benchmark workload: the run list one pass executes. */
struct WorkloadDef
{
    std::string name;
    bool openLoop = false;
    int jobs = 1;             ///< Worker threads of the timed leg.
    dsarp::Tick warmup = 0;   ///< Simulated cycles per run before stats.
    dsarp::Tick measure = 0;  ///< Simulated cycles per measured window.
    std::vector<std::string> mechs;  ///< Canonical registry names.
    std::vector<Point> points;       ///< One pass, in a fixed order.

    dsarp::Tick cyclesPerRun() const { return warmup + measure; }
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/**
 * Build workload @p name with every input drawn from @p seed: the
 * mixes, the open-loop arrival seeds and each point's simulator seed.
 * Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  WorkloadDef &out);

/** Alone-IPC baselines every closed-loop point needs, on @p jobs
 *  threads (the setup step the timed runs then hit in the cache). */
void prewarmBaselines(dsarp::Runner &runner, const WorkloadDef &w,
                      int jobs);

/** One untraced run through Runner::run / Runner::runTraffic. */
dsarp::RunResult runPoint(dsarp::Runner &runner, const Point &p);

/**
 * Everything a RunResult reports, doubles as bit patterns, so equal
 * strings mean bit-identical results.
 */
std::string signature(const dsarp::RunResult &r);

/** The simulated (model) end-to-end metrics of one pass. */
struct ModelMetrics
{
    double wsDsarpGmean = 0.0;
    double wsGainDsarpPct = 0.0;
    double readP50 = 0.0;
    double readP99 = 0.0;
    double p99CutDsarpPct = 0.0;
    double energyNjPerAccess = 0.0;
    /** Paper-order checks: each is (description, passed). */
    std::vector<std::pair<std::string, bool>> orderChecks;
};

/** Summarize one pass; @p results[i] belongs to w.points[i]. */
ModelMetrics summarize(const WorkloadDef &w,
                       const std::vector<dsarp::RunResult> &results);

/** Per-layer metrics from the traced run, by BENCHMARK.json name. */
struct LayerReport
{
    std::map<std::string, double> metrics;
    int transparencyChecks = 0;
    int transparencyFailures = 0;
};

/**
 * The traced run over @p sample (indices into w.points): an untraced
 * pass on w.jobs workers, the same points through the harness's own
 * copy of the engine loop with timing decorators in the refresh-policy
 * and address-map registries, a signature comparison of the two, and
 * the per-layer metrics. @p aloneIpcSeconds is the setup prewarm time.
 */
LayerReport tracedRun(dsarp::Runner &runner, const WorkloadDef &w,
                      const std::vector<std::size_t> &sample,
                      double aloneIpcSeconds);

} // namespace perfbench

#endif // DSARP_PERFBENCH_BENCH_HH
