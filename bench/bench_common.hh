/**
 * @file
 * Shared helpers for the per-figure/per-table bench binaries.
 *
 * Every binary prints (a) the paper's reference numbers where useful and
 * (b) the values this reproduction measures, in the same units, so
 * shape-level agreement can be read off directly. Absolute values differ
 * from the paper (scaled runs, synthetic traces; see DESIGN.md §5).
 */

#ifndef DSARP_BENCH_BENCH_COMMON_HH
#define DSARP_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "dram/spec.hh"
#include "sim/parallel.hh"
#include "sim/runner.hh"
#include "workload/workload.hh"

namespace dsarp::bench {

/** All three paper densities, in order. */
inline std::vector<Density>
densities()
{
    return {Density::k8Gb, Density::k16Gb, Density::k32Gb};
}

/**
 * The bench-wide DRAM spec axis: the DSARP_DRAM_SPEC environment knob,
 * canonicalised through the registry (fatal named-key error on an
 * unknown name). Empty when unset, which keeps the library default
 * (DDR3-1333). Every bench that sweeps through sweep()/mechNamed()
 * honours it, so any figure can be re-run per backend:
 *
 *   DSARP_DRAM_SPEC=LPDDR4-3200 ./bench_fig13_all_mechanisms
 */
inline std::string
defaultSpec()
{
    const char *env = std::getenv("DSARP_DRAM_SPEC");
    if (!env || !*env)
        return "";
    return DramSpecRegistry::instance().at(env).name;
}

/**
 * The spec axis from the command line: "--spec NAME" (canonicalised,
 * fatal on unknown names) wins over DSARP_DRAM_SPEC, which wins over
 * the DDR3-1333 default. Benches pass argc/argv straight through.
 */
inline std::string
specFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spec") == 0) {
            if (i + 1 >= argc)
                DSARP_FATAL("--spec needs a value (a registered DRAM "
                            "spec name)");
            return DramSpecRegistry::instance().at(argv[i + 1]).name;
        }
    }
    return defaultSpec();
}

/**
 * True when the (possibly empty = default DDR3-1333) spec name on a
 * bench's spec axis declares same-bank refresh support, i.e. the
 * REFsb/HiRAsb columns are meaningful for it.
 */
inline bool
specSupportsSameBank(const std::string &spec)
{
    const std::string name = spec.empty() ? "DDR3-1333" : spec;
    return DramSpecRegistry::instance().at(name).banksPerGroup > 0;
}

/**
 * The value of "FLAG N" on the command line, an int of at least
 * @p min; @p absent when the flag is not given. A missing, malformed
 * or out-of-range value is a fatal error naming the flag; @p what
 * describes a valid value ("a positive channel count"). Benches pass
 * argc/argv straight through, exactly like specFromArgs().
 */
inline int
intFlag(int argc, char **argv, const char *flag, int min, int absent,
        const char *what)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (i + 1 >= argc)
            DSARP_FATALF("%s needs a value (%s)", flag, what);
        const char *text = argv[i + 1];
        char *end = nullptr;
        errno = 0;
        const long n = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || errno == ERANGE || n < min ||
            n > INT_MAX) {
            DSARP_FATALF("%s: '%s' is not %s (%d to %d)", flag, text, what,
                         min, INT_MAX);
        }
        return static_cast<int>(n);
    }
    return absent;
}

/**
 * The channel-count axis from the command line: "--channels N", 0
 * when absent = keep the library default topology.
 */
inline int
channelsFromArgs(int argc, char **argv)
{
    return intFlag(argc, argv, "--channels", 1, 0, "a positive channel count");
}

/**
 * The bench-wide worker count: every binary's sweep() calls shard
 * their workload list across this many threads. Defaults to the
 * DSARP_JOBS environment knob (itself defaulting to 1 = serial);
 * "--jobs N" on the command line wins (applyJobsFromArgs()). Results
 * are byte-identical for any value -- see sim/parallel.hh.
 */
inline int &
sweepJobs()
{
    static int jobs = static_cast<int>(envKnob("DSARP_JOBS", 1));
    return jobs;
}

/** Parse "--jobs N", when given, into the bench-wide worker count. */
inline void
applyJobsFromArgs(int argc, char **argv)
{
    sweepJobs() = intFlag(argc, argv, "--jobs", 1, sweepJobs(),
                          "a positive worker count");
}

/** Print a figure/table banner. */
inline void
banner(const char *id, const char *what)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", id, what);
    std::printf("==============================================================\n");
}

/** Print the run-scale footer so outputs are self-describing. */
inline void
footer(const Runner &runner)
{
    std::printf("\n[scale: %llu warmup + %llu measured DRAM cycles, "
                "%d workloads/category; env DSARP_BENCH_* raises fidelity]\n\n",
                static_cast<unsigned long long>(runner.warmupTicks()),
                static_cast<unsigned long long>(runner.measureTicks()),
                runner.workloadsPerCategory());
}

/** Percentage improvement of @p x over @p base. */
inline double
pctOver(double x, double base)
{
    return (x / base - 1.0) * 100.0;
}

/** Geometric-mean percentage improvement across paired samples. */
inline double
gmeanPctOver(const std::vector<double> &xs, const std::vector<double> &bases)
{
    std::vector<double> ratios;
    ratios.reserve(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        ratios.push_back(xs[i] / bases[i]);
    return (gmean(ratios) - 1.0) * 100.0;
}

/** Maximum percentage improvement across paired samples. */
inline double
maxPctOver(const std::vector<double> &xs, const std::vector<double> &bases)
{
    double best = -1e9;
    for (std::size_t i = 0; i < xs.size(); ++i)
        best = std::max(best, pctOver(xs[i], bases[i]));
    return best;
}

/**
 * Run one mechanism over a workload list; progress to stderr. A sweep
 * point that did not pick a DRAM spec explicitly inherits the
 * DSARP_DRAM_SPEC axis, so existing benches re-run per backend without
 * per-figure wiring.
 */
inline std::vector<RunResult>
sweep(Runner &runner, const RunConfig &cfgIn,
      const std::vector<Workload> &workloads)
{
    RunConfig cfg = cfgIn;
    if (cfg.dramSpec.empty())
        cfg.dramSpec = defaultSpec();
    if (sweepJobs() > 1) {
        // Sharded across the bench-wide pool; SweepRunner collects
        // results by point index, so the output (and therefore every
        // printed figure) is byte-identical to the serial path.
        std::fprintf(stderr, "  [%s %s] %zu workloads x %d jobs\r",
                     densityName(cfg.density),
                     cfg.mechanismName().c_str(), workloads.size(),
                     sweepJobs());
        SweepRunner sharded(runner, sweepJobs());
        auto out = sharded.run(cfg, workloads);
        std::fprintf(stderr, "%60s\r", "");
        return out;
    }
    std::vector<RunResult> out;
    out.reserve(workloads.size());
    for (const Workload &w : workloads) {
        std::fprintf(stderr, "  [%s %s] workload %d/%zu\r",
                     densityName(cfg.density),
                     cfg.mechanismName().c_str(), w.index + 1,
                     workloads.size());
        out.push_back(runner.run(cfg, w));
    }
    std::fprintf(stderr, "%60s\r", "");
    return out;
}

/** Pull WS samples from a result vector. */
inline std::vector<double>
wsOf(const std::vector<RunResult> &results)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const RunResult &r : results)
        out.push_back(r.ws);
    return out;
}

/** Pull energy-per-access samples from a result vector. */
inline std::vector<double>
energyOf(const std::vector<RunResult> &results)
{
    std::vector<double> out;
    out.reserve(results.size());
    for (const RunResult &r : results)
        out.push_back(r.energyPerAccessNj);
    return out;
}

} // namespace dsarp::bench

#endif // DSARP_BENCH_BENCH_COMMON_HH
