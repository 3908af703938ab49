/**
 * @file
 * Shared helpers for the bench binaries: bench_figures (figures.cc)
 * and the engine timing harness (perf_sweep.cc).
 *
 * Every figure prints (a) the paper's reference numbers where useful
 * and (b) the values this reproduction measures, in the same units, so
 * shape-level agreement can be read off directly. Absolute values
 * differ from the paper (scaled runs, synthetic workloads; see the
 * README's "Workload calibration").
 */

#ifndef DSARP_BENCH_BENCH_COMMON_HH
#define DSARP_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "dram/spec.hh"
#include "sim/runner.hh"

namespace dsarp::bench {

/** All three paper densities, in order. */
inline std::vector<Density>
densities()
{
    return {Density::k8Gb, Density::k16Gb, Density::k32Gb};
}

/**
 * True when the DRAM spec named @p spec declares same-bank refresh
 * support, i.e. the REFsb/HiRAsb columns are meaningful for it.
 */
inline bool
specSupportsSameBank(const std::string &spec)
{
    return DramSpecRegistry::instance().at(spec).banksPerGroup > 0;
}

/**
 * The "FLAG VALUE" pairs of a command line, argv[first] onwards. Every
 * flag must be one of @p known and carry a value: an unknown flag, or
 * one with no value, is a fatal error naming it.
 */
inline std::vector<std::pair<std::string, std::string>>
flagPairs(int argc, char **argv, int first,
          std::initializer_list<const char *> known)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = first; i < argc; i += 2) {
        const auto is = [&](const char *k) {
            return std::strcmp(k, argv[i]) == 0;
        };
        if (std::none_of(known.begin(), known.end(), is)) {
            std::string flags;
            for (const char *k : known)
                flags += std::string(flags.empty() ? "" : " ") + k;
            DSARP_FATALF("%s: unknown flag (flags: %s)", argv[i],
                         flags.c_str());
        }
        if (i + 1 >= argc)
            DSARP_FATALF("%s needs a value", argv[i]);
        pairs.emplace_back(argv[i], argv[i + 1]);
    }
    return pairs;
}

/**
 * @p text, the value given to @p flag, as an int of at least @p min. A
 * malformed or out-of-range value is a fatal error naming the flag;
 * @p what describes a valid value ("a positive channel count").
 */
inline int
intFlag(const char *flag, const std::string &text, int min,
        const char *what)
{
    char *end = nullptr;
    errno = 0;
    const long n = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        n < min || n > INT_MAX) {
        DSARP_FATALF("%s: '%s' is not %s (%d to %d)", flag, text.c_str(),
                     what, min, INT_MAX);
    }
    return static_cast<int>(n);
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
