/**
 * @file
 * Wall-clock benchmark of the simulation engines over the fig13
 * all-mechanisms x all-specs grid, written to BENCH_sweep.json.
 *
 * Three timed passes over the same grid: the seed configuration
 * (cycle engine, one thread), the event engine on one thread, and the
 * event engine sharded across --jobs worker threads. Each pass reports
 * its wall seconds and the process CPU seconds it used (all threads).
 * The alone-IPC cache is prewarmed before any pass so the baselines'
 * simulation cost is charged to none of them. Exits non-zero when the
 * event engine's wall time exceeds the cycle engine's beyond
 * --tolerance, which is the CI perf-smoke gate.
 *
 * Each pass also folds every run's command digest (RunResult::
 * cmdDigest) into a per-point and a whole-grid digest, in grid and
 * workload order, so --jobs cannot change them. A digest that differs
 * between passes fails the gate exactly like a ws_sum mismatch.
 *
 * Flags: --grid fig13|smoke, --jobs N (default 4), --tolerance F (a
 * non-negative fraction, default 0.05), --out FILE (plus the usual
 * DSARP_BENCH_* scale knobs). An unknown flag, a flag without a value
 * or a bad value is a fatal error naming the flag.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "sim/parallel.hh"

using namespace dsarp;
using namespace dsarp::bench;

namespace {

/** One timed pass over the whole grid. */
struct PassResult
{
    std::string engine;
    int jobs = 0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;  ///< Process CPU time, every thread.
    double simCyclesPerSec = 0.0;
    std::vector<double> pointSeconds;
    std::vector<std::uint64_t> pointDigests;
    double wsSum = 0.0;  ///< Fingerprint: identical across passes.
    std::uint64_t digest = 0;  ///< Command-stream fingerprint, likewise.
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Time one full pass over the grid. Each grid point shards its
 * workload list through SweepRunner; per-point wall seconds land in
 * PassResult::pointSeconds.
 */
PassResult
runPass(Runner &runner, const std::vector<SystemConfig> &grid,
        const std::vector<Workload> &workloads, const char *engine,
        int jobs)
{
    PassResult pass;
    pass.engine = engine;
    pass.jobs = jobs;
    SweepRunner sharded(runner, jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const std::clock_t c0 = std::clock();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const MemConfig &mem = grid[i].mem;
        std::fprintf(stderr, "  [%s %d] %s %s %s (%zu/%zu)%10s\r", engine,
                     jobs, mem.dramSpec.c_str(), mem.policy.c_str(),
                     densityName(mem.density), i + 1, grid.size(), "");
        SystemConfig cfg = grid[i];
        cfg.engine = engine;
        std::vector<SweepPoint> points;
        for (const Workload &w : workloads)
            points.push_back({cfg, w});
        const auto p0 = std::chrono::steady_clock::now();
        const auto results = sharded.run(points);
        pass.pointSeconds.push_back(secondsSince(p0));
        std::uint64_t point_digest = 0;
        for (const RunResult &r : results) {
            pass.wsSum += r.ws;
            point_digest = mix64(point_digest ^ r.cmdDigest);
        }
        pass.pointDigests.push_back(point_digest);
        pass.digest = mix64(pass.digest ^ point_digest);
    }
    pass.wallSeconds = secondsSince(t0);
    pass.cpuSeconds = static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    std::fprintf(stderr, "%70s\r", "");
    const double simCycles =
        static_cast<double>(runner.warmupTicks() + runner.measureTicks()) *
        static_cast<double>(grid.size()) *
        static_cast<double>(workloads.size());
    pass.simCyclesPerSec =
        pass.wallSeconds > 0.0 ? simCycles / pass.wallSeconds : 0.0;
    return pass;
}

void
writeJsonPass(std::FILE *f, const PassResult &p, bool last)
{
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"jobs\": %d, "
                 "\"wall_seconds\": %.6f, \"cpu_seconds\": %.6f, "
                 "\"sim_cycles_per_sec\": %.1f, "
                 "\"ws_sum\": %.9f, \"digest\": \"%016llx\",\n"
                 "     \"point_seconds\": [",
                 p.engine.c_str(), p.jobs, p.wallSeconds, p.cpuSeconds,
                 p.simCyclesPerSec, p.wsSum,
                 static_cast<unsigned long long>(p.digest));
    for (std::size_t i = 0; i < p.pointSeconds.size(); ++i)
        std::fprintf(f, "%s%.6f", i ? ", " : "", p.pointSeconds[i]);
    std::fprintf(f, "],\n     \"point_digests\": [");
    for (std::size_t i = 0; i < p.pointDigests.size(); ++i) {
        std::fprintf(f, "%s\"%016llx\"", i ? ", " : "",
                     static_cast<unsigned long long>(p.pointDigests[i]));
    }
    std::fprintf(f, "]}%s\n", last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    int jobs = 4;  // The sharded pass's workers.
    std::string grid_name = "fig13";
    std::string out_path = "BENCH_sweep.json";
    double tolerance = 0.05;
    for (const auto &[flag, value] :
         flagPairs(argc, argv, 1,
                   {"--grid", "--jobs", "--tolerance", "--out"})) {
        if (flag == "--grid") {
            grid_name = value;
        } else if (flag == "--jobs") {
            jobs = intFlag("--jobs", value, 1, "a positive worker count");
        } else if (flag == "--out") {
            out_path = value;
        } else {
            char *end = nullptr;
            tolerance = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !std::isfinite(tolerance) || tolerance < 0.0)
                DSARP_FATALF("--tolerance: '%s' is not a non-negative "
                             "number",
                             value.c_str());
        }
    }
    if (grid_name != "fig13" && grid_name != "smoke")
        DSARP_FATALF("--grid: '%s' is not \"fig13\" or \"smoke\"",
                     grid_name.c_str());
    banner("perf_sweep",
           "engine wall-clock over the fig13 mechanisms x specs grid");

    // The grid. fig13: every registered spec x the fig13 mechanism
    // list (REFsb only where the spec supports it) x every density.
    // smoke: the two golden-baseline specs x three mechanisms x 8Gb,
    // small enough for a CI gate.
    std::vector<SystemConfig> grid;
    const auto point = [&](const std::string &spec, const std::string &mech,
                           Density d) {
        SystemConfig cfg;
        cfg.mem.dramSpec = spec;
        cfg.mem.policy = mech;
        cfg.mem.density = d;
        grid.push_back(cfg);
    };
    const std::vector<const char *> fig13_mechs = {
        "REFab",  "REFpb", "Elastic", "DARP", "SARPab",
        "SARPpb", "DSARP", "HiRA",    "NoREF"};
    if (grid_name == "fig13") {
        for (const std::string &spec :
             DramSpecRegistry::instance().names()) {
            std::vector<std::string> mechs(fig13_mechs.begin(),
                                           fig13_mechs.end());
            if (specSupportsSameBank(spec))
                mechs.insert(mechs.begin() + 2, "REFsb");
            for (const std::string &mech : mechs)
                for (Density d : densities())
                    point(spec, mech, d);
        }
    } else {
        for (const char *spec : {"DDR3-1333", "DDR5-4800"}) {
            std::vector<std::string> mechs = {"REFab", "DSARP", "NoREF"};
            if (specSupportsSameBank(spec))
                mechs.push_back("REFsb");
            for (const std::string &mech : mechs)
                point(spec, mech, Density::k8Gb);
        }
    }

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);
    std::printf("grid: %s (%zu points x %zu workloads), jobs: %d, "
                "hardware threads: %u\n",
                grid_name.c_str(), grid.size(), workloads.size(), jobs,
                std::thread::hardware_concurrency());

    // Prewarm the process-wide alone-IPC cache so baseline simulation
    // cost is charged to no timed pass (the cache key ignores the
    // engine, so one pass would otherwise get it for free anyway).
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<SystemConfig> warm;
        for (const SystemConfig &cfg : grid) {
            if (cfg.mem.policy == fig13_mechs.front())
                warm.push_back(cfg);  // One mechanism per (spec, density).
        }
        parallelFor(jobs, warm.size(), [&](std::size_t i) {
            for (const Workload &w : workloads)
                for (int bench : w.benchIdx)
                    runner.aloneIpc(bench, warm[i]);
        });
        std::printf("alone-IPC prewarm: %.2fs\n", secondsSince(t0));
    }

    // Pass 1 is the seed configuration this PR is measured against:
    // the cycle-by-cycle engine on a single thread.
    std::vector<PassResult> passes;
    const auto timed = [&](const char *engine, int pass_jobs) {
        passes.push_back(runPass(runner, grid, workloads, engine, pass_jobs));
        const PassResult &p = passes.back();
        std::printf("%s x%d: %8.2fs  cpu %8.2fs  (%.2e sim-cycles/sec)  "
                    "digest %016llx\n",
                    engine, pass_jobs, p.wallSeconds, p.cpuSeconds,
                    p.simCyclesPerSec,
                    static_cast<unsigned long long>(p.digest));
    };
    timed("cycle", 1);
    timed("event", 1);
    timed("event", jobs);

    const double cycle1 = passes[0].wallSeconds;
    const double event1 = passes[1].wallSeconds;
    const double eventJ = passes[2].wallSeconds;
    const bool identical = passes[0].wsSum == passes[1].wsSum &&
                           passes[0].wsSum == passes[2].wsSum &&
                           passes[0].digest == passes[1].digest &&
                           passes[0].digest == passes[2].digest;
    std::printf("speedup event x1 vs cycle x1: %.3fx\n", cycle1 / event1);
    std::printf("speedup event x%d vs cycle x1: %.3fx\n", jobs,
                cycle1 / eventJ);
    std::printf("results identical across passes: %s\n",
                identical ? "yes" : "NO");

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        DSARP_FATALF("cannot write %s", out_path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"perf_sweep\",\n");
    std::fprintf(f, "  \"grid\": \"%s\",\n", grid_name.c_str());
    std::fprintf(f, "  \"points\": %zu,\n", grid.size());
    std::fprintf(f, "  \"workloads_per_point\": %zu,\n", workloads.size());
    std::fprintf(f, "  \"warmup_cycles\": %llu,\n",
                 static_cast<unsigned long long>(runner.warmupTicks()));
    std::fprintf(f, "  \"measure_cycles\": %llu,\n",
                 static_cast<unsigned long long>(runner.measureTicks()));
    std::fprintf(f, "  \"jobs\": %d,\n", jobs);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"seed_cycle_x1_wall_seconds\": %.6f,\n", cycle1);
    std::fprintf(f, "  \"event_x1_wall_seconds\": %.6f,\n", event1);
    std::fprintf(f, "  \"event_xjobs_wall_seconds\": %.6f,\n", eventJ);
    std::fprintf(f, "  \"speedup_event_x1_vs_cycle_x1\": %.4f,\n",
                 cycle1 / event1);
    std::fprintf(f, "  \"speedup_event_xjobs_vs_cycle_x1\": %.4f,\n",
                 cycle1 / eventJ);
    std::fprintf(f, "  \"results_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"gate_tolerance\": %.4f,\n", tolerance);
    const bool gate_ok = identical && event1 <= cycle1 * (1.0 + tolerance);
    std::fprintf(f, "  \"gate_pass\": %s,\n", gate_ok ? "true" : "false");
    std::fprintf(f, "  \"passes\": [\n");
    for (std::size_t i = 0; i < passes.size(); ++i)
        writeJsonPass(f, passes[i], i + 1 == passes.size());
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    if (!gate_ok) {
        std::fprintf(stderr,
                     "FAIL: event engine %.2fs vs cycle %.2fs "
                     "(tolerance %.1f%%) or results diverged\n",
                     event1, cycle1, tolerance * 100.0);
        return 1;
    }
    footer(runner);
    return 0;
}
