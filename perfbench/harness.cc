/**
 * @file
 * Repository benchmark: one workload per invocation.
 *
 *   dsarp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--commit ID]
 *
 * --trace 0: set-up (sampled in forked children, median reported), a
 * timed leg that repeats the workload's pass on its worker count until
 * S seconds have passed (the first pass always completes), then an
 * untimed correctness leg. Prints every end-to-end metric.
 * --trace 1: set-up, then the traced run over a fixed sample of the
 * pass (traced.cc). Prints every per-layer metric.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. Any failed run or check makes the exit code 1.
 */

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "sim/checker.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"

using namespace dsarp;
using namespace perfbench;

namespace {

/** Set-up repetitions in forked children, besides the parent's own. */
constexpr int kSetupChildren = 6;

/** Open-loop load check: a point whose tenants got less than this
 *  share of their arrivals into the controllers is flagged. */
constexpr double kMinInjectedFrac = 0.99;
/** ... as is one whose backlog grew by more than this many requests
 *  over the measurement window (one read-queue's worth). */
constexpr double kMaxBacklogGrowth = 64.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: dsarp_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--commit ID]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            errno = 0;
            a.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = !value.empty() && *end == '\0' && value[0] != '-' &&
                errno != ERANGE;
            if (!haveSeed)
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1" ? 1 : 0;
        } else if (flag == "--commit") {
            a.commit = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || !haveSeed || a.seconds <= 0.0 || a.trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

/** Simulator fatal errors become exceptions, so one bad run is counted
 *  as failed instead of ending the process. */
void
throwingFatal(const char *file, int line, const char *msg)
{
    throw std::runtime_error(std::string(msg) + " (" + file + ":" +
                             std::to_string(line) + ")");
}

constexpr bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

constexpr bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

/** Everything before the first timed run. */
struct Setup
{
    WorkloadDef w;
    std::unique_ptr<Runner> runner;
    double seconds = 0.0;
    double aloneIpcSeconds = 0.0;
};

Setup
doSetup(const std::string &name, std::uint64_t seed)
{
    Setup s;
    const auto t0 = Clock::now();
    if (!makeWorkload(name, seed, s.w))
        throw std::runtime_error("unknown workload " + name);
    s.runner = std::make_unique<Runner>(s.w.warmup, s.w.measure);
    // Named-key config errors surface here, before anything is timed.
    for (const Point &p : s.w.points) {
        SystemConfig sys = Runner::makeSystemConfig(p.cfg);
        sys.finalize();
    }
    const auto t1 = Clock::now();
    prewarmBaselines(*s.runner, s.w, s.w.jobs);
    s.aloneIpcSeconds = secondsSince(t1);
    s.seconds = secondsSince(t0);
    return s;
}

/**
 * Set-up time of a fresh process, @p n times: each forked child sets
 * up from scratch (the alone-IPC cache is process-wide) and reports
 * its seconds through a pipe. Failed children yield no sample.
 */
std::vector<double>
setupSamples(const Args &a, int n, int &failures)
{
    std::vector<double> out;
    std::fflush(nullptr);
    for (int k = 0; k < n; ++k) {
        int fds[2];
        if (pipe(fds) != 0) {
            ++failures;
            continue;
        }
        const pid_t pid = fork();
        if (pid == 0) {
            close(fds[0]);
            int code = 1;
            try {
                const double s = doSetup(a.workload, a.seed).seconds;
                if (write(fds[1], &s, sizeof(s)) == sizeof(s))
                    code = 0;
            } catch (const std::exception &) {
            }
            _exit(code);
        }
        close(fds[1]);
        double s = 0.0;
        const bool got = pid > 0 && read(fds[0], &s, sizeof(s)) == sizeof(s);
        close(fds[0]);
        int status = 0;
        const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (got && exited)
            out.push_back(s);
        else
            ++failures;
    }
    return out;
}

/** This process's peak resident set (VmHWM). getrusage() would report
 *  the launching process's peak too: ru_maxrss survives exec. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::atof(line + 6);
    }
    std::fclose(f);
    return kb / 1024.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** The timed leg's raw outcome. */
struct TimedLeg
{
    std::vector<RunResult> first;  ///< The first pass, point order.
    std::vector<bool> firstOk;
    /** Per point, its run seconds in every pass that completed it. */
    std::vector<std::vector<double>> pointSeconds;
    std::vector<double> passRates;  ///< Simulated cycles per wall second.
    int runs = 0;
    int failedRuns = 0;
    int repeatChecks = 0;
    int repeatMismatches = 0;
};

/**
 * Whole passes over the workload on its worker count: at least
 * kMinPasses, then more while another pass of the last one's length
 * still ends within @p seconds. Host noise on a shared machine comes
 * in bursts, and on two workers one thread can sit on a busier core;
 * the best of several passes, per point and per pass, is the figure
 * least moved by either.
 */
TimedLeg
timedLeg(Runner &runner, const WorkloadDef &w, double seconds)
{
    constexpr int kMinPasses = 3;
    const std::size_t n = w.points.size();
    TimedLeg leg;
    leg.first.resize(n);
    leg.firstOk.assign(n, false);
    leg.pointSeconds.resize(n);
    std::mutex mu;

    const auto t0 = Clock::now();
    double lastWall = 0.0;
    for (int pass = 0;
         pass < kMinPasses || secondsSince(t0) + lastWall <= seconds;
         ++pass) {
        std::vector<std::string> sigs(n);
        std::vector<double> secs(n, -1.0);
        const auto p0 = Clock::now();
        parallelFor(w.jobs, n, [&](std::size_t k) {
            const auto r0 = Clock::now();
            try {
                RunResult r = runPoint(runner, w.points[k]);
                secs[k] = secondsSince(r0);
                if (pass == 0) {
                    leg.first[k] = std::move(r);
                } else {
                    sigs[k] = signature(r);
                }
            } catch (const std::exception &e) {
                const std::lock_guard<std::mutex> lock(mu);
                std::printf("FAIL run of point %zu: %s\n", k, e.what());
            }
        });
        const double wall = secondsSince(p0);
        lastWall = wall;

        int done = 0;
        for (std::size_t k = 0; k < n; ++k) {
            if (secs[k] < 0.0) {
                ++leg.failedRuns;
                continue;
            }
            ++done;
            leg.pointSeconds[k].push_back(secs[k]);
            if (pass == 0)
                leg.firstOk[k] = true;
            // A repeated point must reproduce its first result exactly.
            if (pass > 0 && leg.firstOk[k]) {
                ++leg.repeatChecks;
                if (sigs[k] != signature(leg.first[k])) {
                    ++leg.repeatMismatches;
                    std::printf("FAIL pass %d of point %zu differs from "
                                "its first run\n",
                                pass, k);
                }
            }
        }
        leg.runs += done;
        leg.passRates.push_back(static_cast<double>(done) *
                                static_cast<double>(w.cyclesPerRun()) /
                                wall);
    }
    return leg;
}

/** Untimed checks; each failure is printed and counted. */
struct Checks
{
    int attempted = 0;
    int failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAIL %s\n", what.c_str());
        }
    }
};

/** The first point of each mechanism (open loop: of each rate too). */
std::vector<std::size_t>
representativePoints(const WorkloadDef &w)
{
    std::vector<std::size_t> out;
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const RunConfig &c = w.points[i].cfg;
        const std::string key =
            c.policy + "@" + std::to_string(c.traffic.ratePerKilocycle);
        if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
            seen.push_back(key);
            out.push_back(i);
        }
    }
    return out;
}

void
correctnessLeg(Runner &runner, const WorkloadDef &w, const TimedLeg &leg,
               const ModelMetrics &model, Checks &checks)
{
    for (const std::size_t k : representativePoints(w)) {
        const Point &p = w.points[k];
        const std::string where = w.name + " point " + std::to_string(k) +
            " (" + p.cfg.policy + ")";

        // Offline protocol checker over every channel's command log.
        try {
            SystemConfig sys = Runner::makeSystemConfig(p.cfg);
            sys.enableChecker = true;
            std::unique_ptr<System> system = w.openLoop
                ? std::make_unique<System>(sys)
                : std::make_unique<System>(sys, p.mix.benchIdx);
            system->run(w.warmup);
            system->resetStats();
            system->run(w.measure);
            for (int ch = 0; ch < system->numChannels(); ++ch) {
                const CheckerReport rep =
                    verifyCommandLog(system->commandLog(ch),
                                     system->config().mem,
                                     system->timing(), system->now());
                checks.expect(rep.ok(),
                              "checker on " + where + " channel " +
                                  std::to_string(ch) + ": " +
                                  (rep.ok() ? "" : rep.violations.front()));
            }
        } catch (const std::exception &e) {
            checks.expect(false, "checker on " + where + ": " + e.what());
        }

        // The other engine must give a bit-identical result.
        if (!leg.firstOk[k])
            continue;
        Point other = p;
        other.cfg.engine = p.cfg.engine == "event" ? "cycle" : "event";
        try {
            const RunResult r = runPoint(runner, other);
            checks.expect(signature(r) == signature(leg.first[k]),
                          other.cfg.engine + " engine matches on " + where);
        } catch (const std::exception &e) {
            checks.expect(false, "engine rerun on " + where + ": " + e.what());
        }
    }

    for (const auto &[what, ok] : model.orderChecks)
        checks.expect(ok, "paper order: " + what);

    // Open-loop load check. Over the measurement window every arrival
    // is either injected or still queued, so generated - injected is
    // exactly the backlog's growth since the end of warm-up.
    if (w.openLoop) {
        for (std::size_t k = 0; k < w.points.size(); ++k) {
            if (!leg.firstOk[k])
                continue;
            double gen = 0.0, inj = 0.0;
            for (const TenantResult &t : leg.first[k].tenants) {
                gen += static_cast<double>(t.generated);
                inj += static_cast<double>(t.injected);
            }
            const double frac = gen > 0.0 ? inj / gen : 0.0;
            char buf[200];
            std::snprintf(buf, sizeof(buf),
                          "bounded backlog at point %zu (%s, rate %.0f): "
                          "injected %.4f of arrivals, backlog grew %.0f",
                          k, w.points[k].cfg.policy.c_str(),
                          w.points[k].cfg.traffic.ratePerKilocycle, frac,
                          gen - inj);
            checks.expect(frac >= kMinInjectedFrac &&
                              gen - inj <= kMaxBacklogGrowth,
                          buf);
        }
    }
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, long attempted, long failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Per-layer metrics in BENCHMARK.json order, with their units. */
const std::vector<std::pair<std::string, std::string>> kLayerUnits = {
    {"sim.run_ns_per_cycle", "ns"},
    {"sim.build_ms", "ms"},
    {"sim.alone_ipc_s", "s"},
    {"sim.parallel_eff", "ratio"},
    {"sim.ctl_exec_frac", "ratio"},
    {"sim.ctl_mean_skip", "cycles"},
    {"controller.tick_ns", "ns"},
    {"controller.demand_cmds_per_kcycle", "cmds/kcycle"},
    {"controller.read_q_occ", "requests"},
    {"controller.writeback_frac", "ratio"},
    {"refresh.call_ns", "ns"},
    {"refresh.host_share", "ratio"},
    {"refresh.wake_now_frac", "ratio"},
    {"refresh.cmds_per_kcycle", "cmds/kcycle"},
    {"refresh.postponed", "count/run"},
    {"refresh.pulled_in", "count/run"},
    {"dram.decode_ns", "ns"},
    {"dram.refresh_busy_frac", "ratio"},
    {"dram.sr_resident_frac", "ratio"},
    {"core.tick_ns", "ns"},
    {"core.read_stall_frac", "ratio"},
    {"workload.injector_tick_ns", "ns"},
    {"workload.injected_frac", "ratio"},
    {"workload.backlog_mean", "requests"},
    {"trace_overhead_pct", "%"},
};

/** Five groups of the pass (a mix, or a rate x arrival seed), spread
 *  evenly, with every mechanism of each group. */
std::vector<std::size_t>
traceSample(const WorkloadDef &w)
{
    const std::size_t mechs = w.mechs.size();
    const std::size_t groups = w.points.size() / mechs;
    const std::size_t stride = std::max<std::size_t>(1, groups / 5);
    std::vector<std::size_t> out;
    for (std::size_t g = 0; g < groups && out.size() < 5 * mechs;
         g += stride) {
        for (std::size_t m = 0; m < mechs; ++m)
            out.push_back(g * mechs + m);
    }
    return out;
}

int
runTraced(Setup &setup)
{
    LayerReport rep;
    try {
        rep = tracedRun(*setup.runner, setup.w, traceSample(setup.w),
                        setup.aloneIpcSeconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "traced run failed: %s\n", e.what());
        return 1;
    }
    std::vector<Metric> metrics;
    long failed = rep.transparencyFailures;
    for (const auto &[name, unit] : kLayerUnits) {
        const auto it = rep.metrics.find(name);
        if (it == rep.metrics.end()) {
            std::printf("FAIL per-layer metric %s missing\n", name.c_str());
            ++failed;
            continue;
        }
        metrics.push_back({name, it->second, unit});
    }
    printResult(failed == 0, rep.transparencyChecks, failed, metrics);
    return failed == 0 ? 0 : 1;
}

int
runTimed(const Args &a, Setup &setup, std::vector<double> setupTimes,
         int setupFailures)
{
    const WorkloadDef &w = setup.w;
    const TimedLeg leg = timedLeg(*setup.runner, w, a.seconds);

    bool allFirst = true;
    for (std::size_t k = 0; k < w.points.size(); ++k)
        allFirst = allFirst && leg.firstOk[k];
    Checks checks;
    ModelMetrics model;
    if (allFirst) {
        model = summarize(w, leg.first);
        correctnessLeg(*setup.runner, w, leg, model, checks);
    } else {
        checks.expect(false, "first pass incomplete: no model metrics");
    }

    // One sample per point: its fastest run over the passes.
    std::vector<double> runSeconds;
    for (const std::vector<double> &v : leg.pointSeconds) {
        if (!v.empty())
            runSeconds.push_back(*std::min_element(v.begin(), v.end()));
    }
    const double p50 = percentile(runSeconds, 50);
    const double p90 = percentile(runSeconds, 90);
    std::printf("timed: %d runs in %zu passes on %d workers; run_s p50 "
                "%.4f p90 %.4f over %zu points (best of passes each)\n",
                leg.runs, leg.passRates.size(), w.jobs, p50, p90,
                runSeconds.size());
    std::printf("pass rates (cycles/s):");
    for (double r : leg.passRates)
        std::printf(" %.0f", r);
    std::printf("\n");

    const long attempted = static_cast<long>(leg.runs) +
        leg.failedRuns + leg.repeatChecks + checks.attempted +
        static_cast<long>(setupTimes.size()) + setupFailures;
    const long failed = leg.failedRuns + leg.repeatMismatches +
        checks.failed + setupFailures;
    std::printf("runs_failed_frac: %.6f (%ld of %ld runs and checks)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);

    const std::vector<Metric> metrics = {
        {"sim_cycles_per_s",
         maxOf(leg.passRates), "cycles/s"},
        {"run_s_p50", p50, "s"},
        {"run_s_p90", p90, "s"},
        {"setup_s", percentile(setupTimes, 50), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ws_dsarp_gmean", model.wsDsarpGmean, "ratio"},
        {"ws_gain_dsarp_pct", model.wsGainDsarpPct, "%"},
        {"read_p50_cycles", model.readP50, "cycles"},
        {"read_p99_cycles", model.readP99, "cycles"},
        {"p99_cut_dsarp_pct", model.p99CutDsarpPct, "%"},
        {"energy_nj_per_access", model.energyNjPerAccess, "nJ"},
    };
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const auto names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage(("unknown workload '" + a.workload + "'").c_str());

    std::printf("env: {\"nproc\": %d, \"hardware_concurrency\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"optimized\": %s, \"sanitizer\": %s, \"commit\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
                nproc(), std::thread::hardware_concurrency(),
                DSARP_BENCH_COMPILER, DSARP_BENCH_BUILD_TYPE,
                optimizedBuild() ? "true" : "false",
                sanitizerBuild() ? "true" : "false", a.commit.c_str(),
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.trace);
    if (!optimizedBuild() || sanitizerBuild()) {
        std::fprintf(stderr, "refusing to time an unoptimised or sanitizer "
                             "build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release\n");
        return 3;
    }
    setFatalHandler(throwingFatal);

    int setupFailures = 0;
    std::vector<double> setupTimes;
    if (a.trace == 0)
        setupTimes = setupSamples(a, kSetupChildren, setupFailures);
    Setup setup;
    try {
        setup = doSetup(a.workload, a.seed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        return 1;
    }
    setupTimes.push_back(setup.seconds);
    std::printf("setup: %zu points, %.4f s (alone-IPC prewarm %.4f s)\n",
                setup.w.points.size(), setup.seconds, setup.aloneIpcSeconds);

    return a.trace ? runTraced(setup)
                   : runTimed(a, setup, setupTimes, setupFailures);
}
