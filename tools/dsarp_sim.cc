/**
 * @file
 * dsarp_sim: command-line front end for one-off simulations.
 *
 * A thin shell over the library's layered configuration: every flag is
 * sugar for a key=value override on ExperimentConfig, applied in
 * precedence order defaults < --config file < DSARP_SET env < CLI.
 *
 * Usage:
 *   dsarp_sim [--mech NAME] [--map NAME] [--channels N]
 *             [--density 8|16|32] [--cores N]
 *             [--retention 32|64] [--subarrays N] [--cycles N]
 *             [--warmup N] [--seed N] [--workload-seed N]
 *             [--intensity 0|25|50|75|100] [--engine cycle|event]
 *             [--jobs N] [--config FILE] [--set key=value]
 *             [--list-mechs] [--list-maps] [--list-keys]
 *             [--list-benchmarks] [--help]
 *
 * Mechanism names come from the refresh-policy registry (--list-mechs);
 * adding a policy to the library makes it available here with no CLI
 * change.
 *
 * Prints the workload composition, per-core IPC against the alone-run
 * baseline, WS/HS/max-slowdown, refresh counters, and the energy
 * breakdown -- the same numbers the paper's tables are built from.
 * Every run also reports the read-latency distribution (mean and
 * p50/p99/p99.9) and a digest of the measured command stream (equal
 * digests: the same commands at the same ticks); --traffic switches
 * to the open-loop front end and adds the per-tenant table and
 * fairness figure.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "dram/address.hh"
#include "refresh/registry.hh"
#include "sim/cli.hh"
#include "sim/simulation.hh"
#include "workload/workload.hh"

using namespace dsarp;

namespace {

void
usage()
{
    std::printf(
        "dsarp_sim -- run one workload under one refresh mechanism\n\n"
        "  --mech NAME        refresh mechanism (--list-mechs)  [DSARP]\n"
        "  --spec NAME        DRAM spec, = dram.spec (--list-specs)\n"
        "                                                  [DDR3-1333]\n"
        "  --map NAME         address map, = address.map (--list-maps)\n"
        "                                                  [burst-ch]\n"
        "  --channels N       memory channels, = channels       [2]\n"
        "  --density GB       8 | 16 | 32                       [32]\n"
        "  --cores N          cores / workload slots            [8]\n"
        "  --retention MS     32 | 64                           [32]\n"
        "  --subarrays N      subarrays per bank                [8]\n"
        "  --cycles N         measured DRAM cycles  (env DSARP_BENCH_CYCLES)\n"
        "  --warmup N         warmup DRAM cycles    (env DSARP_BENCH_WARMUP)\n"
        "  --seed N           simulator seed                    [1]\n"
        "  --workload-seed N  workload mix seed                 [1]\n"
        "  --intensity PCT    0|25|50|75|100 intensive mix      [100]\n"
        "  --engine NAME      cycle | event, = sim.engine       [cycle]\n"
        "  --traffic MODE     open-loop arrivals, = traffic.mode\n"
        "                     (poisson|bursty|diurnal|trace)     [off]\n"
        "  --rate R           arrivals per kilocycle, = traffic.rate "
        "[50]\n"
        "  --tenants N        address-partitioned tenants, = tenant.count "
        "[1]\n"
        "  --trace FILE       DRAMSim-style trace, = traffic.trace\n"
        "                     (implies --traffic trace)\n"
        "  --jobs N           threads for the alone-IPC baselines [1]\n"
        "  --config FILE      key=value config file (layered first)\n"
        "  --set key=value    one config override (repeatable)\n"
        "  --list             print refresh mechanisms, DRAM specs and "
        "maps\n"
        "  --list-mechs       print the registered refresh mechanisms\n"
        "  --list-specs       print the registered DRAM specs\n"
        "  --list-maps        print the registered address maps\n"
        "  --list-keys        print every config key --set accepts\n"
        "  --list-benchmarks  print the benchmark catalogue\n"
        "\nDSARP_SET=\"key=value,...\" in the environment is applied\n"
        "between --config and the other flags.\n");
}

void
listMechs()
{
    const auto &registry = RefreshPolicyRegistry::instance();
    for (const std::string &name : registry.names())
        std::printf("%-10s %s\n", name.c_str(),
                    registry.find(name)->summary.c_str());
}

void
listSpecs()
{
    const auto &registry = DramSpecRegistry::instance();
    for (const std::string &name : registry.names()) {
        const DramSpec *spec = registry.find(name);
        std::printf("%-12s tCK %5.3f ns  %s\n", name.c_str(), spec->tCkNs.ns(),
                    spec->summary.c_str());
    }
}

void
listMaps()
{
    const auto &registry = AddressMapRegistry::instance();
    for (const std::string &name : registry.names())
        std::printf("%-12s %s\n", name.c_str(),
                    registry.find(name)->summary.c_str());
}

void
listAll()
{
    std::printf("refresh mechanisms (--mech):\n");
    listMechs();
    std::printf("\nDRAM specs (--spec / --set dram.spec=...):\n");
    listSpecs();
    std::printf("\naddress maps (--map / --set address.map=...):\n");
    listMaps();
}

void
listBenchmarks()
{
    std::printf("%-20s %6s %9s %5s %10s\n", "name", "MPKI", "locality",
                "wb%", "intensive");
    for (const Benchmark &b : benchmarkTable()) {
        std::printf("%-20s %6.1f %9.2f %4.0f%% %10s\n", b.name.c_str(),
                    b.profile.mpki, b.profile.rowLocality,
                    b.profile.writebackFraction * 100,
                    b.isIntensive() ? "yes" : "no");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CliResult cli =
        parseCommandLine(std::vector<std::string>(argv + 1, argv + argc));
    switch (cli.action) {
      case CliAction::Help:
        usage();
        return 0;
      case CliAction::ListAll:
        listAll();
        return 0;
      case CliAction::ListMechs:
        listMechs();
        return 0;
      case CliAction::ListSpecs:
        listSpecs();
        return 0;
      case CliAction::ListMaps:
        listMaps();
        return 0;
      case CliAction::ListKeys:
        for (const std::string &key : ExperimentConfig::knownKeys())
            std::printf("%s\n", key.c_str());
        return 0;
      case CliAction::ListBenchmarks:
        listBenchmarks();
        return 0;
      case CliAction::Error:
        std::fprintf(stderr, "%s\n", cli.error.c_str());
        if (cli.unknownOption)
            usage();
        return 1;
      case CliAction::Run:
        break;
    }
    const SystemConfig &sys = cli.config.sys;
    const int jobs = cli.jobs;

    Simulation sim = Simulation::builder().config(cli.config).build();

    std::printf("mechanism  : %s\n", sim.mechanismName().c_str());
    std::printf("dram spec  : %s (tCK %.3f ns)\n",
                sim.dramSpecName().c_str(), sim.dramSpec().tCkNs.ns());
    std::printf("density    : %s, retention %d ms, %d subarrays/bank\n",
                densityName(sys.mem.density), sys.mem.retentionMs,
                sys.mem.org.subarraysPerBank);
    const MemOrg org = sim.resolvedOrg();
    std::printf("topology   : %d channels x %d ranks x %d banks, "
                "map: %s\n",
                org.channels, org.ranksPerChannel, org.banksPerRank,
                sim.addressMapName().c_str());
    std::printf("system     : %d cores, %llu+%llu cycles\n", sys.numCores,
                static_cast<unsigned long long>(sim.warmupTicks()),
                static_cast<unsigned long long>(sim.measureTicks()));
    const TrafficConfig &traffic = sys.traffic;
    if (traffic.enabled()) {
        if (traffic.mode == "trace") {
            std::printf("traffic    : trace replay of %s\n",
                        traffic.tracePath.c_str());
        } else {
            std::printf("traffic    : %s, %.1f req/kcycle, %d%% reads, "
                        "%d tenant%s\n",
                        traffic.mode.c_str(), traffic.ratePerKilocycle,
                        traffic.readPct, traffic.tenants,
                        traffic.tenants == 1 ? "" : "s");
        }
    }

    // Baselines first (sharded when --jobs > 1) so the timed run below
    // measures only the constrained simulation.
    sim.prewarmBaselines(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult res = sim.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    const double simCycles = static_cast<double>(sim.warmupTicks()) +
                             static_cast<double>(sim.measureTicks());
    std::printf("engine     : %s, %d jobs, %.2fs wall "
                "(%.3g sim-cycles/sec)\n",
                sys.engine.c_str(), jobs, wall,
                wall > 0 ? simCycles / wall : 0.0);

    if (!res.ipc.empty()) {
        std::printf("\n%-20s %8s %8s %9s\n", "core/benchmark", "IPC",
                    "alone", "slowdown");
        for (std::size_t c = 0; c < res.ipc.size(); ++c) {
            std::printf("%-20s %8.3f %8.3f %8.2fx\n",
                        benchmarkTable()[sim.workload().benchIdx[c]]
                            .name.c_str(),
                        res.ipc[c], res.aloneIpc[c],
                        res.aloneIpc[c] / res.ipc[c]);
        }
        std::printf("\nweighted speedup   : %.3f\n", res.ws);
        std::printf("harmonic speedup   : %.3f\n", res.hs);
        std::printf("max slowdown       : %.2fx\n", res.maxSlowdown);
    }
    if (!res.tenants.empty()) {
        std::printf("\n%-8s %4s %9s %9s %8s %8s %8s %8s %9s\n", "tenant",
                    "prio", "generated", "injected", "mean", "p50",
                    "p99", "p99.9", "slowdown");
        for (std::size_t t = 0; t < res.tenants.size(); ++t) {
            const TenantResult &tr = res.tenants[t];
            std::printf("%-8zu %4d %9llu %9llu %8.1f %8.0f %8.0f %8.0f "
                        "%8.2fx\n",
                        t, tr.priority,
                        static_cast<unsigned long long>(tr.generated),
                        static_cast<unsigned long long>(tr.injected),
                        tr.meanLatency, tr.p50, tr.p99, tr.p999,
                        tr.slowdown);
        }
        std::printf("\ntenant fairness    : %.2fx max-slowdown\n",
                    res.tenantFairness);
    }
    if (res.readLatency.count() > 0) {
        std::printf("%sread latency       : mean %.1f, p50 %.0f, "
                    "p99 %.0f, p99.9 %.0f cycles\n",
                    res.tenants.empty() ? "\n" : "",
                    res.readLatency.mean(), res.readLatency.percentile(50),
                    res.readLatency.percentile(99),
                    res.readLatency.percentile(99.9));
    }
    std::printf("reads / writes     : %llu / %llu\n",
                static_cast<unsigned long long>(res.readsCompleted),
                static_cast<unsigned long long>(res.writesIssued));
    std::printf("REFab / REFpb cmds : %llu / %llu\n",
                static_cast<unsigned long long>(res.refAb),
                static_cast<unsigned long long>(res.refPb));
    if (res.refSb > 0) {
        std::printf("REFsb slices       : %llu\n",
                    static_cast<unsigned long long>(res.refSb));
    }
    if (res.refPbHidden > 0) {
        std::printf("hidden (HiRA)      : %llu\n",
                    static_cast<unsigned long long>(res.refPbHidden));
    }
    // Gate on residency, not entries: a residency straddling the
    // warmup stats reset has ticks (billed at IDD6) in the measured
    // window but its SRE behind it, and must still be reported.
    if (res.srEnters > 0 || res.srTicks > 0) {
        std::printf("self-refresh       : %llu SRE / %llu SRX, "
                    "%llu rank-ticks\n",
                    static_cast<unsigned long long>(res.srEnters),
                    static_cast<unsigned long long>(res.srExits),
                    static_cast<unsigned long long>(res.srTicks));
    }
    // Shown whenever staggering is configured (even a clean zero is
    // the result the knob exists to produce), or when overlap occurred.
    if (res.refOverlapTicks > 0 || sys.mem.channelStaggerCycles != 0) {
        std::printf("refresh overlap    : %llu channel-ticks\n",
                    static_cast<unsigned long long>(res.refOverlapTicks));
    }
    std::printf("energy per access  : %.2f nJ\n", res.energyPerAccessNj);
    std::printf("command digest     : %016llx\n",
                static_cast<unsigned long long>(res.cmdDigest));
    return 0;
}
