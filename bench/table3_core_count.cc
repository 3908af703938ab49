/**
 * @file
 * Table 3: effect of core count (2/4/8) on DSARP's benefit over REFab
 * for memory-intensive workloads at 32 Gb: weighted speedup, harmonic
 * speedup, maximum slowdown, and energy per access.
 *
 * Paper reference: WS +16.0/20.0/27.2%, HS +16.1/20.7/27.9%, max
 * slowdown -14.9/19.4/24.1%, energy -10.2/8.1/8.5% for 2/4/8 cores.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Table 3", "DSARP vs REFab by core count (32 Gb, intensive)");

    Runner runner;
    const Density d = Density::k32Gb;

    std::printf("%-6s %10s %10s %14s %12s\n", "cores", "WS impr",
                "HS impr", "maxSlow red", "energy red");
    for (int cores : {2, 4, 8}) {
        const auto workloads = makeIntensiveWorkloads(
            runner.workloadsPerCategory() * 2, cores, 5);

        RunConfig base = mechNamed("REFab", d);
        base.numCores = cores;
        RunConfig dsarp = mechNamed("DSARP", d);
        dsarp.numCores = cores;

        std::vector<double> ws_b, ws_d, hs_b, hs_d, ms_b, ms_d, e_b, e_d;
        for (const Workload &w : workloads) {
            const RunResult rb = runner.run(base, w);
            const RunResult rd = runner.run(dsarp, w);
            ws_b.push_back(rb.ws);
            ws_d.push_back(rd.ws);
            hs_b.push_back(rb.hs);
            hs_d.push_back(rd.hs);
            ms_b.push_back(rb.maxSlowdown);
            ms_d.push_back(rd.maxSlowdown);
            e_b.push_back(rb.energyPerAccessNj);
            e_d.push_back(rd.energyPerAccessNj);
        }
        std::printf("%-6d %9.1f%% %9.1f%% %13.1f%% %11.1f%%\n", cores,
                    gmeanPctOver(ws_d, ws_b), gmeanPctOver(hs_d, hs_b),
                    -gmeanPctOver(ms_d, ms_b), -gmeanPctOver(e_d, e_b));
    }
    std::printf("\n[paper: WS +16.0/20.0/27.2%%, HS +16.1/20.7/27.9%%, "
                "max-slowdown -14.9/19.4/24.1%%,\n energy -10.2/8.1/8.5%% "
                "for 2/4/8 cores -- all four metrics improve at every "
                "core count]\n");
    footer(runner);
    return 0;
}
