/**
 * @file
 * Table 4: sensitivity of SARPpb's gain over REFpb to tFAW/tRRD
 * (32 Gb, memory-intensive workloads). SARP inflates these parameters
 * during refresh for power integrity, so tighter windows cost it more.
 *
 * Paper reference: 14.0/13.9/13.5/12.4/11.9/10.3% for tFAW/tRRD of
 * 5/1 .. 30/6 DRAM cycles -- benefit shrinks as tFAW grows.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Table 4", "SARPpb over REFpb vs tFAW/tRRD (32 Gb, intensive)");

    Runner runner;
    const Density d = Density::k32Gb;
    const auto workloads = makeIntensiveWorkloads(
        runner.workloadsPerCategory() * 2, 8, 9);

    std::printf("%-12s %14s\n", "tFAW/tRRD", "WS improvement");
    for (int faw : {5, 10, 15, 20, 25, 30}) {
        const int rrd = faw / 5;

        RunConfig base = mechNamed("REFpb", d);
        base.tFawOverride = faw;
        base.tRrdOverride = rrd;
        RunConfig sarp = mechNamed("SARPpb", d);
        sarp.tFawOverride = faw;
        sarp.tRrdOverride = rrd;

        std::vector<double> ws_b, ws_s;
        for (const Workload &w : workloads) {
            ws_b.push_back(runner.run(base, w).ws);
            ws_s.push_back(runner.run(sarp, w).ws);
        }
        std::printf("%3d/%-8d %13.1f%%\n", faw, rrd,
                    gmeanPctOver(ws_s, ws_b));
    }
    std::printf("\n[paper: 14.0 / 13.9 / 13.5 / 12.4 / 11.9 / 10.3%% -- "
                "the benefit shrinks as tFAW/tRRD grow]\n");
    footer(runner);
    return 0;
}
