/**
 * @file
 * Table 5: SARPpb's gain over REFpb versus the number of subarrays per
 * bank (32 Gb, memory-intensive workloads). More subarrays mean a lower
 * probability that a demand access collides with the refreshing
 * subarray.
 *
 * Paper reference: 0 / 3.8 / 8.5 / 12.4 / 14.9 / 16.2 / 16.9% for
 * 1 / 2 / 4 / 8 / 16 / 32 / 64 subarrays.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Table 5",
           "SARPpb over REFpb vs subarrays-per-bank (32 Gb, intensive)");

    Runner runner;
    const Density d = Density::k32Gb;
    const auto workloads = makeIntensiveWorkloads(
        runner.workloadsPerCategory() * 2, 8, 13);

    std::printf("%-12s %14s\n", "subarrays", "WS improvement");
    for (int subarrays : {1, 2, 4, 8, 16, 32, 64}) {
        RunConfig base = mechNamed("REFpb", d);
        base.subarraysPerBank = subarrays;
        RunConfig sarp = mechNamed("SARPpb", d);
        sarp.subarraysPerBank = subarrays;

        std::vector<double> ws_b, ws_s;
        for (const Workload &w : workloads) {
            ws_b.push_back(runner.run(base, w).ws);
            ws_s.push_back(runner.run(sarp, w).ws);
        }
        std::printf("%-12d %13.1f%%\n", subarrays,
                    gmeanPctOver(ws_s, ws_b));
    }
    std::printf("\n[paper: 0 / 3.8 / 8.5 / 12.4 / 14.9 / 16.2 / 16.9%% -- "
                "monotonic, saturating growth]\n");
    footer(runner);
    return 0;
}
