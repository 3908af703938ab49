/**
 * @file
 * Figure 12: per-workload weighted-speedup improvement of REFpb, DARP,
 * SARPpb, and DSARP over the REFab baseline, for 8/16/32 Gb densities,
 * sorted by DARP improvement (the paper's presentation).
 *
 * Paper reference shape: all curves above 1.0 for almost all workloads,
 * DSARP on top (up to ~1.36x at 32 Gb), REFpb occasionally dipping below
 * 1.0 (its serialized tRFCpb pathology, Section 6.1).
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Figure 12",
           "sorted per-workload normalized WS over REFab (8/16/32 Gb)");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    for (Density d : densities()) {
        const auto refab = sweep(runner, mechNamed("REFab", d), workloads);
        const auto refpb = sweep(runner, mechNamed("REFpb", d), workloads);
        const auto darp = sweep(runner, mechNamed("DARP", d), workloads);
        const auto sarppb = sweep(runner, mechNamed("SARPpb", d), workloads);
        const auto dsarp = sweep(runner, mechNamed("DSARP", d), workloads);

        // Sort workload indices by DARP improvement, as in the paper.
        std::vector<int> order(workloads.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            return darp[a].ws / refab[a].ws < darp[b].ws / refab[b].ws;
        });

        std::printf("\n--- %s ---\n", densityName(d));
        std::printf("%-6s %5s %8s %8s %8s %8s\n", "rank", "wl", "REFpb",
                    "DARP", "SARPpb", "DSARP");
        for (std::size_t i = 0; i < order.size(); ++i) {
            const int w = order[i];
            std::printf("%-6zu %5d %8.3f %8.3f %8.3f %8.3f\n", i,
                        workloads[w].index, refpb[w].ws / refab[w].ws,
                        darp[w].ws / refab[w].ws,
                        sarppb[w].ws / refab[w].ws,
                        dsarp[w].ws / refab[w].ws);
        }
        std::printf("gmean %5s %8.3f %8.3f %8.3f %8.3f\n", "-",
                    1.0 + gmeanPctOver(wsOf(refpb), wsOf(refab)) / 100.0,
                    1.0 + gmeanPctOver(wsOf(darp), wsOf(refab)) / 100.0,
                    1.0 + gmeanPctOver(wsOf(sarppb), wsOf(refab)) / 100.0,
                    1.0 + gmeanPctOver(wsOf(dsarp), wsOf(refab)) / 100.0);
    }
    std::printf("\n[paper shape: DSARP highest everywhere, curves rise "
                "with memory intensity,\n REFpb can dip below 1.0; gains "
                "grow with density]\n");
    footer(runner);
    return 0;
}
