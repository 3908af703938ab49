/**
 * @file
 * Figure 7: average performance loss of REFab and REFpb versus the ideal
 * no-refresh baseline as density grows.
 *
 * Paper reference: REFpb beats REFab at every density but still loses
 * 16.6% on average at 32 Gb, which motivates DARP/SARP.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Figure 7", "performance loss due to REFab and REFpb vs ideal");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    std::printf("%-10s %12s %12s\n", "density", "REFab loss", "REFpb loss");
    for (Density d : densities()) {
        const auto ideal = sweep(runner, mechNamed("NoREF", d), workloads);
        const auto refab = sweep(runner, mechNamed("REFab", d), workloads);
        const auto refpb = sweep(runner, mechNamed("REFpb", d), workloads);

        std::vector<double> ab_ratio, pb_ratio;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            ab_ratio.push_back(refab[i].ws / ideal[i].ws);
            pb_ratio.push_back(refpb[i].ws / ideal[i].ws);
        }
        std::printf("%-10s %11.1f%% %11.1f%%\n", densityName(d),
                    (1.0 - gmean(ab_ratio)) * 100.0,
                    (1.0 - gmean(pb_ratio)) * 100.0);
    }
    std::printf("\n[paper: REFpb < REFab loss at every density; REFpb "
                "still loses 16.6%% at 32Gb]\n");
    footer(runner);
    return 0;
}
