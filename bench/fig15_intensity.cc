/**
 * @file
 * Figure 15: WS improvement of DSARP over REFab and over REFpb, broken
 * down by workload memory intensity and density.
 *
 * Paper reference shape: the gain over REFab grows monotonically with
 * intensity; the gain over REFpb plateaus beyond the 25% category
 * (REFpb itself improves with intensity).
 */

#include <cstdio>
#include <map>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Figure 15",
           "DSARP WS improvement by memory intensity (%)");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    for (const char *base : {"REFab", "REFpb"}) {
        std::printf("\nCompared to %s:\n", base);
        std::printf("%-10s %8s %8s %8s %8s %8s %8s\n", "density", "0%",
                    "25%", "50%", "75%", "100%", "avg");
        for (Density d : densities()) {
            const auto base_res =
                sweep(runner, mechNamed(base, d), workloads);
            const auto dsarp_res =
                sweep(runner, mechNamed("DSARP", d), workloads);

            std::map<int, std::vector<double>> gain_by_cat;
            std::vector<double> ws_d, ws_b;
            for (std::size_t i = 0; i < workloads.size(); ++i) {
                gain_by_cat[workloads[i].categoryPct].push_back(
                    pctOver(dsarp_res[i].ws, base_res[i].ws));
                ws_d.push_back(dsarp_res[i].ws);
                ws_b.push_back(base_res[i].ws);
            }
            std::printf("%-10s", densityName(d));
            for (int pct : {0, 25, 50, 75, 100})
                std::printf(" %7.1f%%", mean(gain_by_cat[pct]));
            std::printf(" %7.1f%%\n", gmeanPctOver(ws_d, ws_b));
        }
    }
    std::printf("\n[paper: gain over REFab rises with intensity; gain "
                "over REFpb plateaus past 25%%]\n");
    footer(runner);
    return 0;
}
