/**
 * @file
 * Figure 6: system performance degradation due to all-bank refresh
 * versus an ideal no-refresh baseline, by workload memory intensity
 * (% of memory-intensive benchmarks) and DRAM density.
 *
 * Paper reference: loss grows with both density and intensity, reaching
 * ~20%+ for fully intensive workloads at 32 Gb; the 8/32 Gb averages
 * quoted in the introduction are 8.2% / 19.9%.
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
    banner("Figure 6", "performance loss due to REFab vs ideal (no refresh)");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    std::printf("%-10s %8s %8s %8s %8s %8s %8s\n", "density", "0%", "25%",
                "50%", "75%", "100%", "gmean");
    for (Density d : densities()) {
        const auto ideal = sweep(runner, mechNamed("NoREF", d), workloads);
        const auto refab = sweep(runner, mechNamed("REFab", d), workloads);

        std::map<int, std::vector<double>> loss_by_cat;
        std::vector<double> ratios;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const double loss =
                (1.0 - refab[i].ws / ideal[i].ws) * 100.0;
            loss_by_cat[workloads[i].categoryPct].push_back(loss);
            ratios.push_back(refab[i].ws / ideal[i].ws);
        }
        std::printf("%-10s", densityName(d));
        for (int pct : {0, 25, 50, 75, 100})
            std::printf(" %7.1f%%", mean(loss_by_cat[pct]));
        std::printf(" %7.1f%%\n", (1.0 - gmean(ratios)) * 100.0);
    }
    std::printf("\n[paper: loss rises with density and intensity; "
                "8Gb avg 8.2%%, 32Gb avg 19.9%%]\n");
    footer(runner);
    return 0;
}
