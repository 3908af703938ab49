/**
 * @file
 * Table 2: maximum and geometric-mean WS improvement of DARP, SARPpb,
 * and DSARP over both REFpb and REFab, per density.
 *
 * Paper reference (gmean over REFpb / REFab, %):
 *   8Gb:  DARP 2.8/7.4   SARPpb 3.3/7.9   DSARP 3.3/7.9
 *   16Gb: DARP 4.9/9.8   SARPpb 6.7/11.7  DSARP 7.2/12.3
 *   32Gb: DARP 3.8/8.3   SARPpb 13.7/18.6 DSARP 15.2/20.2
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Table 2",
           "max / gmean WS improvement over REFpb and REFab (%)");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    std::printf("%-8s %-10s %10s %10s %12s %12s\n", "density", "mech",
                "max/pb", "max/ab", "gmean/pb", "gmean/ab");
    for (Density d : densities()) {
        const auto wsFor = [&](const char *mech) {
            return wsOf(sweep(runner, mechNamed(mech, d), workloads));
        };
        const auto refab = wsFor("REFab");
        const auto refpb = wsFor("REFpb");
        const auto darp = wsFor("DARP");
        const auto sarppb = wsFor("SARPpb");
        const auto dsarp = wsFor("DSARP");

        const struct
        {
            const char *name;
            const std::vector<double> &ws;
        } rows[] = {
            {"DARP", darp}, {"SARPpb", sarppb}, {"DSARP", dsarp}};
        for (const auto &row : rows) {
            std::printf("%-8s %-10s %9.1f%% %9.1f%% %11.1f%% %11.1f%%\n",
                        densityName(d), row.name,
                        maxPctOver(row.ws, refpb),
                        maxPctOver(row.ws, refab),
                        gmeanPctOver(row.ws, refpb),
                        gmeanPctOver(row.ws, refab));
        }
    }
    std::printf("\n[paper gmean/pb: DARP 2.8/4.9/3.8, SARPpb 3.3/6.7/13.7, "
                "DSARP 3.3/7.2/15.2 at 8/16/32Gb;\n gains grow with "
                "density, SARPpb overtakes DARP at high density]\n");
    footer(runner);
    return 0;
}
