/**
 * @file
 * Section 6.1.2: DARP component breakdown. Out-of-order per-bank refresh
 * alone versus full DARP (adding write-refresh parallelization), both
 * reported as WS improvement over REFab.
 *
 * Paper reference: out-of-order alone gains 3.2/3.9/3.0% on average
 * (up to 16.8/21.3/20.2%); write-refresh parallelization adds another
 * 4.3/5.8/5.2% at 8/16/32 Gb.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Section 6.1.2", "DARP component breakdown (WS over REFab)");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    std::printf("%-10s %16s %16s %14s\n", "density", "out-of-order",
                "full DARP", "wr-ref delta");
    for (Density d : densities()) {
        const auto refab =
            wsOf(sweep(runner, mechNamed("REFab", d), workloads));

        RunConfig ooo = mechNamed("DARP", d);
        ooo.darpWriteRefresh = false;
        const auto ooo_ws = wsOf(sweep(runner, ooo, workloads));
        const auto darp_ws =
            wsOf(sweep(runner, mechNamed("DARP", d), workloads));

        const double ooo_pct = gmeanPctOver(ooo_ws, refab);
        const double darp_pct = gmeanPctOver(darp_ws, refab);
        std::printf("%-10s %9.1f%% (max %4.1f%%) %9.1f%% %13.1f%%\n",
                    densityName(d), ooo_pct, maxPctOver(ooo_ws, refab),
                    darp_pct, darp_pct - ooo_pct);
    }
    std::printf("\n[paper: out-of-order alone 3.2/3.9/3.0%%; adding "
                "write-refresh parallelization +4.3/5.8/5.2%%]\n");
    footer(runner);
    return 0;
}
