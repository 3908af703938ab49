/**
 * @file
 * Table 6: DSARP's gain at the relaxed 64 ms retention time
 * (tREFIab = 7.8 us), over both baselines, per density.
 *
 * Paper reference (gmean over REFpb / REFab): 1.0/3.3% at 8 Gb,
 * 2.6/5.3% at 16 Gb, 8.0/9.1% at 32 Gb -- smaller than at 32 ms but
 * still consistent gains.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Table 6", "DSARP at 64 ms retention (WS improvement)");

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    std::printf("%-10s %10s %10s %12s %12s\n", "density", "max/pb",
                "max/ab", "gmean/pb", "gmean/ab");
    for (Density d : densities()) {
        RunConfig ab = mechNamed("REFab", d);
        ab.retentionMs = 64;
        RunConfig pb = mechNamed("REFpb", d);
        pb.retentionMs = 64;
        RunConfig ds = mechNamed("DSARP", d);
        ds.retentionMs = 64;

        const auto ws_ab = wsOf(sweep(runner, ab, workloads));
        const auto ws_pb = wsOf(sweep(runner, pb, workloads));
        const auto ws_ds = wsOf(sweep(runner, ds, workloads));

        std::printf("%-10s %9.1f%% %9.1f%% %11.1f%% %11.1f%%\n",
                    densityName(d), maxPctOver(ws_ds, ws_pb),
                    maxPctOver(ws_ds, ws_ab), gmeanPctOver(ws_ds, ws_pb),
                    gmeanPctOver(ws_ds, ws_ab));
    }
    std::printf("\n[paper: gmean pb/ab = 1.0/3.3, 2.6/5.3, 8.0/9.1%% at "
                "8/16/32Gb -- smaller than 32 ms but consistent]\n");
    footer(runner);
    return 0;
}
