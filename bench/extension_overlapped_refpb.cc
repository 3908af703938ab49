/**
 * @file
 * Extension study (paper footnote 5): the LPDDR standard serializes
 * per-bank refreshes within a rank "for simplicity"; the paper notes a
 * modified standard could allow overlapping a subset of banks. This
 * bench quantifies what that buys: REFpb and DSARP with overlap limits
 * 1 (standard), 2, and 4, at 32 Gb where REFpb's serialization
 * pathology (8 x tRFCpb ~= 3.5 x tRFCab per rank sweep) is worst.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Extension",
           "overlapped per-bank refresh (footnote 5), 32 Gb");

    Runner runner;
    const auto workloads = makeIntensiveWorkloads(
        runner.workloadsPerCategory() * 2, 8, 41);

    const auto ideal =
        wsOf(sweep(runner, mechNamed("NoREF", Density::k32Gb), workloads));

    std::printf("%-10s %10s %12s %12s\n", "overlap", "mech", "WS",
                "loss/ideal");
    for (int overlap : {1, 2, 4}) {
        for (bool dsarp : {false, true}) {
            RunConfig cfg = dsarp ? mechNamed("DSARP", Density::k32Gb)
                                  : mechNamed("REFpb", Density::k32Gb);
            cfg.maxOverlappedRefPb = overlap;
            const auto ws = wsOf(sweep(runner, cfg, workloads));
            std::printf("%-10d %10s %12.3f %11.1f%%\n", overlap,
                        cfg.mechanismName().c_str(), gmean(ws),
                        -gmeanPctOver(ws, ideal));
        }
    }
    std::printf("\n[extension finding: overlap compresses REFpb's "
                "serialized rank sweep; the\n incremental benefit on top "
                "of DSARP shows how much of the pathology DARP's\n "
                "scheduling already hides]\n");
    footer(runner);
    return 0;
}
