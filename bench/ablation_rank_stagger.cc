/**
 * @file
 * Ablation (beyond the paper): cross-rank phase of the REFab schedule.
 *
 * The paper fixes a REFab baseline without specifying how the two ranks
 * of a channel are phased against each other. This choice is
 * load-bearing: spreading the ranks' refreshes evenly (divisor 2) makes
 * the channel run at half capacity twice per interval, while nearly
 * aligning them (large divisor) concentrates the damage into one window
 * per interval -- substantially better for bandwidth-bound workloads.
 * The repository's baseline uses the strong (near-aligned) setting so
 * DARP/SARP gains are not inflated by a weak REFab.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    applyJobsFromArgs(argc, argv);
    banner("Ablation", "REFab cross-rank refresh phase (32 Gb)");

    Runner runner;
    const auto workloads = makeIntensiveWorkloads(
        runner.workloadsPerCategory() * 2, 8, 21);

    const auto ideal = wsOf(sweep(runner, mechNamed("NoREF", Density::k32Gb),
                                  workloads));

    std::printf("%-22s %10s %12s\n", "rank phase", "WS", "loss vs ideal");
    for (int divisor : {2, 4, 8, 16, 64}) {
        RunConfig cfg = mechNamed("REFab", Density::k32Gb);
        cfg.refabStaggerDivisor = divisor;
        const auto ws = wsOf(sweep(runner, cfg, workloads));
        std::printf("tREFI/(%2d*ranks) %15.3f %11.1f%%\n", divisor,
                    gmean(ws), -gmeanPctOver(ws, ideal));
    }
    std::printf("\n[finding: near-aligned rank refreshes (large divisor) "
                "are the strongest REFab\n baseline; evenly-spread ranks "
                "overstate the losses refresh causes]\n");
    footer(runner);
    return 0;
}
