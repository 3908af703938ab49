/**
 * @file
 * Figure 16: DDR4 fine granularity refresh (2x/4x), adaptive refresh
 * (AR), and DSARP, as WS normalized to REFab.
 *
 * Paper reference: FGR 2x/4x *lose* 3.9-4.3% / 8.1-15.1% versus REFab;
 * AR sits within ~1% of REFab; DSARP is the only mechanism with solid
 * gains.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dsarp;
using namespace dsarp::bench;

int
main(int argc, char **argv)
{
    banner("Figure 16", "FGR / AR / DSARP normalized WS (REFab = 1.0)");

    // Backend axis: DDR4-2400 is the interesting one here -- its
    // native tRFC2/tRFC4 divisors replace the Section 6.5 projections.
    applyJobsFromArgs(argc, argv);
    const std::string spec = specFromArgs(argc, argv);
    if (!spec.empty())
        std::printf("[dram spec: %s]\n", spec.c_str());

    Runner runner;
    const auto workloads =
        makeWorkloads(runner.workloadsPerCategory(), 8, 1);

    // On same-bank-capable specs (DDR5) the figure gains a REFsb
    // column: the standard's refresh-access parallelism against its
    // own fine-granularity modes.
    const bool same_bank = specSupportsSameBank(spec);
    std::printf("%-10s %8s %8s %8s %8s", "density", "REFab", "FGR2x",
                "FGR4x", "AR");
    if (same_bank)
        std::printf(" %8s", "REFsb");
    std::printf(" %8s\n", "DSARP");
    for (Density d : densities()) {
        const auto refab =
            wsOf(sweep(runner, mechNamed("REFab", d, spec), workloads));
        std::printf("%-10s %8.3f", densityName(d), 1.0);

        std::vector<const char *> mechs = {"FGR2x", "FGR4x", "AR"};
        if (same_bank)
            mechs.push_back("REFsb");
        mechs.push_back("DSARP");
        for (const char *mech : mechs) {
            const auto ws =
                wsOf(sweep(runner, mechNamed(mech, d, spec), workloads));
            std::printf(" %8.3f",
                        1.0 + gmeanPctOver(ws, refab) / 100.0);
        }
        std::printf("\n");
    }
    std::printf("\n[paper: FGR2x ~0.96, FGR4x 0.85-0.92, AR ~0.99, DSARP "
                "above 1.0 and growing with density]\n");
    footer(runner);
    return 0;
}
