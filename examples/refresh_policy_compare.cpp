/**
 * @file
 * Scenario: a server architect sizing a memory system for a consolidated
 * multi-tenant host (the paper's motivating case -- 8 cores, high-density
 * DRAM, 32 ms retention) wants to pick a refresh strategy.
 *
 * Walks the refresh-policy registry and compares every registered
 * mechanism on one fully memory-intensive workload at 32 Gb:
 * weighted/harmonic speedup, worst-tenant slowdown, refresh command
 * counts, and energy per access. A mechanism added to the library (one
 * .cc file with a registrar) shows up here automatically.
 */

#include <cstdio>
#include <string>

#include "refresh/registry.hh"
#include "sim/simulation.hh"
#include "workload/workload.hh"

using namespace dsarp;

int
main()
{
    const Workload workload = makeIntensiveWorkloads(1, 8, 2024)[0];

    std::printf("Tenant mix (all memory-intensive, 32 Gb DRAM):\n");
    for (int idx : workload.benchIdx)
        std::printf("  %s\n", benchmarkTable()[idx].name.c_str());

    std::printf("\n%-9s %7s %7s %9s %8s %8s %10s\n", "mech", "WS", "HS",
                "maxSlow", "REFab#", "REFpb#", "energy/acc");

    double best_ws = 0.0;
    std::string best;
    for (const std::string &mech :
         RefreshPolicyRegistry::instance().names()) {
        // Some mechanisms need device support the host's spec lacks
        // (same-bank refresh has no DDR3 command, for instance); a
        // probe validation skips those instead of dying mid-walk.
        ExperimentConfig probe;
        probe.sys.mem.policy = mech;
        probe.sys.mem.density = Density::k32Gb;
        if (!probe.validate().empty()) {
            std::printf("%-9s %s\n", mech.c_str(),
                        "(unsupported by this DRAM spec; skipped)");
            continue;
        }
        const RunResult res = Simulation::builder()
                                  .policy(mech)
                                  .densityGb(32)
                                  .cores(8)
                                  .workload(workload)
                                  .build()
                                  .run();
        std::printf("%-9s %7.3f %7.3f %8.2fx %8llu %8llu %8.2fnJ\n",
                    mech.c_str(), res.ws, res.hs, res.maxSlowdown,
                    static_cast<unsigned long long>(res.refAb),
                    static_cast<unsigned long long>(res.refPb),
                    res.energyPerAccessNj);
        if (mech != "NoREF" && res.ws > best_ws) {
            best_ws = res.ws;
            best = mech;
        }
    }

    std::printf("\nBest realizable mechanism for this host: %s "
                "(WS %.3f)\n", best.c_str(), best_ws);
    return 0;
}
