/**
 * @file
 * Experiment runner shared by the bench harnesses, examples, and
 * integration tests.
 *
 * Wraps System construction, warmup, measurement, metric computation
 * (WS/HS/max-slowdown against cached alone-run IPCs), and the energy
 * model. Run lengths come from environment knobs so the same binaries
 * scale from smoke tests to paper-fidelity sweeps:
 *
 *   DSARP_BENCH_CYCLES             measurement ticks   (default 250000)
 *   DSARP_BENCH_WARMUP             warmup ticks        (default 30000)
 *   DSARP_BENCH_WORKLOADS_PER_CAT  mixes per category  (default 3)
 */

#ifndef DSARP_SIM_RUNNER_HH
#define DSARP_SIM_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "sim/energy.hh"
#include "sim/system.hh"
#include "workload/workload.hh"

namespace dsarp {

/**
 * One evaluated system point (mechanism x density x knobs).
 *
 * Pre-dates ExperimentConfig (sim/experiment.hh), which is the full
 * layered configuration surface. The bench binaries and SweepRunner
 * take SystemConfig points; RunConfig remains for perfbench and the
 * Runner's own tests.
 */
struct RunConfig
{
    Density density = Density::k8Gb;

    /**
     * DRAM device spec by registry name (see dram/spec.hh); empty
     * keeps the MemConfig default ("DDR3-1333").
     */
    std::string dramSpec;

    /**
     * Address map by registry name (see dram/address.hh); empty keeps
     * the MemConfig default ("burst-ch").
     */
    std::string addressMap;

    /** Channels per system; 0 keeps the MemOrg default (2). */
    int channels = 0;

    /** Cross-channel refresh stagger in cycles (= the
     *  refresh.channelStagger key): 0 off, -1 = tREFIab / channels. */
    int channelStaggerCycles = 0;

    /** Refresh mechanism by registry name (see MemConfig::policy). */
    std::string policy = "REFab";

    int retentionMs = 32;
    int numCores = 8;
    int subarraysPerBank = 8;
    int tFawOverride = 0;
    int tRrdOverride = 0;
    bool darpWriteRefresh = true;
    /** 0 keeps the MemConfig defaults for the following four knobs. */
    int writeHighWatermark = 0;
    int writeLowWatermark = 0;
    int refabStaggerDivisor = 0;
    int maxOverlappedRefPb = 0;  ///< Footnote-5 extension (>1 overlaps).

    /** Command-level self-refresh idle-entry threshold in cycles
     *  (= refresh.selfRefresh.idleEntry); 0 disables SRE/SRX. */
    int srIdleEntryCycles = 0;

    /** Explicit FGR rate for any mechanism (= refresh.fgrRate);
     *  0 keeps the profile default, else 1/2/4. */
    int fgrRate = 0;

    /**
     * Simulation engine (= sim.engine): empty keeps the SystemConfig
     * default ("cycle"); "event" selects the skip-to-next-deadline
     * loop. Results are bit-identical either way, so the alone-IPC
     * cache deliberately ignores it.
     */
    std::string engine;

    std::uint64_t seed = 1;

    /**
     * Open-loop traffic front end (traffic.* / tenant.* keys); mode
     * "off" keeps the closed-loop cores and every legacy result
     * bit-identical. When enabled, run the point through
     * Runner::runTraffic().
     */
    TrafficConfig traffic;
};

/** Per-tenant figures of an open-loop (traffic) run. */
struct TenantResult
{
    int priority = 1;
    std::uint64_t generated = 0;   ///< Arrivals produced.
    std::uint64_t injected = 0;    ///< Accepted by a controller.
    std::uint64_t reads = 0;       ///< Reads completed (delivered).
    double avgBacklog = 0.0;       ///< Mean injector-backlog occupancy.
    double meanLatency = 0.0;      ///< Mean read latency, cycles.
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    /** meanLatency / min over tenants of meanLatency (>= 1). */
    double slowdown = 0.0;
};

struct RunResult
{
    std::vector<double> ipc;       ///< Shared-run per-core IPC.
    std::vector<double> aloneIpc;  ///< Cached single-core ideal IPC.
    double ws = 0.0;
    double hs = 0.0;
    double maxSlowdown = 0.0;
    double energyPerAccessNj = 0.0;

    /**
     * Aggregate read-latency distribution, merged across every
     * channel controller (arrival-to-delivery in DRAM cycles; under
     * open-loop traffic the arrival stamp is the generation tick, so
     * injector-backlog queueing is included). Populated on every run
     * path -- closed-loop runs report it too.
     */
    LatencyHistogram readLatency;

    /** Per-tenant breakdown (open-loop multi-tenant runs only). */
    std::vector<TenantResult> tenants;

    /** Max-slowdown fairness across tenants (1.0 = perfectly fair). */
    double tenantFairness = 0.0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t refAb = 0;
    std::uint64_t refPb = 0;
    std::uint64_t refSb = 0;        ///< DDR5 same-bank slice refreshes.
    std::uint64_t refPbHidden = 0;  ///< HiRA refreshes hidden under ACTs.
    std::uint64_t srEnters = 0;     ///< Self-refresh entries (SRE).
    std::uint64_t srExits = 0;      ///< Self-refresh exits (SRX).
    std::uint64_t srTicks = 0;      ///< Rank-ticks spent in self-refresh.
    /** Ticks a channel's refresh overlapped a sibling channel's (the
     *  simultaneous-refresh exposure channel staggering removes). */
    std::uint64_t refOverlapTicks = 0;
    /** The channels' command-stream digests (ControllerStats::
     *  cmdDigest over the measured window), combined in channel order:
     *  equal digests mean the same commands at the same ticks. */
    std::uint64_t cmdDigest = 0;
};

class Runner
{
  public:
    /** Run lengths from the DSARP_BENCH_* environment knobs. */
    Runner();

    /** Explicit run lengths (the Simulation facade's constructor). */
    Runner(Tick warmup, Tick measure, int perCategory = 3);

    Tick warmupTicks() const { return warmup_; }
    Tick measureTicks() const { return measure_; }
    int workloadsPerCategory() const { return perCategory_; }

    /** Simulate @p workload under @p cfg and compute all metrics. */
    RunResult run(const RunConfig &cfg, const Workload &workload);

    /** Same pipeline on a fully-specified SystemConfig. */
    RunResult run(const SystemConfig &sys, const Workload &workload);

    /**
     * Warmup/measure caller-provided trace sources (no benchmark
     * catalogue, so no alone baseline: ws/hs/maxSlowdown stay 0).
     */
    RunResult run(const SystemConfig &sys,
                  const std::vector<TraceSource *> &traces);

    /**
     * Open-loop traffic run: sys.traffic must be enabled. No cores,
     * so ipc/ws/hs stay empty/0; the latency histogram, per-tenant
     * breakdown, and fairness figure carry the result.
     */
    RunResult runTraffic(const SystemConfig &sys);

    /** Same, from a compact sweep point (cfg.traffic enabled). */
    RunResult runTraffic(const RunConfig &cfg);

    /**
     * Single-core refresh-free IPC for a benchmark under the same
     * geometry, queues, and core model (used as the alone baseline for
     * WS), run at the default seed whatever sys.seed is. Memoized
     * process-wide -- the cache key covers every config field the alone
     * run depends on plus the run lengths, so Runner instances (and
     * Simulations) share baselines safely.
     */
    double aloneIpc(int benchIdx, const RunConfig &cfg);
    double aloneIpc(int benchIdx, const SystemConfig &sys);

    /** Build a SystemConfig from a RunConfig (public for tests). */
    static SystemConfig makeSystemConfig(const RunConfig &cfg);

  private:
    Tick warmup_;
    Tick measure_;
    int perCategory_;
};

/** Read a positive integer environment knob with a default. */
std::uint64_t envKnob(const char *name, std::uint64_t fallback);

} // namespace dsarp

#endif // DSARP_SIM_RUNNER_HH
