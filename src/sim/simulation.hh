/**
 * @file
 * Simulation: the fluent entry point to the library.
 *
 * One builder assembles an experiment from any mix of programmatic
 * calls, key=value overrides, config files, and the environment, then
 * build() validates everything (errors name the bad key) and run()
 * drives the full warmup/measure/metrics/energy pipeline:
 *
 *   RunResult res = Simulation::builder()
 *                       .policy("DSARP")
 *                       .densityGb(32)
 *                       .cores(8)
 *                       .set("writeLowWatermark", "24")
 *                       .build()
 *                       .run();
 *
 * The CLI tool, the examples, and the tests all drive this same API.
 * Custom trace sources (instead of catalogue benchmarks) plug in via
 * .traces(); those runs report IPC, refresh counters, and energy, but
 * no alone-baseline metrics (ws/hs/maxSlowdown stay 0).
 *
 * Setting traffic.mode (see TrafficConfig) replaces the closed-loop
 * cores with the open-loop TrafficInjector front end: run() routes to
 * Runner::runTraffic() and the result carries the read-latency
 * distribution, per-tenant breakdown, and fairness instead of IPC.
 * Mutually exclusive with .workload() and .traces().
 */

#ifndef DSARP_SIM_SIMULATION_HH
#define DSARP_SIM_SIMULATION_HH

#include <string>
#include <vector>

#include "core/trace.hh"
#include "dram/spec.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "workload/workload.hh"

namespace dsarp {

class Simulation
{
  public:
    class Builder
    {
      public:
        /** Replace the whole config (then refine with the calls below). */
        Builder &config(const ExperimentConfig &cfg);

        /** @name Shorthands for set() on the keys of the same name
         *  (cores: numCores). */
        /// @{
        Builder &policy(const std::string &name);
        Builder &dramSpec(const std::string &name);
        Builder &addressMap(const std::string &name);
        Builder &densityGb(int gb);
        Builder &cores(int n);
        Builder &subarraysPerBank(int n);
        Builder &workloadSeed(std::uint64_t s);
        Builder &intensityPct(int pct);
        Builder &warmupCycles(std::uint64_t ticks);
        Builder &measureCycles(std::uint64_t ticks);
        /// @}

        /** One key=value override; a fatal named-key error if bad. */
        Builder &set(const std::string &key, const std::string &value);
        Builder &apply(const std::string &assignment);

        /** Layer a config file / the DSARP_SET environment variable. */
        Builder &configFile(const std::string &path);
        Builder &env();

        /** Run an explicit workload mix instead of generating one. */
        Builder &workload(const Workload &w);

        /**
         * Drive caller-provided trace sources (one per core; they must
         * outlive the Simulation). Mutually exclusive with workload().
         */
        Builder &traces(const std::vector<TraceSource *> &sources);

        /** Validate and assemble; fatal named-key error when invalid. */
        Simulation build();

      private:
        ExperimentConfig cfg_;
        bool haveWorkload_ = false;
        Workload workload_;
        std::vector<TraceSource *> traces_;
    };

    static Builder builder() { return Builder{}; }

    const ExperimentConfig &config() const { return cfg_; }

    /** The resolved workload mix (meaningless under .traces()). */
    const Workload &workload() const { return workload_; }

    /** Canonical mechanism name, e.g. for table headers. */
    std::string mechanismName() const { return cfg_.mechanismName(); }

    /**
     * The resolved DRAM device spec (cached at build(); the config's
     * spec name is already canonicalised, so aliases/case never leak
     * into output). The reference stays valid for the process lifetime --
     * registry entries are never removed.
     */
    const DramSpec &dramSpec() const { return *spec_; }

    /** Canonical DRAM spec name, e.g. "DDR4-2400". */
    const std::string &dramSpecName() const;

    /** Canonical address map name, e.g. "burst-ch" (cached at
     *  build(), like the spec). */
    const std::string &addressMapName() const
    {
        return cfg_.sys.mem.addressMap;
    }

    /**
     * The fully-resolved DRAM geometry this simulation will run on:
     * the configured MemOrg after the policy bundle and finalize()
     * (density-derived rows, spec burst size, and any spec-derived
     * sub-channel expansion of the channel count). For topology
     * reporting -- run() re-resolves from scratch.
     */
    MemOrg resolvedOrg() const;

    Tick warmupTicks() const { return runner_.warmupTicks(); }
    Tick measureTicks() const { return runner_.measureTicks(); }

    /**
     * Warmup, measure, and compute metrics/energy.
     *
     * Catalogue-workload runs are repeatable (each run() builds a
     * fresh System; the alone-IPC baseline is memoized). Runs driven
     * by .traces() consume the caller's TraceSource state, so a
     * second run() continues from wherever the sources stopped --
     * rebuild the sources to repeat one.
     */
    RunResult run();

    /**
     * Simulate the workload's alone-IPC baselines now, sharded across
     * @p jobs worker threads (sim/parallel.hh), so the single-threaded
     * run() that follows finds them memoized. A no-op for .traces()
     * runs, which have no baselines.
     */
    void prewarmBaselines(int jobs);

  private:
    Simulation(ExperimentConfig cfg, Workload workload,
               std::vector<TraceSource *> traces);

    ExperimentConfig cfg_;
    const DramSpec *spec_;  ///< Resolved once; registry-owned.
    Workload workload_;
    std::vector<TraceSource *> traces_;
    Runner runner_;
};

} // namespace dsarp

#endif // DSARP_SIM_SIMULATION_HH
