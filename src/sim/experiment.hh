/**
 * @file
 * ExperimentConfig: the single, layered configuration surface for one
 * simulated experiment.
 *
 * It subsumes what used to be spread over three structs (SystemConfig,
 * the runner's RunConfig, and the CLI tool's private Options): the
 * refresh mechanism by registry name, DRAM geometry and density, core
 * count, queue/watermark knobs, run lengths, and the workload mix.
 *
 * Every field is settable as a "key=value" string override, so the
 * same config can be assembled from (in order of increasing
 * precedence) defaults, a config file, the DSARP_SET environment
 * variable, and CLI arguments:
 *
 *   ExperimentConfig cfg;
 *   cfg.applyFile("experiment.cfg");   // lines of key=value
 *   cfg.applyEnv();                    // DSARP_SET="key=value,key=value"
 *   cfg.set("policy", "DSARP");        // programmatic / CLI
 *
 * Errors always name the offending key: unknown keys list the known
 * ones, bad values say what was expected, and validate() reports every
 * inconsistent field (not just the first).
 */

#ifndef DSARP_SIM_EXPERIMENT_HH
#define DSARP_SIM_EXPERIMENT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"

namespace dsarp {

struct ExperimentConfig
{
    // --- Refresh mechanism (registry name, case-insensitive) ---------
    std::string policy = "DSARP";

    // --- Memory system ----------------------------------------------
    /** DRAM device spec by registry name (key "dram.spec"; see
     *  dram/spec.hh). Unknown names fail validation with a named-key
     *  error listing the registered specs. */
    std::string dramSpec = "DDR3-1333";

    /** Physical-address interleave by registry name (key "address.map";
     *  see dram/address.hh). Unknown names fail validation with a
     *  named-key error listing the registered maps. */
    std::string addressMap = "burst-ch";

    int densityGb = 32;          ///< 8 | 16 | 32.
    int retentionMs = 32;        ///< 32 | 64.
    int subarraysPerBank = 8;
    int channels = 2;
    int ranksPerChannel = 2;
    int banksPerRank = 8;
    int readQueueSize = 64;
    int writeQueueSize = 64;
    int writeHighWatermark = -1; ///< -1 = MemConfig default (54).
    int writeLowWatermark = -1;  ///< -1 = MemConfig default (32).
    int refabStaggerDivisor = -1;///< -1 = MemConfig default (8).
    int maxOverlappedRefPb = -1; ///< -1 = MemConfig default (1).
    int tFawOverride = 0;        ///< Cycles; 0 = datasheet value.
    int tRrdOverride = 0;        ///< Cycles; 0 = datasheet value.
    bool darpWriteRefresh = true;

    /** HiRA hidden-refresh coverage fraction (key
     *  "refresh.hiraCoverage"); -1 = the spec's characterized ~32%. */
    double hiraCoverage = -1.0;

    /** Demand-ACT to hidden-refresh delay in cycles (key
     *  "refresh.hiraDelay"); 0 = the spec's tHiRA. */
    int hiraDelay = 0;

    /** Same-bank refresh slice size in banks (key
     *  "refresh.samebank.groupSize"); 0 = the spec's bank-group
     *  geometry. Must divide banksPerRank. */
    int sameBankGroupSize = 0;

    /** Allow opportunistic pull-in of same-bank slices on idle
     *  channels (key "refresh.samebank.pullIn"). */
    bool sameBankPullIn = true;

    /** Command-level self-refresh idle-entry threshold in demand-idle
     *  cycles (key "refresh.selfRefresh.idleEntry"); 0 disables the
     *  SRE/SRX protocol. */
    int srIdleEntry = 0;

    /** Explicit FGR rate for any mechanism (key "refresh.fgrRate");
     *  0 keeps the profile default, else 1/2/4. */
    int fgrRate = 0;

    /** Cross-channel refresh-schedule phase in cycles (key
     *  "refresh.channelStagger"): 0 = off (bit-identical default),
     *  -1 = the even spread tREFIab / channels, > 0 = explicit. */
    int channelStagger = 0;

    // --- Open-loop traffic front end ---------------------------------
    /**
     * The traffic.* / tenant.* key family (see TrafficConfig):
     * traffic.mode selects the arrival process ("off" keeps the
     * closed-loop cores), traffic.rate/readPct/hotRowPct/hotRows shape
     * it, tenant.count/tenant.priorities split the address space into
     * prioritized partitions, and traffic.trace replays an external
     * DRAMSim-style trace.
     */
    TrafficConfig traffic;

    // --- System ------------------------------------------------------
    int numCores = 8;
    std::uint64_t seed = 1;
    bool enableChecker = false;

    /** Simulation engine (key "sim.engine"): "cycle" steps every tick,
     *  "event" skips to the next component deadline. Commands, stats,
     *  and RNG streams are bit-identical between the two. */
    std::string engine = "cycle";

    // --- Run lengths (0 = DSARP_BENCH_* env knob, then default) ------
    std::uint64_t warmupCycles = 0;
    std::uint64_t measureCycles = 0;

    // --- Workload ----------------------------------------------------
    std::uint64_t workloadSeed = 1;
    int intensityPct = 100;      ///< 0 | 25 | 50 | 75 | 100.

    /**
     * Set one field from its string form. Returns "" on success,
     * otherwise an error naming the key (unknown key, or bad value and
     * what was expected).
     */
    std::string trySet(const std::string &key, const std::string &value);

    /** trySet(), but a fatal named-key error on failure. */
    void set(const std::string &key, const std::string &value);

    /** Apply one "key=value" override (fatal named-key error). */
    void applyOverride(const std::string &assignment);

    /**
     * Apply a config file: one "key=value" per line, '#' comments and
     * blank lines ignored. Errors are fatal and name file:line and key.
     */
    void applyFile(const std::string &path);

    /**
     * Apply config-file-format lines from @p in; @p name labels error
     * messages the way a path would. The file layer of applyFile()
     * with the I/O separated, so tests and the fuzz harnesses can
     * drive the parser from memory.
     */
    void applyStream(std::istream &in, const std::string &name);

    /**
     * Apply overrides from the DSARP_SET environment variable, a
     * comma-separated list of "key=value" pairs. No-op when unset.
     */
    void applyEnv();

    /**
     * Apply a DSARP_SET-format list ("key=value,key=value"). The env
     * layer of applyEnv() with the getenv separated, for tests and
     * the fuzz harnesses.
     */
    void applyEnvString(const std::string &overrides);

    /** Every override key, sorted (for help text and error messages). */
    static std::vector<std::string> knownKeys();

    /**
     * Cross-field validation. Returns "" when consistent, otherwise a
     * ';'-separated list of errors, each naming the bad key. Includes
     * the refresh-policy name check against the registry and the full
     * MemConfig/SystemConfig validation.
     */
    std::string validate() const;

    /** Canonical mechanism name from the registry ("dsarp" → "DSARP");
     *  a fatal named-key error when the policy is unknown. */
    std::string mechanismName() const;

    /** Canonical DRAM spec name from the registry ("ddr4" →
     *  "DDR4-2400"); a fatal named-key error when unknown. */
    std::string dramSpecName() const;

    /** Project onto the SystemConfig consumed by System (not yet
     *  finalized; System resolves + validates on construction). */
    SystemConfig toSystemConfig() const;
};

} // namespace dsarp

#endif // DSARP_SIM_EXPERIMENT_HH
