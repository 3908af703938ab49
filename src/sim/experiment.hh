/**
 * @file
 * ExperimentConfig: the single, layered configuration surface for one
 * simulated experiment.
 *
 * It holds the SystemConfig that System runs (`sys`) and the four
 * run-level fields a SystemConfig has no place for: the warmup and
 * measurement lengths, and the seed and intensity of the workload mix.
 * Every field is settable as a "key=value" string override, and each
 * key writes its field directly, so the same config can be assembled
 * from (in order of increasing precedence) defaults, a config file,
 * the DSARP_SET environment variable, and CLI arguments:
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
    /**
     * The system to simulate; every key but the four run-level ones
     * below lands in it. Two defaults differ from SystemConfig's: the
     * paper's headline mechanism, DSARP, at 32 Gb.
     */
    SystemConfig sys = [] {
        SystemConfig s;
        s.mem.policy = "DSARP";
        s.mem.density = Density::k32Gb;
        return s;
    }();

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
     * SystemConfig::validate() of `sys`, plus the intensityPct check.
     * Returns "" when consistent, otherwise a ';'-separated list of
     * errors, each naming the bad key.
     */
    std::string validate() const;

    /** Canonical mechanism name from the registry ("dsarp" → "DSARP");
     *  a fatal named-key error when the policy is unknown. */
    std::string mechanismName() const;

    /** Canonical DRAM spec name from the registry ("ddr4" →
     *  "DDR4-2400"); a fatal named-key error when unknown. */
    std::string dramSpecName() const;
};

} // namespace dsarp

#endif // DSARP_SIM_EXPERIMENT_HH
