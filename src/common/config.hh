/**
 * @file
 * Configuration structures for the memory system, cores, and full system.
 *
 * Defaults reproduce Table 1 of Chang et al., HPCA 2014: an 8-core 4 GHz
 * system with 2 DDR3-1333 channels, 2 ranks/channel, 8 banks/rank,
 * 8 subarrays/bank, 64K rows/bank, 8 KB rows, FR-FCFS, closed-row policy,
 * 64/64-entry read/write queues with batched writes (low watermark 32),
 * and 32 ms retention.
 */

#ifndef DSARP_COMMON_CONFIG_HH
#define DSARP_COMMON_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dsarp {

/**
 * Refresh timing profiles (paper Sections 6.1, 6.5): the compact
 * descriptor TimingParams and the checker consume. A profile names
 * timing, not a mechanism -- Elastic and AR time like kAllBank, DARP,
 * DSARP and HiRA like kPerBank. MemConfig::policy names the mechanism,
 * and RefreshPolicyRegistry::resolve() sets this tag from the name.
 */
enum class RefreshMode {
    kNoRefresh,  ///< Ideal baseline: refresh eliminated.
    kAllBank,    ///< Rank-level all-bank refresh (REFab).
    kPerBank,    ///< Per-bank refresh (REFpb).
    kFgr2x,      ///< DDR4 fine granularity refresh, 2x rate.
    kFgr4x,      ///< DDR4 fine granularity refresh, 4x rate.
    kSameBank,   ///< REFsb: DDR5 same-bank refresh (one bank-group slice).
};

/** DRAM chip density; determines rows/bank and tRFC (paper Table 1). */
enum class Density { k8Gb, k16Gb, k32Gb };

const char *densityName(Density d);

/** Rows per bank for a density (64K at 8 Gb, doubling per step). */
int rowsPerBankFor(Density d);

/** DRAM geometry. */
struct MemOrg
{
    /** Geometry bounds (MemConfig::validate()): the FR-FCFS pick and
     *  the channel's open-bank mask keep one bit per bank. */
    static constexpr int kMaxRanksPerChannel = 8;
    static constexpr int kMaxBanksPerChannel = 64;

    int channels = 2;
    int ranksPerChannel = 2;
    int banksPerRank = 8;
    int subarraysPerBank = 8;
    int rowsPerBank = 65536;   ///< Overridden from Density by MemConfig.
    int rowBytes = 8192;       ///< 8 KB rows.
    int lineBytes = 64;        ///< Cache line size.

    /**
     * Bytes one burst of the selected DRAM spec transfers (2 x tBl
     * transfers x bus width), set from the spec by
     * MemConfig::finalize(). The default matches DDR3/DDR4 BL8 on a
     * 64-bit channel; LPDDR4's BL16 doubles it, halving columns().
     */
    int burstBytes = 64;

    /**
     * Sub-channel factor already folded into `channels` by
     * MemConfig::finalize() under a spec-derived address map
     * ("ddr5-subch"). Recorded so finalize() stays idempotent: a
     * re-finalized config divides the factor back out before applying
     * the (possibly different) spec's own.
     */
    int appliedSubChannels = 1;

    /** Bytes per DRAM column address: one burst, never below a line. */
    int columnBytes() const
    {
        return burstBytes > lineBytes ? burstBytes : lineBytes;
    }

    /** Column addresses per row (spec burst aware). */
    int columns() const { return rowBytes / columnBytes(); }

    /** Rows per subarray group. */
    int rowsPerSubarray() const { return rowsPerBank / subarraysPerBank; }
};

/** Memory-system configuration: geometry, density, refresh policy. */
struct MemConfig
{
    MemOrg org;
    Density density = Density::k8Gb;
    int retentionMs = 32;   ///< 32 ms (server/LPDDR) or 64 ms.

    /**
     * DRAM device spec by registry name (config key "dram.spec";
     * case-insensitive, aliases accepted -- see dram/spec.hh). The
     * spec supplies the clock, core timings, density -> tRFC tables,
     * refresh geometry, and FGR divisors that
     * TimingParams::forConfig() resolves; "DDR3-1333" reproduces the
     * paper's Table 1 set bit-identically. Unknown names are a fatal
     * named-key error listing the registered specs.
     */
    std::string dramSpec = "DDR3-1333";

    /**
     * Physical-address interleave by registry name (config key
     * "address.map"; case-insensitive -- see dram/address.hh).
     * "burst-ch" is the default and reproduces every pre-existing
     * result bit-identically; "row-ch" places channel bits above the
     * row, "perm-bank" XOR-permutes the bank index, and "ddr5-subch"
     * derives the channel count from DramSpec::subChannels. Unknown
     * names and map/spec mismatches are fatal named-key errors.
     */
    std::string addressMap = "burst-ch";

    /**
     * Cross-channel phase of every ledger-driven refresh schedule
     * (config key "refresh.channelStagger"): channel c's accrual
     * origin shifts by c x this many DRAM cycles, so all-bank
     * refreshes of different channels stop landing on the same ticks.
     * 0 disables staggering (bit-identical default); -1 picks the
     * even spread tREFIab / channels; positive values are explicit
     * cycle counts.
     */
    int channelStaggerCycles = 0;

    /**
     * Refresh mechanism by registry name ("REFab", "DSARP", "FGR2x",
     * ...; case-insensitive, aliases accepted -- see
     * refresh/registry.hh), the only selector. Before the system is
     * built, RefreshPolicyRegistry::resolve() derives the `refresh`,
     * `sarp` and `hira` tags below from it.
     */
    std::string policy = "REFab";

    /** @name Tags set by resolve() from `policy`. */
    /// @{
    RefreshMode refresh = RefreshMode::kAllBank;  ///< Timing profile.
    bool sarp = false;      ///< Subarray access refresh parallelization.

    /**
     * HiRA (hidden row activation, Yağlıkçı et al., MICRO'22) support,
     * set by the "HiRA" policy's config bundle: banks accept a hidden
     * per-bank refresh beneath an open row in a different subarray,
     * and tRRD/tFAW inflate while one is in flight (power integrity,
     * same Eq. 1-3 modeling as SARP).
     */
    bool hira = false;
    /// @}

    /**
     * Fraction of activated rows whose refresh can hide beneath the
     * access (config key "refresh.hiraCoverage"); negative keeps the
     * spec's characterized figure (~32%).
     */
    double hiraCoverage = -1.0;

    /**
     * Delay in DRAM cycles between a demand ACT and the hidden
     * refresh activation it covers (config key "refresh.hiraDelay");
     * 0 keeps the spec's tHiRA.
     */
    int hiraDelayCycles = 0;

    /**
     * Same-bank refresh (DDR5 REFsb) slice size in banks: how many
     * banks one REFsb command refreshes together (config key
     * "refresh.samebank.groupSize"). 0 keeps the spec's bank-group
     * geometry (DDR5-4800: 4 banks per group). Must divide
     * banksPerRank; selectable only on specs that declare same-bank
     * refresh support (DramSpec::banksPerGroup > 0).
     */
    int sameBankGroupSize = 0;

    /**
     * Allow the REFsb scheduler to pull in same-bank slices
     * opportunistically while the channel is idle (config key
     * "refresh.samebank.pullIn"). Disabling it isolates the blocking
     * round-robin baseline behaviour.
     */
    bool sameBankPullIn = true;

    /**
     * Command-level self-refresh idle-entry policy (config key
     * "refresh.selfRefresh.idleEntry"): after this many consecutive
     * DRAM cycles without demand activity on a rank, the controller
     * issues SRE (self-refresh entry). The rank then refreshes itself
     * -- its refresh ledger pauses and owed slots retire at the
     * internal rate -- until a demand request arrives, at which point
     * the controller issues SRX (no earlier than tCKESR after entry)
     * and the first command is charged the full tXS exit latency.
     * 0 disables the protocol entirely (bit-identical behaviour).
     */
    int srIdleEntryCycles = 0;

    /**
     * Explicit fine-granularity-refresh rate (config key
     * "refresh.fgrRate"): 0 keeps the rate implied by the refresh
     * profile (FGR2x/FGR4x -> 2/4, everything else 1); 1/2/4 force
     * the rate for *any* mechanism, letting per-bank schedulers
     * (DARP, HiRA) run on FGR-scaled timing -- tREFI shrinks by the
     * rate, tRFC by the spec's native divisor, and each command
     * covers proportionally fewer rows.
     */
    int fgrRate = 0;

    /**
     * Enable DARP's second component (write-refresh parallelization).
     * Disabled only for the Section 6.1.2 breakdown, which isolates the
     * out-of-order per-bank refresh component.
     */
    bool darpWriteRefresh = true;

    /** Queue capacity bound (validate()): the controller's per-bank
     *  request index keeps one bit per queue entry. */
    static constexpr int kMaxQueueSize = 64;

    int readQueueSize = 64;
    int writeQueueSize = 64;
    int writeHighWatermark = 54;  ///< Enter writeback mode at this occupancy.
    int writeLowWatermark = 32;   ///< Leave writeback mode at this occupancy.

    /**
     * Cross-rank phase of the REFab/Elastic schedules: rank r is offset
     * by tREFIab / (divisor * ranks). Large divisors nearly align the
     * ranks' refreshes (performance-optimal: the channel degrades once
     * per interval instead of twice); divisor 2 spreads them evenly.
     * The ablation bench sweeps this choice.
     */
    int refabStaggerDivisor = 8;

    /**
     * Extension of paper footnote 5: the LPDDR standard disallows
     * overlapping per-bank refreshes within a rank purely for
     * simplicity. Values > 1 model a modified standard that allows up
     * to this many concurrent REFpb per rank, with tFAW/tRRD inflated
     * per in-flight refresh for power integrity (cf. Eq. 1-3).
     * 1 reproduces the standard (and the paper's) behaviour.
     */
    int maxOverlappedRefPb = 1;

    /** Overrides in DRAM cycles for the tFAW sweep (0 = datasheet value). */
    int tFawOverride = 0;
    int tRrdOverride = 0;

    /**
     * SARP power-integrity inflation of tFAW/tRRD while a refresh is in
     * flight (Eq. 1-3): 2.1x during REFab, 1.138x during REFpb, derived
     * from Micron 8 Gb IDD values.
     */
    static constexpr double sarpInflationAb = 2.1;
    static constexpr double sarpInflationPb = 1.138;

    /**
     * Check every field for consistency. Returns "" when the config is
     * valid, otherwise a ';'-separated list of errors, each naming the
     * offending config key and its value.
     */
    std::string validate() const;

    /** Apply density defaults (rowsPerBank), then validate(); a fatal
     *  named-key error on inconsistent configs. */
    void finalize();
};

/** Core model configuration (Table 1 processor row). */
struct CoreConfig
{
    int cpuCyclesPerTick = 6;  ///< 4 GHz CPU over 667 MHz DRAM command clk.
    int windowSize = 128;      ///< Instruction window entries.
    int retireWidth = 3;       ///< Instructions retired per CPU cycle.
    int mshrs = 8;             ///< Outstanding read misses per core.
};

/**
 * Open-loop traffic front end: replaces the closed-loop core models
 * with request generators that inject at an externally fixed rate, so
 * queueing delay shows up in the read-latency tail instead of being
 * absorbed by core stall (the SLO framing of the paper's refresh
 * penalties). mode "off" (the default) keeps every closed-loop run
 * bit-identical.
 */
struct TrafficConfig
{
    /**
     * Arrival process (config key "traffic.mode"): "off" (closed-loop
     * cores, the default), "poisson" (memoryless arrivals),
     * "bursty" (two-state Markov-modulated Poisson: ON bursts at
     * burstFactor x the mean rate separated by idle gaps, same
     * long-run average), "diurnal" (sinusoidally modulated rate), or
     * "trace" (replay a DRAMSim-style external trace).
     */
    std::string mode = "off";

    /**
     * Aggregate mean arrival rate in requests per 1000 DRAM cycles
     * (config key "traffic.rate"), split evenly across tenants.
     */
    double ratePerKilocycle = 50.0;

    /** Read share of generated requests, percent (key "traffic.readPct"). */
    int readPct = 67;

    /**
     * Percent of generated requests directed at the tenant's small hot
     * row set (config key "traffic.hotRowPct"); the rest spread
     * uniformly over the tenant's partition. Hot-row skew is what makes
     * the address-map axis (burst-ch vs row-ch vs perm-bank)
     * differentiate under open-loop traffic.
     */
    double hotRowPct = 0.0;

    /** Hot-set size in rows per tenant (config key "traffic.hotRows"). */
    int hotRows = 16;

    /**
     * Number of tenants sharing the channels (config key
     * "tenant.count"). Each tenant owns an equal, disjoint slice of
     * the physical byte-address space and draws from its own RNG
     * stream, so per-tenant latency and max-slowdown fairness are
     * well-defined.
     */
    int tenants = 1;

    /**
     * Per-tenant injection priorities as a comma-separated list of
     * positive integers, highest first served (config key
     * "tenant.priorities"); empty means all tenants equal.
     */
    std::string tenantPriorities;

    /** Bursty mode: ON-state rate multiplier (key
     *  "traffic.burstFactor"). */
    double burstFactor = 8.0;

    /** Bursty mode: mean ON-burst length in cycles (key
     *  "traffic.burstLen"). */
    int burstLenCycles = 200;

    /** Diurnal mode: modulation period in cycles (key
     *  "traffic.diurnalPeriod"). */
    int diurnalPeriod = 100000;

    /** Diurnal mode: modulation amplitude in [0, 1] (key
     *  "traffic.diurnalAmp"). */
    double diurnalAmp = 0.8;

    /**
     * Trace mode: path to a DRAMSim-style trace, one request per line
     * as `0x<addr> READ|WRITE <cycle>` (config key "traffic.trace").
     * The trace loops with a cycle offset when exhausted.
     */
    std::string tracePath;

    bool enabled() const { return mode != "off"; }

    /**
     * Check every field for consistency. Returns "" when valid,
     * otherwise a ';'-separated list of errors naming the offending
     * config key, matching MemConfig::validate()'s contract.
     */
    std::string validate() const;

    /**
     * The per-tenant priority vector: tenantPriorities parsed, or all
     * ones when empty. Call only after validate() passed.
     */
    std::vector<int> priorityList() const;
};

/** Whole-system configuration. */
struct SystemConfig
{
    MemConfig mem;
    CoreConfig core;
    TrafficConfig traffic;
    int numCores = 8;
    std::uint64_t seed = 1;
    bool enableChecker = false;  ///< Attach the timing-invariant checker.

    /**
     * Simulation engine (config key "sim.engine"): "cycle" steps every
     * DRAM tick (the legacy loop, kept forever as the reference);
     * "event" skips to the earliest next deadline any component
     * reports, with bit-identical commands, stats, and RNG streams.
     */
    std::string engine = "cycle";

    /**
     * The one validation of a system: the policy and spec names, the
     * core count, the engine, the core model, the traffic front end,
     * and the memory config as finalize() resolves it (the policy's
     * config bundle applied, rows derived from the density). Returns
     * "" when valid, otherwise a ';'-separated list of errors, each
     * naming the offending config key.
     */
    std::string validate() const;

    /**
     * validate(), then resolve the refresh policy (the named
     * mechanism's config bundle may rewrite the timing profile
     * TimingParams depends on) and finalize the memory config; a
     * fatal named-key error on inconsistent values.
     */
    void finalize();
};

} // namespace dsarp

#endif // DSARP_COMMON_CONFIG_HH
