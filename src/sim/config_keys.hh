/**
 * @file
 * The canonical spelling of every ExperimentConfig key, declared once.
 *
 * Key strings are user-facing API: a typo in a setter, a validator or
 * an error message silently forks the vocabulary. All code that names
 * a key (the keyTable() parsers, validate() diagnostics, tests) must
 * use these constants; the analyzer's config-key-once rule
 * (tools/analyze/dsarp_analyze.py) rejects a string literal under src/
 * that respells one of them or quotes one in a message.
 */

#ifndef DSARP_SIM_CONFIG_KEYS_HH
#define DSARP_SIM_CONFIG_KEYS_HH

namespace dsarp::keys {

inline constexpr char kPolicy[] = "policy";
inline constexpr char kDramSpec[] = "dram.spec";
inline constexpr char kDensityGb[] = "densityGb";
inline constexpr char kRetentionMs[] = "retentionMs";
inline constexpr char kSubarraysPerBank[] = "subarraysPerBank";
inline constexpr char kChannels[] = "channels";
inline constexpr char kAddressMap[] = "address.map";
inline constexpr char kChannelStagger[] = "refresh.channelStagger";
inline constexpr char kRanksPerChannel[] = "ranksPerChannel";
inline constexpr char kBanksPerRank[] = "banksPerRank";
inline constexpr char kReadQueueSize[] = "readQueueSize";
inline constexpr char kWriteQueueSize[] = "writeQueueSize";
inline constexpr char kWriteHighWatermark[] = "writeHighWatermark";
inline constexpr char kWriteLowWatermark[] = "writeLowWatermark";
inline constexpr char kRefabStaggerDivisor[] = "refabStaggerDivisor";
inline constexpr char kMaxOverlappedRefPb[] = "maxOverlappedRefPb";
inline constexpr char kTFawOverride[] = "tFawOverride";
inline constexpr char kTRrdOverride[] = "tRrdOverride";
inline constexpr char kDarpWriteRefresh[] = "darpWriteRefresh";
inline constexpr char kHiraCoverage[] = "refresh.hiraCoverage";
inline constexpr char kHiraDelay[] = "refresh.hiraDelay";
inline constexpr char kSameBankGroupSize[] = "refresh.samebank.groupSize";
inline constexpr char kSameBankPullIn[] = "refresh.samebank.pullIn";
inline constexpr char kSrIdleEntry[] = "refresh.selfRefresh.idleEntry";
inline constexpr char kFgrRate[] = "refresh.fgrRate";
inline constexpr char kNumCores[] = "numCores";
inline constexpr char kSeed[] = "seed";
inline constexpr char kEnableChecker[] = "enableChecker";
inline constexpr char kWarmupCycles[] = "warmupCycles";
inline constexpr char kMeasureCycles[] = "measureCycles";
inline constexpr char kWorkloadSeed[] = "workloadSeed";
inline constexpr char kIntensityPct[] = "intensityPct";
inline constexpr char kSimEngine[] = "sim.engine";
inline constexpr char kTrafficMode[] = "traffic.mode";
inline constexpr char kTrafficRate[] = "traffic.rate";
inline constexpr char kTrafficReadPct[] = "traffic.readPct";
inline constexpr char kTrafficHotRowPct[] = "traffic.hotRowPct";
inline constexpr char kTrafficHotRows[] = "traffic.hotRows";
inline constexpr char kTrafficBurstFactor[] = "traffic.burstFactor";
inline constexpr char kTrafficBurstLen[] = "traffic.burstLen";
inline constexpr char kTrafficDiurnalPeriod[] = "traffic.diurnalPeriod";
inline constexpr char kTrafficDiurnalAmp[] = "traffic.diurnalAmp";
inline constexpr char kTrafficTrace[] = "traffic.trace";
inline constexpr char kTenantCount[] = "tenant.count";
inline constexpr char kTenantPriorities[] = "tenant.priorities";

/** A removed key: setting it fails with "removed; use
 *  'refresh.selfRefresh.idleEntry'" (kSrIdleEntry). Not in kAllKeys. */
inline constexpr char kRemovedSelfRefreshIdle[] = "energy.selfRefreshIdle";

/** Every key, for the tests' exhaustiveness checks. */
inline constexpr const char *const kAllKeys[] = {
    kPolicy,          kDramSpec,           kDensityGb,
    kRetentionMs,     kSubarraysPerBank,   kChannels,
    kAddressMap,      kChannelStagger,
    kRanksPerChannel, kBanksPerRank,       kReadQueueSize,
    kWriteQueueSize,  kWriteHighWatermark, kWriteLowWatermark,
    kRefabStaggerDivisor, kMaxOverlappedRefPb, kTFawOverride,
    kTRrdOverride,    kDarpWriteRefresh,   kHiraCoverage,
    kHiraDelay,       kSameBankGroupSize,  kSameBankPullIn,
    kSrIdleEntry,     kFgrRate,            kNumCores,
    kSeed,            kEnableChecker,
    kWarmupCycles,    kMeasureCycles,      kWorkloadSeed,
    kIntensityPct,    kSimEngine,          kTrafficMode,
    kTrafficRate,     kTrafficReadPct,     kTrafficHotRowPct,
    kTrafficHotRows,  kTrafficBurstFactor, kTrafficBurstLen,
    kTrafficDiurnalPeriod, kTrafficDiurnalAmp, kTrafficTrace,
    kTenantCount,     kTenantPriorities,
};

} // namespace dsarp::keys

#endif // DSARP_SIM_CONFIG_KEYS_HH
