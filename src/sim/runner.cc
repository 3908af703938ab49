#include "sim/runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "common/log.hh"
#include "common/rng.hh"
#include "dram/address.hh"
#include "dram/spec.hh"
#include "sim/metrics.hh"

namespace dsarp {

std::uint64_t
envKnob(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE ||
        *value == '-' || parsed == 0) {
        DSARP_FATALF("environment knob %s: '%s' is not a positive "
                     "integer",
                     name, value);
    }
    return parsed;
}

SystemConfig
Runner::makeSystemConfig(const RunConfig &cfg)
{
    SystemConfig sys;
    sys.mem.policy = cfg.policy;
    if (!cfg.dramSpec.empty())
        sys.mem.dramSpec = cfg.dramSpec;
    if (!cfg.addressMap.empty())
        sys.mem.addressMap = cfg.addressMap;
    if (cfg.channels > 0)
        sys.mem.org.channels = cfg.channels;
    sys.mem.channelStaggerCycles = cfg.channelStaggerCycles;
    sys.mem.density = cfg.density;
    sys.mem.retentionMs = cfg.retentionMs;
    sys.mem.darpWriteRefresh = cfg.darpWriteRefresh;
    sys.mem.org.subarraysPerBank = cfg.subarraysPerBank;
    sys.mem.tFawOverride = cfg.tFawOverride;
    sys.mem.tRrdOverride = cfg.tRrdOverride;
    if (cfg.writeHighWatermark > 0)
        sys.mem.writeHighWatermark = cfg.writeHighWatermark;
    if (cfg.writeLowWatermark > 0)
        sys.mem.writeLowWatermark = cfg.writeLowWatermark;
    if (cfg.refabStaggerDivisor > 0)
        sys.mem.refabStaggerDivisor = cfg.refabStaggerDivisor;
    if (cfg.maxOverlappedRefPb > 0)
        sys.mem.maxOverlappedRefPb = cfg.maxOverlappedRefPb;
    sys.mem.srIdleEntryCycles = cfg.srIdleEntryCycles;
    sys.mem.fgrRate = cfg.fgrRate;
    if (!cfg.engine.empty())
        sys.engine = cfg.engine;
    sys.traffic = cfg.traffic;
    sys.numCores = cfg.numCores;
    sys.seed = cfg.seed;
    return sys;
}

Runner::Runner()
{
    measure_ = envKnob("DSARP_BENCH_CYCLES", 250000);
    warmup_ = envKnob("DSARP_BENCH_WARMUP", 30000);
    perCategory_ =
        static_cast<int>(envKnob("DSARP_BENCH_WORKLOADS_PER_CAT", 3));
}

Runner::Runner(Tick warmup, Tick measure, int per_category)
    : warmup_(warmup), measure_(measure), perCategory_(per_category)
{
    DSARP_ASSERT(measure_ > 0, "measurement window must be positive");
}

namespace {

/** Fold per-channel counters and the energy model into @p res. */
void
collectChannelStats(System &system, const SystemConfig &sys,
                    RunResult &res)
{
    // Per-spec IDD/vdd sets: the selected backend's datasheet values,
    // not a hard-coded Micron DDR3 approximation for every spec.
    const EnergyParams &energy =
        DramSpecRegistry::instance().at(sys.mem.dramSpec).energy;
    double total_nj = 0.0;
    double accesses = 0.0;
    for (int ch = 0; ch < system.numChannels(); ++ch) {
        const ChannelStats &cs = system.controller(ch).channel().stats();
        // dsarp-analyze: allow(fp-accumulation-order): the channel
        // index order is fixed, so this fp fold is bit-stable.
        total_nj += channelEnergy(cs, system.timing(), energy).totalNj();
        // dsarp-analyze: allow(fp-accumulation-order): same fixed
        // channel order as above.
        accesses += static_cast<double>(cs.reads + cs.writes);
        res.refAb += cs.refAb;
        res.refPb += cs.refPb;
        res.refSb += cs.refSb;
        res.refPbHidden += cs.refPbHidden;
        res.srEnters += cs.srEnter;
        res.srExits += cs.srExit;
        res.srTicks += cs.srTicks;
        res.refOverlapTicks += cs.refOverlapTicks;
        res.readsCompleted += system.controller(ch).stats().readsCompleted;
        res.writesIssued += system.controller(ch).stats().writesIssued;
        res.readLatency.merge(system.controller(ch).stats().readLatency);
        res.cmdDigest =
            mix64(res.cmdDigest ^ system.controller(ch).stats().cmdDigest);
    }
    res.energyPerAccessNj = accesses > 0.0 ? total_nj / accesses : 0.0;
}

} // namespace

double
Runner::aloneIpc(int bench_idx, const RunConfig &cfg)
{
    return aloneIpc(bench_idx, makeSystemConfig(cfg));
}

double
Runner::aloneIpc(int bench_idx, const SystemConfig &sys)
{
    // Process-wide memoization: keyed on every field the single-core
    // refresh-free run depends on (geometry, queues, timing overrides,
    // core model) plus this runner's run lengths. The simulator seed is
    // deliberately excluded -- the baseline is treated as a property of
    // the benchmark, matching the paper's alone-run methodology.
    //
    // Mutex-guarded for the parallel sweep harness: the lock covers
    // only the lookup and the insert, never the alone-run simulation
    // itself, so a miss does not serialize unrelated sweep points. Two
    // threads racing on the same key both simulate (deterministically,
    // to the same value) and the first insert wins.
    static std::mutex cacheMutex;
    static std::map<std::string, double> cache;
    std::ostringstream key;
    // The canonical spec name (not the user's alias/case) so
    // "ddr4" and "DDR4-2400" share one baseline.
    key << bench_idx << ':' << warmup_ << ':' << measure_ << ':'
        << DramSpecRegistry::instance().at(sys.mem.dramSpec).name << ':'
        << AddressMapRegistry::instance().at(sys.mem.addressMap).name
        << ':'
        << densityName(sys.mem.density) << ':' << sys.mem.retentionMs
        << ':' << sys.mem.org.subarraysPerBank << ':'
        << sys.mem.tFawOverride << ':' << sys.mem.tRrdOverride << ':'
        << sys.mem.org.channels << ':' << sys.mem.org.ranksPerChannel
        << ':' << sys.mem.org.banksPerRank << ':'
        << sys.mem.org.rowBytes << ':' << sys.mem.org.lineBytes << ':'
        << sys.mem.readQueueSize << ':' << sys.mem.writeQueueSize << ':'
        << sys.mem.writeHighWatermark << ':' << sys.mem.writeLowWatermark
        << ':' << sys.core.cpuCyclesPerTick << ':' << sys.core.windowSize
        << ':' << sys.core.retireWidth << ':' << sys.core.mshrs;
    {
        const std::lock_guard<std::mutex> lock(cacheMutex);
        const auto it = cache.find(key.str());
        if (it != cache.end())
            return it->second;
    }

    // Alone baseline: the benchmark alone on one core with refresh
    // eliminated, same DRAM geometry. Self-refresh is disabled too --
    // the baseline is the *ideal* memory system, and an idle-entry
    // policy would otherwise charge the mostly-idle alone run its tXS
    // exits (and, being absent from the cache key, poison the shared
    // baselines).
    SystemConfig alone = sys;
    alone.mem.policy = "NoREF";
    alone.mem.srIdleEntryCycles = 0;
    alone.numCores = 1;
    alone.enableChecker = false;
    System system(alone, std::vector<int>{bench_idx});
    system.run(warmup_);
    system.resetStats();
    system.run(measure_);
    const double ipc = system.coreIpc()[0];
    DSARP_ASSERT(ipc > 0.0, "alone run produced zero IPC");
    const std::lock_guard<std::mutex> lock(cacheMutex);
    return cache.emplace(key.str(), ipc).first->second;
}

RunResult
Runner::run(const RunConfig &cfg, const Workload &workload)
{
    return run(makeSystemConfig(cfg), workload);
}

RunResult
Runner::run(const SystemConfig &sys, const Workload &workload)
{
    DSARP_ASSERT(static_cast<int>(workload.benchIdx.size()) ==
                     sys.numCores,
                 "workload size does not match core count");

    System system(sys, workload.benchIdx);
    system.run(warmup_);
    system.resetStats();
    system.run(measure_);

    RunResult res;
    res.ipc = system.coreIpc();
    for (int bench : workload.benchIdx)
        res.aloneIpc.push_back(aloneIpc(bench, sys));
    res.ws = weightedSpeedup(res.ipc, res.aloneIpc);
    res.hs = harmonicSpeedup(res.ipc, res.aloneIpc);
    res.maxSlowdown = maxSlowdown(res.ipc, res.aloneIpc);
    collectChannelStats(system, sys, res);
    return res;
}

RunResult
Runner::run(const SystemConfig &sys,
            const std::vector<TraceSource *> &traces)
{
    System system(sys, traces);
    system.run(warmup_);
    system.resetStats();
    system.run(measure_);

    RunResult res;
    res.ipc = system.coreIpc();
    collectChannelStats(system, sys, res);
    return res;
}

RunResult
Runner::runTraffic(const SystemConfig &sys)
{
    DSARP_ASSERT(sys.traffic.enabled(),
                 "runTraffic needs traffic.mode != off");
    System system(sys);
    system.run(warmup_);
    system.resetStats();
    system.run(measure_);

    RunResult res;
    collectChannelStats(system, sys, res);

    const TrafficInjector &inj = *system.injector();
    double minMean = 0.0;
    bool haveMean = false;
    res.tenants.resize(static_cast<std::size_t>(inj.tenants()));
    for (int i = 0; i < inj.tenants(); ++i) {
        TenantResult &t = res.tenants[static_cast<std::size_t>(i)];
        const TrafficInjector::TenantStats &ts = inj.tenantStats(i);
        const LatencyHistogram &lat = system.tenantLatency(i);
        t.priority = inj.tenantPriority(i);
        t.generated = ts.generated;
        t.injected = ts.injected;
        t.reads = lat.count();
        t.avgBacklog = ts.ticks
            ? static_cast<double>(ts.backlogSum) /
                static_cast<double>(ts.ticks)
            : 0.0;
        t.meanLatency = lat.mean();
        t.p50 = lat.percentile(50.0);
        t.p99 = lat.percentile(99.0);
        t.p999 = lat.percentile(99.9);
        if (lat.count() > 0 &&
            (!haveMean || t.meanLatency < minMean)) {
            minMean = t.meanLatency;
            haveMean = true;
        }
    }
    // Max-slowdown fairness: every tenant's mean latency against the
    // best-served tenant's. 1.0 = perfectly fair; tenants that
    // completed no reads are left at slowdown 0.
    res.tenantFairness = 0.0;
    for (TenantResult &t : res.tenants) {
        if (t.reads > 0 && haveMean && minMean > 0.0) {
            t.slowdown = t.meanLatency / minMean;
            res.tenantFairness =
                std::max(res.tenantFairness, t.slowdown);
        }
    }
    return res;
}

RunResult
Runner::runTraffic(const RunConfig &cfg)
{
    return runTraffic(makeSystemConfig(cfg));
}

} // namespace dsarp
