#include "sim/experiment.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/log.hh"
#include "sim/config_keys.hh"
#include "common/strings.hh"
#include "dram/spec.hh"
#include "refresh/registry.hh"

namespace dsarp {

namespace {

/** One settable field: its canonical key and a string-form setter that
 *  returns "" or a value-error description. */
struct KeyDesc
{
    const char *key;
    std::function<std::string(ExperimentConfig &, const std::string &)> set;
};

std::string
parseInt(const std::string &value, int &out)
{
    try {
        std::size_t pos = 0;
        const int parsed = std::stoi(value, &pos);
        if (pos != value.size())
            return "expected an integer, got '" + value + "'";
        out = parsed;
        return "";
    } catch (const std::exception &) {
        return "expected an integer, got '" + value + "'";
    }
}

std::string
parseU64(const std::string &value, std::uint64_t &out)
{
    try {
        std::size_t pos = 0;
        const unsigned long long parsed = std::stoull(value, &pos);
        if (pos != value.size() || value[0] == '-')
            return "expected a non-negative integer, got '" + value + "'";
        out = parsed;
        return "";
    } catch (const std::exception &) {
        return "expected a non-negative integer, got '" + value + "'";
    }
}

std::string
parseDouble(const std::string &value, double &out)
{
    try {
        std::size_t pos = 0;
        const double parsed = std::stod(value, &pos);
        if (pos != value.size())
            return "expected a number, got '" + value + "'";
        out = parsed;
        return "";
    } catch (const std::exception &) {
        return "expected a number, got '" + value + "'";
    }
}

std::string
parseBool(const std::string &value, bool &out)
{
    const std::string v = lowered(value);
    if (v == "1" || v == "true" || v == "yes" || v == "on") {
        out = true;
        return "";
    }
    if (v == "0" || v == "false" || v == "no" || v == "off") {
        out = false;
        return "";
    }
    return "expected a boolean (true/false/1/0), got '" + value + "'";
}

KeyDesc
intKey(const char *key, int ExperimentConfig::*field)
{
    return {key, [field](ExperimentConfig &cfg, const std::string &v) {
                return parseInt(v, cfg.*field);
            }};
}

KeyDesc
u64Key(const char *key, std::uint64_t ExperimentConfig::*field)
{
    return {key, [field](ExperimentConfig &cfg, const std::string &v) {
                return parseU64(v, cfg.*field);
            }};
}

KeyDesc
doubleKey(const char *key, double ExperimentConfig::*field)
{
    return {key, [field](ExperimentConfig &cfg, const std::string &v) {
                return parseDouble(v, cfg.*field);
            }};
}

KeyDesc
boolKey(const char *key, bool ExperimentConfig::*field)
{
    return {key, [field](ExperimentConfig &cfg, const std::string &v) {
                return parseBool(v, cfg.*field);
            }};
}

KeyDesc
trafficIntKey(const char *key, int TrafficConfig::*field)
{
    return {key, [field](ExperimentConfig &cfg, const std::string &v) {
                return parseInt(v, cfg.traffic.*field);
            }};
}

KeyDesc
trafficDoubleKey(const char *key, double TrafficConfig::*field)
{
    return {key, [field](ExperimentConfig &cfg, const std::string &v) {
                return parseDouble(v, cfg.traffic.*field);
            }};
}

const std::vector<KeyDesc> &
keyTable()
{
    static const std::vector<KeyDesc> table = {
        {keys::kPolicy,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected a refresh mechanism name";
             cfg.policy = v;
             return "";
         }},
        {keys::kDramSpec,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected a DRAM spec name";
             cfg.dramSpec = v;
             return "";
         }},
        {keys::kAddressMap,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected an address map name";
             cfg.addressMap = v;
             return "";
         }},
        intKey(keys::kDensityGb, &ExperimentConfig::densityGb),
        intKey(keys::kRetentionMs, &ExperimentConfig::retentionMs),
        intKey(keys::kSubarraysPerBank, &ExperimentConfig::subarraysPerBank),
        intKey(keys::kChannels, &ExperimentConfig::channels),
        intKey(keys::kRanksPerChannel, &ExperimentConfig::ranksPerChannel),
        intKey(keys::kBanksPerRank, &ExperimentConfig::banksPerRank),
        intKey(keys::kReadQueueSize, &ExperimentConfig::readQueueSize),
        intKey(keys::kWriteQueueSize, &ExperimentConfig::writeQueueSize),
        intKey(keys::kWriteHighWatermark, &ExperimentConfig::writeHighWatermark),
        intKey(keys::kWriteLowWatermark, &ExperimentConfig::writeLowWatermark),
        intKey(keys::kRefabStaggerDivisor,
               &ExperimentConfig::refabStaggerDivisor),
        intKey(keys::kMaxOverlappedRefPb, &ExperimentConfig::maxOverlappedRefPb),
        intKey(keys::kTFawOverride, &ExperimentConfig::tFawOverride),
        intKey(keys::kTRrdOverride, &ExperimentConfig::tRrdOverride),
        boolKey(keys::kDarpWriteRefresh, &ExperimentConfig::darpWriteRefresh),
        doubleKey(keys::kHiraCoverage, &ExperimentConfig::hiraCoverage),
        intKey(keys::kHiraDelay, &ExperimentConfig::hiraDelay),
        intKey(keys::kSameBankGroupSize,
               &ExperimentConfig::sameBankGroupSize),
        boolKey(keys::kSameBankPullIn,
                &ExperimentConfig::sameBankPullIn),
        intKey(keys::kSrIdleEntry,
               &ExperimentConfig::srIdleEntry),
        intKey(keys::kFgrRate, &ExperimentConfig::fgrRate),
        intKey(keys::kChannelStagger, &ExperimentConfig::channelStagger),
        intKey(keys::kNumCores, &ExperimentConfig::numCores),
        u64Key(keys::kSeed, &ExperimentConfig::seed),
        boolKey(keys::kEnableChecker, &ExperimentConfig::enableChecker),
        u64Key(keys::kWarmupCycles, &ExperimentConfig::warmupCycles),
        u64Key(keys::kMeasureCycles, &ExperimentConfig::measureCycles),
        u64Key(keys::kWorkloadSeed, &ExperimentConfig::workloadSeed),
        intKey(keys::kIntensityPct, &ExperimentConfig::intensityPct),
        {keys::kSimEngine,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected a simulation engine name";
             cfg.engine = v;
             return "";
         }},
        {keys::kTrafficMode,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected an arrival-process name "
                        "(off/poisson/bursty/diurnal/trace)";
             cfg.traffic.mode = lowered(v);
             return "";
         }},
        trafficDoubleKey(keys::kTrafficRate,
                         &TrafficConfig::ratePerKilocycle),
        trafficIntKey(keys::kTrafficReadPct, &TrafficConfig::readPct),
        trafficDoubleKey(keys::kTrafficHotRowPct,
                         &TrafficConfig::hotRowPct),
        trafficIntKey(keys::kTrafficHotRows, &TrafficConfig::hotRows),
        trafficDoubleKey(keys::kTrafficBurstFactor,
                         &TrafficConfig::burstFactor),
        trafficIntKey(keys::kTrafficBurstLen,
                      &TrafficConfig::burstLenCycles),
        trafficIntKey(keys::kTrafficDiurnalPeriod,
                      &TrafficConfig::diurnalPeriod),
        trafficDoubleKey(keys::kTrafficDiurnalAmp,
                         &TrafficConfig::diurnalAmp),
        {keys::kTrafficTrace,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected a DRAMSim-style trace file path";
             cfg.traffic.tracePath = v;
             return "";
         }},
        trafficIntKey(keys::kTenantCount, &TrafficConfig::tenants),
        {keys::kTenantPriorities,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             cfg.traffic.tenantPriorities = v;
             return "";
         }},
    };
    return table;
}

} // namespace

std::string
ExperimentConfig::trySet(const std::string &key, const std::string &value)
{
    const std::string wanted = lowered(trimmed(key));
    for (const KeyDesc &desc : keyTable()) {
        if (lowered(desc.key) != wanted)
            continue;
        std::string err = desc.set(*this, trimmed(value));
        if (!err.empty())
            err = "config key '" + std::string(desc.key) + "': " + err;
        return err;
    }
    if (wanted == lowered(keys::kRemovedSelfRefreshIdle)) {
        return std::string("config key '") + keys::kRemovedSelfRefreshIdle +
            "': removed; use '" + keys::kSrIdleEntry + "'";
    }
    std::ostringstream msg;
    msg << "unknown config key '" << key << "'; known:";
    for (const std::string &known : knownKeys())
        msg << ' ' << known;
    return msg.str();
}

void
ExperimentConfig::set(const std::string &key, const std::string &value)
{
    const std::string err = trySet(key, value);
    if (!err.empty())
        DSARP_FATALF("%s", err.c_str());
}

void
ExperimentConfig::applyOverride(const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos) {
        DSARP_FATALF("override '%s' is not of the form key=value",
                     assignment.c_str());
    }
    set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

void
ExperimentConfig::applyFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        DSARP_FATALF("cannot open config file '%s'", path.c_str());
    applyStream(in, path);
}

void
ExperimentConfig::applyStream(std::istream &in, const std::string &path)
{
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimmed(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            DSARP_FATALF("%s:%d: '%s' is not of the form key=value",
                         path.c_str(), lineno, line.c_str());
        }
        const std::string err =
            trySet(line.substr(0, eq), line.substr(eq + 1));
        if (!err.empty()) {
            DSARP_FATALF("%s:%d: %s", path.c_str(), lineno, err.c_str());
        }
    }
}

void
ExperimentConfig::applyEnv()
{
    const char *env = std::getenv("DSARP_SET");
    if (!env || !*env)
        return;
    applyEnvString(env);
}

void
ExperimentConfig::applyEnvString(const std::string &overrides)
{
    std::istringstream stream(overrides);
    std::string item;
    while (std::getline(stream, item, ',')) {
        item = trimmed(item);
        if (!item.empty())
            applyOverride(item);
    }
}

std::vector<std::string>
ExperimentConfig::knownKeys()
{
    std::vector<std::string> out;
    out.reserve(keyTable().size());
    for (const KeyDesc &desc : keyTable())
        out.push_back(desc.key);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
ExperimentConfig::validate() const
{
    std::ostringstream bad;
    const char *sep = "";
    auto fail = [&](const std::string &msg) {
        bad << sep << msg;
        sep = "; ";
    };

    const auto &registry = RefreshPolicyRegistry::instance();
    if (!registry.has(policy))
        fail(registry.unknownPolicyMessage(policy));
    const auto &specs = DramSpecRegistry::instance();
    if (!specs.has(dramSpec))
        fail(specs.unknownSpecMessage(dramSpec));
    if (densityGb != 8 && densityGb != 16 && densityGb != 32) {
        fail(std::string("config key '") + keys::kDensityGb +
             "' must be 8, 16 or 32 (got " +
             std::to_string(densityGb) + ")");
    }
    if (intensityPct != 0 && intensityPct != 25 && intensityPct != 50 &&
        intensityPct != 75 && intensityPct != 100) {
        fail(std::string("config key '") + keys::kIntensityPct +
             "' must be one of 0/25/50/75/100 (got " +
             std::to_string(intensityPct) + ")");
    }
    if (numCores < 1) {
        fail(std::string("config key '") + keys::kNumCores +
             "' must be >= 1 (got " + std::to_string(numCores) + ")");
    }
    if (engine != "cycle" && engine != "event") {
        fail(std::string("config key '") + keys::kSimEngine +
             "' must be \"cycle\" or \"event\" (got \"" + engine + "\")");
    }
    // -1 means "keep the MemConfig default"; anything else must be an
    // explicit (non-negative) value so a bad override never silently
    // falls back to the default.
    auto explicitOrDefault = [&](const char *key, int v) {
        if (v < -1) {
            fail(std::string("config key '") + key + "' must be >= 0, "
                 "or -1 for the default (got " + std::to_string(v) + ")");
        }
    };
    explicitOrDefault(keys::kWriteHighWatermark, writeHighWatermark);
    explicitOrDefault(keys::kWriteLowWatermark, writeLowWatermark);
    explicitOrDefault(keys::kRefabStaggerDivisor, refabStaggerDivisor);
    explicitOrDefault(keys::kMaxOverlappedRefPb, maxOverlappedRefPb);
    const std::string trafficErrors = traffic.validate();
    if (!trafficErrors.empty())
        fail(trafficErrors);
    // refresh.hiraCoverage / refresh.hiraDelay are checked by the
    // delegated MemConfig::validate() below, like the other mem keys.

    // Delegate the memory-system cross-checks; their messages already
    // name keys. rowsPerBank must be applied first, as finalize()
    // would, and the policy's config bundle resolved so checks that
    // depend on the selected mechanism (e.g. REFsb needing a spec
    // with bank-group support) fire here, not at System construction.
    if (densityGb == 8 || densityGb == 16 || densityGb == 32) {
        SystemConfig sys = toSystemConfig();
        sys.mem.org.rowsPerBank = rowsPerBankFor(sys.mem.density);
        if (registry.has(sys.mem.policy))
            registry.resolve(sys.mem);
        const std::string memErrors = sys.mem.validate();
        if (!memErrors.empty())
            fail(memErrors);
    }
    return bad.str();
}

std::string
ExperimentConfig::mechanismName() const
{
    return RefreshPolicyRegistry::instance().at(policy).name;
}

std::string
ExperimentConfig::dramSpecName() const
{
    return DramSpecRegistry::instance().at(dramSpec).name;
}

SystemConfig
ExperimentConfig::toSystemConfig() const
{
    SystemConfig sys;
    sys.mem.policy = policy;
    sys.mem.dramSpec = dramSpec;
    sys.mem.addressMap = addressMap;
    sys.mem.channelStaggerCycles = channelStagger;
    sys.mem.density = densityGb == 8 ? Density::k8Gb
        : densityGb == 16            ? Density::k16Gb
                                     : Density::k32Gb;
    sys.mem.retentionMs = retentionMs;
    sys.mem.org.subarraysPerBank = subarraysPerBank;
    sys.mem.org.channels = channels;
    sys.mem.org.ranksPerChannel = ranksPerChannel;
    sys.mem.org.banksPerRank = banksPerRank;
    sys.mem.readQueueSize = readQueueSize;
    sys.mem.writeQueueSize = writeQueueSize;
    if (writeHighWatermark >= 0)
        sys.mem.writeHighWatermark = writeHighWatermark;
    if (writeLowWatermark >= 0)
        sys.mem.writeLowWatermark = writeLowWatermark;
    if (refabStaggerDivisor >= 0)
        sys.mem.refabStaggerDivisor = refabStaggerDivisor;
    if (maxOverlappedRefPb >= 0)
        sys.mem.maxOverlappedRefPb = maxOverlappedRefPb;
    sys.mem.tFawOverride = tFawOverride;
    sys.mem.tRrdOverride = tRrdOverride;
    sys.mem.darpWriteRefresh = darpWriteRefresh;
    sys.mem.hiraCoverage = hiraCoverage;
    sys.mem.hiraDelayCycles = hiraDelay;
    sys.mem.sameBankGroupSize = sameBankGroupSize;
    sys.mem.sameBankPullIn = sameBankPullIn;
    sys.mem.srIdleEntryCycles = srIdleEntry;
    sys.mem.fgrRate = fgrRate;
    sys.traffic = traffic;
    sys.numCores = numCores;
    sys.seed = seed;
    sys.enableChecker = enableChecker;
    sys.engine = engine;
    return sys;
}

} // namespace dsarp
