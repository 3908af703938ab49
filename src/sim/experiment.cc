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
parse(const std::string &value, int &out)
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
parse(const std::string &value, std::uint64_t &out)
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
parse(const std::string &value, double &out)
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
parse(const std::string &value, bool &out)
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

std::string
parse(const std::string &value, Density &out)
{
    int gb = 0;
    const std::string err = parse(value, gb);
    if (!err.empty())
        return err;
    if (gb != 8 && gb != 16 && gb != 32)
        return "must be 8, 16 or 32 (got " + std::to_string(gb) + ")";
    out = gb == 8 ? Density::k8Gb : gb == 16 ? Density::k16Gb
                                             : Density::k32Gb;
    return "";
}

std::string
parse(const std::string &value, std::string &out)
{
    out = value;
    return "";
}

/** @name The struct a key lands in, reached from the config. */
/// @{
ExperimentConfig &runOf(ExperimentConfig &cfg) { return cfg; }
SystemConfig &sysOf(ExperimentConfig &cfg) { return cfg.sys; }
MemConfig &memOf(ExperimentConfig &cfg) { return cfg.sys.mem; }
MemOrg &orgOf(ExperimentConfig &cfg) { return cfg.sys.mem.org; }
TrafficConfig &trafficOf(ExperimentConfig &cfg) { return cfg.sys.traffic; }
/// @}

/**
 * A key whose value parses straight into @p field of the struct
 * @p owner reaches. With @p expected (names and paths), an empty value
 * is an error saying what was expected; validate() checks names
 * against their registries.
 */
template <typename S, typename T>
KeyDesc
row(const char *key, S &(*owner)(ExperimentConfig &), T S::*field,
    const char *expected = nullptr)
{
    return {key, [=](ExperimentConfig &cfg, const std::string &v) {
                if (expected && v.empty())
                    return std::string("expected ") + expected;
                return parse(v, owner(cfg).*field);
            }};
}

const std::vector<KeyDesc> &
keyTable()
{
    static const std::vector<KeyDesc> table = {
        row(keys::kPolicy, memOf, &MemConfig::policy,
            "a refresh mechanism name"),
        row(keys::kDramSpec, memOf, &MemConfig::dramSpec, "a DRAM spec name"),
        row(keys::kAddressMap, memOf, &MemConfig::addressMap,
            "an address map name"),
        row(keys::kDensityGb, memOf, &MemConfig::density),
        row(keys::kRetentionMs, memOf, &MemConfig::retentionMs),
        row(keys::kSubarraysPerBank, orgOf, &MemOrg::subarraysPerBank),
        row(keys::kChannels, orgOf, &MemOrg::channels),
        row(keys::kRanksPerChannel, orgOf, &MemOrg::ranksPerChannel),
        row(keys::kBanksPerRank, orgOf, &MemOrg::banksPerRank),
        row(keys::kReadQueueSize, memOf, &MemConfig::readQueueSize),
        row(keys::kWriteQueueSize, memOf, &MemConfig::writeQueueSize),
        row(keys::kWriteHighWatermark, memOf, &MemConfig::writeHighWatermark),
        row(keys::kWriteLowWatermark, memOf, &MemConfig::writeLowWatermark),
        row(keys::kRefabStaggerDivisor, memOf,
            &MemConfig::refabStaggerDivisor),
        row(keys::kMaxOverlappedRefPb, memOf, &MemConfig::maxOverlappedRefPb),
        row(keys::kTFawOverride, memOf, &MemConfig::tFawOverride),
        row(keys::kTRrdOverride, memOf, &MemConfig::tRrdOverride),
        row(keys::kDarpWriteRefresh, memOf, &MemConfig::darpWriteRefresh),
        row(keys::kHiraCoverage, memOf, &MemConfig::hiraCoverage),
        row(keys::kHiraDelay, memOf, &MemConfig::hiraDelayCycles),
        row(keys::kSameBankGroupSize, memOf, &MemConfig::sameBankGroupSize),
        row(keys::kSameBankPullIn, memOf, &MemConfig::sameBankPullIn),
        row(keys::kSrIdleEntry, memOf, &MemConfig::srIdleEntryCycles),
        row(keys::kFgrRate, memOf, &MemConfig::fgrRate),
        row(keys::kChannelStagger, memOf, &MemConfig::channelStaggerCycles),
        row(keys::kNumCores, sysOf, &SystemConfig::numCores),
        row(keys::kSeed, sysOf, &SystemConfig::seed),
        row(keys::kEnableChecker, sysOf, &SystemConfig::enableChecker),
        row(keys::kWarmupCycles, runOf, &ExperimentConfig::warmupCycles),
        row(keys::kMeasureCycles, runOf, &ExperimentConfig::measureCycles),
        row(keys::kWorkloadSeed, runOf, &ExperimentConfig::workloadSeed),
        row(keys::kIntensityPct, runOf, &ExperimentConfig::intensityPct),
        row(keys::kSimEngine, sysOf, &SystemConfig::engine,
            "a simulation engine name"),
        {keys::kTrafficMode,
         [](ExperimentConfig &cfg, const std::string &v) -> std::string {
             if (v.empty())
                 return "expected an arrival-process name "
                        "(off/poisson/bursty/diurnal/trace)";
             cfg.sys.traffic.mode = lowered(v);
             return "";
         }},
        row(keys::kTrafficRate, trafficOf, &TrafficConfig::ratePerKilocycle),
        row(keys::kTrafficReadPct, trafficOf, &TrafficConfig::readPct),
        row(keys::kTrafficHotRowPct, trafficOf, &TrafficConfig::hotRowPct),
        row(keys::kTrafficHotRows, trafficOf, &TrafficConfig::hotRows),
        row(keys::kTrafficBurstFactor, trafficOf, &TrafficConfig::burstFactor),
        row(keys::kTrafficBurstLen, trafficOf, &TrafficConfig::burstLenCycles),
        row(keys::kTrafficDiurnalPeriod, trafficOf,
            &TrafficConfig::diurnalPeriod),
        row(keys::kTrafficDiurnalAmp, trafficOf, &TrafficConfig::diurnalAmp),
        row(keys::kTrafficTrace, trafficOf, &TrafficConfig::tracePath,
            "a DRAMSim-style trace file path"),
        row(keys::kTenantCount, trafficOf, &TrafficConfig::tenants),
        row(keys::kTenantPriorities, trafficOf,
            &TrafficConfig::tenantPriorities),
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
    std::string errors = sys.validate();
    if (intensityPct != 0 && intensityPct != 25 && intensityPct != 50 &&
        intensityPct != 75 && intensityPct != 100) {
        errors += std::string(errors.empty() ? "" : "; ") +
                  "config key '" + keys::kIntensityPct +
                  "' must be one of 0/25/50/75/100 (got " +
                  std::to_string(intensityPct) + ")";
    }
    return errors;
}

std::string
ExperimentConfig::mechanismName() const
{
    return RefreshPolicyRegistry::instance().at(sys.mem.policy).name;
}

std::string
ExperimentConfig::dramSpecName() const
{
    return DramSpecRegistry::instance().at(sys.mem.dramSpec).name;
}

} // namespace dsarp
