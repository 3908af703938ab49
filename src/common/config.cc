#include "common/config.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/log.hh"
#include "dram/address.hh"
#include "dram/spec.hh"
#include "refresh/registry.hh"
#include "sim/config_keys.hh"

namespace dsarp {

const char *
densityName(Density d)
{
    switch (d) {
      case Density::k8Gb: return "8Gb";
      case Density::k16Gb: return "16Gb";
      case Density::k32Gb: return "32Gb";
    }
    return "?";
}

int
rowsPerBankFor(Density d)
{
    switch (d) {
      case Density::k8Gb: return 65536;
      case Density::k16Gb: return 131072;
      case Density::k32Gb: return 262144;
    }
    return 65536;
}

std::string
MemConfig::validate() const
{
    const DramSpec *spec = DramSpecRegistry::instance().find(dramSpec);
    std::string bad;
    auto fail = [&](const std::string &msg) {
        bad += (bad.empty() ? "" : "; ") + msg;
    };
    auto atLeastOne = [&](const char *key, int v) {
        if (v < 1) {
            fail(std::string("config key '") + key + "' must be >= 1 "
                 "(got " + std::to_string(v) + ")");
        }
    };

    atLeastOne(keys::kChannels, org.channels);
    atLeastOne(keys::kRanksPerChannel, org.ranksPerChannel);
    atLeastOne(keys::kBanksPerRank, org.banksPerRank);
    atLeastOne(keys::kSubarraysPerBank, org.subarraysPerBank);
    if (org.ranksPerChannel > MemOrg::kMaxRanksPerChannel) {
        fail(std::string("config key '") + keys::kRanksPerChannel +
             "' must be <= " +
             std::to_string(MemOrg::kMaxRanksPerChannel) + " (got " +
             std::to_string(org.ranksPerChannel) + ")");
    } else if (org.ranksPerChannel >= 1 && org.banksPerRank >= 1 &&
               org.banksPerRank > MemOrg::kMaxBanksPerChannel /
                                      org.ranksPerChannel) {
        fail(std::string("config keys '") + keys::kRanksPerChannel +
             "' x '" + keys::kBanksPerRank + "' (" +
             std::to_string(org.ranksPerChannel) + " x " +
             std::to_string(org.banksPerRank) + ") must be <= " +
             std::to_string(MemOrg::kMaxBanksPerChannel) +
             " banks per channel");
    }

    // SARP's subarray grouping and the address map both require a
    // power-of-two subarray count that tiles the bank's rows evenly.
    if (org.subarraysPerBank >= 1 &&
        (org.subarraysPerBank & (org.subarraysPerBank - 1)) != 0) {
        fail(std::string("config key '") + keys::kSubarraysPerBank +
             "' must be a power of two (got " +
             std::to_string(org.subarraysPerBank) + ")");
    } else if (org.subarraysPerBank >= 1 &&
               org.rowsPerBank % org.subarraysPerBank != 0) {
        fail(std::string("config key '") + keys::kSubarraysPerBank +
             "' (" + std::to_string(org.subarraysPerBank) + ") must divide "
             "rowsPerBank (" + std::to_string(org.rowsPerBank) + ")");
    }
    if (org.lineBytes < 1 || org.rowBytes < 1 ||
        org.rowBytes % org.lineBytes != 0) {
        fail("MemOrg::lineBytes (" + std::to_string(org.lineBytes) +
             ") must divide MemOrg::rowBytes (" +
             std::to_string(org.rowBytes) + ")");
    } else if (spec) {
        // Address mapping is burst-granular: a line must fit inside one
        // spec burst (2 x tBl transfers x bus width), and bursts must
        // tile the row evenly.
        const int burst = spec->burstBytes();
        if (org.lineBytes > burst || burst % org.lineBytes != 0) {
            fail("MemOrg::lineBytes (" +
                 std::to_string(org.lineBytes) + ") is inconsistent "
                 "with DRAM spec '" + spec->name + "': one burst "
                 "transfers " + std::to_string(burst) + " bytes (2 x "
                 "tBl x bus width); lines must evenly divide a burst");
        } else if (org.rowBytes % burst != 0) {
            fail("MemOrg::rowBytes (" +
                 std::to_string(org.rowBytes) + ") must be a multiple "
                 "of DRAM spec '" + spec->name + "' burst size (" +
                 std::to_string(burst) + " bytes)");
        }
    }

    atLeastOne(keys::kReadQueueSize, readQueueSize);
    atLeastOne(keys::kWriteQueueSize, writeQueueSize);
    auto queueBound = [&](const char *key, int v) {
        if (v > kMaxQueueSize) {
            fail(std::string("config key '") + key + "' must be <= " +
                 std::to_string(kMaxQueueSize) + " (got " +
                 std::to_string(v) + ")");
        }
    };
    queueBound(keys::kReadQueueSize, readQueueSize);
    queueBound(keys::kWriteQueueSize, writeQueueSize);
    atLeastOne(keys::kWriteHighWatermark, writeHighWatermark);
    if (writeHighWatermark >= 1 && writeLowWatermark >= writeHighWatermark) {
        fail(std::string("config key '") + keys::kWriteLowWatermark +
             "' (" + std::to_string(writeLowWatermark) +
             "): low watermark must be below writeHighWatermark (" +
             std::to_string(writeHighWatermark) + ")");
    }
    if (writeHighWatermark > writeQueueSize) {
        fail(std::string("config key '") + keys::kWriteHighWatermark +
             "' (" + std::to_string(writeHighWatermark) +
             "): high watermark exceeds writeQueueSize (" +
             std::to_string(writeQueueSize) + ")");
    }
    if (writeLowWatermark < 0) {
        fail(std::string("config key '") + keys::kWriteLowWatermark +
             "' must be >= 0 (got " + std::to_string(writeLowWatermark) +
             ")");
    }

    if (retentionMs != 32 && retentionMs != 64) {
        fail(std::string("config key '") + keys::kRetentionMs +
             "' must be 32 or 64 (got " + std::to_string(retentionMs) +
             "); retention is modeled only at the paper's two settings");
    }
    atLeastOne(keys::kRefabStaggerDivisor, refabStaggerDivisor);
    atLeastOne(keys::kMaxOverlappedRefPb, maxOverlappedRefPb);
    if (tFawOverride < 0 || tRrdOverride < 0) {
        fail(std::string("config keys '") + keys::kTFawOverride + "'/'" +
             keys::kTRrdOverride + "' must be >= 0 (got " +
             std::to_string(tFawOverride) + "/" +
             std::to_string(tRrdOverride) + ")");
    }
    if (sarpInflationAb < 1.0 || sarpInflationPb < 1.0) {
        fail("MemConfig::sarpInflationAb/sarpInflationPb must be >= 1.0: "
             "SARP inflates tFAW/tRRD during refresh, never shrinks them");
    }
    if (sameBankGroupSize < 0) {
        fail(std::string("config key '") + keys::kSameBankGroupSize +
             "' must be >= 0, 0 for the spec's bank-group geometry (got " +
             std::to_string(sameBankGroupSize) + ")");
    } else if (sameBankGroupSize > 0 &&
               org.banksPerRank % sameBankGroupSize != 0) {
        fail(std::string("config key '") + keys::kSameBankGroupSize +
             "' (" + std::to_string(sameBankGroupSize) + ") must divide "
             "banksPerRank (" + std::to_string(org.banksPerRank) + ")");
    }
    if (spec) {
        if (spec->banksPerGroup <= 0) {
            // Same-bank refresh needs the spec's tRFCsb data; neither
            // the REFsb policy nor a slice-size override can conjure
            // it.
            if (refresh == RefreshMode::kSameBank) {
                fail(std::string("config key '") + keys::kPolicy +
                     "': same-bank refresh (REFsb) requires a DRAM spec "
                     "with bank-group refresh support; '" + spec->name +
                     "' declares none (try DDR5-4800)");
            } else if (sameBankGroupSize > 0) {
                fail(std::string("config key '") + keys::kSameBankGroupSize +
                     "': DRAM spec '" + spec->name + "' has no same-bank "
                     "refresh support to re-slice");
            }
        } else if (sameBankGroupSize > spec->banksPerGroup) {
            // Holding the data-sheet tRFCsb is conservative only for
            // slices at or below the device's bank group; a larger
            // slice would refresh more banks in the same window than
            // the device can, which is physically impossible.
            fail(std::string("config key '") + keys::kSameBankGroupSize +
                 "' (" + std::to_string(sameBankGroupSize) + ") exceeds DRAM "
                 "spec '" + spec->name + "' bank-group size (" +
                 std::to_string(spec->banksPerGroup) + "); slices can "
                 "only be narrowed");
        }
    }
    if (srIdleEntryCycles < 0) {
        fail(std::string("config key '") + keys::kSrIdleEntry +
             "' must be >= 0 cycles, 0 to disable command-level "
             "self-refresh (got " + std::to_string(srIdleEntryCycles) +
             ")");
    }
    if (fgrRate != 0 && fgrRate != 1 && fgrRate != 2 && fgrRate != 4) {
        fail(std::string("config key '") + keys::kFgrRate +
             "' must be 0 (profile default), 1, 2 or 4 (got " +
             std::to_string(fgrRate) + ")");
    }
    if (hiraCoverage > 1.0 || (hiraCoverage < 0.0 && hiraCoverage != -1.0)) {
        fail(std::string("config key '") + keys::kHiraCoverage +
             "' must be within [0, 1], or -1 for the spec default (got " +
             std::to_string(hiraCoverage) + ")");
    }
    if (hiraDelayCycles < 0) {
        fail(std::string("config key '") + keys::kHiraDelay +
             "' must be >= 0 cycles, 0 for the spec default (got " +
             std::to_string(hiraDelayCycles) + ")");
    }
    if (channelStaggerCycles < -1) {
        fail(std::string("config key '") + keys::kChannelStagger +
             "' must be >= 0 cycles, 0 to disable staggering or -1 for "
             "the even spread tREFIab / channels (got " +
             std::to_string(channelStaggerCycles) + ")");
    }
    const AddressMapRegistry &maps = AddressMapRegistry::instance();
    if (const AddressMapInfo *map = maps.find(addressMap)) {
        // Map x spec cross-checks are the map's own business (e.g.
        // "ddr5-subch" demands a spec that declares sub-channels,
        // "perm-bank" a power-of-two bank count).
        if (map->check && spec) {
            const std::string err = map->check(org, *spec);
            if (!err.empty())
                fail(err);
        }
    } else {
        fail(maps.unknownMessage(addressMap));
    }
    return bad;
}

void
MemConfig::finalize()
{
    org.rowsPerBank = rowsPerBankFor(density);
    // Address mapping is burst-granular; the burst size is a property
    // of the selected device spec (LPDDR4's BL16 halves the column
    // count a DDR3 row would have).
    const DramSpec &spec = DramSpecRegistry::instance().at(dramSpec);
    org.burstBytes = spec.burstBytes();

    // A spec-derived address map ("ddr5-subch") may expand each
    // configured channel (one DIMM) into several full channels. Divide
    // any previously applied factor back out first so re-finalizing a
    // config -- or finalizing it against a different spec -- never
    // compounds the expansion.
    int factor = 1;
    if (const AddressMapInfo *map =
            AddressMapRegistry::instance().find(addressMap)) {
        if (map->channelFactor)
            factor = map->channelFactor(spec);
    }
    if (factor >= 1 && org.appliedSubChannels >= 1 &&
        org.channels % org.appliedSubChannels == 0) {
        org.channels = org.channels / org.appliedSubChannels * factor;
        org.appliedSubChannels = factor;
    }

    const std::string errors = validate();
    if (!errors.empty())
        DSARP_FATALF("invalid MemConfig: %s", errors.c_str());
}

std::string
TrafficConfig::validate() const
{
    std::string bad;
    auto fail = [&](const std::string &msg) {
        bad += (bad.empty() ? "" : "; ") + msg;
    };

    const bool knownMode = mode == "off" || mode == "poisson" ||
                           mode == "bursty" || mode == "diurnal" ||
                           mode == "trace";
    if (!knownMode) {
        fail(std::string("config key '") + keys::kTrafficMode +
             "' must be one of off/poisson/bursty/diurnal/trace (got '" +
             mode + "')");
    }
    if (mode != "trace" && !tracePath.empty()) {
        // A trace path under any other mode (including "off") would be
        // silently dead config; demand the modes agree instead of
        // ignoring it.
        fail(std::string("config key '") + keys::kTrafficTrace +
             "' is set but '" + keys::kTrafficMode + "' is '" + mode +
             "'; trace replay needs " + keys::kTrafficMode + "=trace");
    }
    if (!enabled())
        return bad;

    if (mode != "trace" &&
        !(ratePerKilocycle > 0.0 && ratePerKilocycle <= 1e6)) {
        fail(std::string("config key '") + keys::kTrafficRate +
             "' must be in (0, 1e6] requests per 1000 cycles (got " +
             std::to_string(ratePerKilocycle) + ")");
    }
    if (readPct < 0 || readPct > 100) {
        fail(std::string("config key '") + keys::kTrafficReadPct +
             "' must be within [0, 100] (got " + std::to_string(readPct) +
             ")");
    }
    if (hotRowPct < 0.0 || hotRowPct > 100.0) {
        fail(std::string("config key '") + keys::kTrafficHotRowPct +
             "' must be within [0, 100] (got " +
             std::to_string(hotRowPct) + ")");
    }
    if (hotRows < 1) {
        fail(std::string("config key '") + keys::kTrafficHotRows +
             "' must be >= 1 (got " + std::to_string(hotRows) + ")");
    }
    if (tenants < 1 || tenants > 64) {
        fail(std::string("config key '") + keys::kTenantCount +
             "' must be within [1, 64] (got " + std::to_string(tenants) +
             ")");
    }
    if (!tenantPriorities.empty()) {
        std::istringstream in(tenantPriorities);
        std::string tok;
        int parsed = 0;
        bool ok = true;
        while (std::getline(in, tok, ',')) {
            char *end = nullptr;
            errno = 0;
            const long v = std::strtol(tok.c_str(), &end, 10);
            // The INT_MAX cap matters: priorityList() narrows to int,
            // so an accepted long must survive that cast unchanged.
            if (end == tok.c_str() || *end != '\0' || errno == ERANGE ||
                v < 1 || v > std::numeric_limits<int>::max()) {
                ok = false;
            }
            ++parsed;
        }
        if (!ok || parsed != tenants) {
            fail(std::string("config key '") + keys::kTenantPriorities +
                 "' must be a comma list of " + std::to_string(tenants) +
                 " positive integers (got '" + tenantPriorities + "')");
        }
    }
    if (mode == "bursty") {
        if (burstFactor <= 1.0) {
            fail(std::string("config key '") + keys::kTrafficBurstFactor +
                 "' must be > 1 (got " + std::to_string(burstFactor) +
                 ")");
        }
        if (burstLenCycles < 1) {
            fail(std::string("config key '") + keys::kTrafficBurstLen +
                 "' must be >= 1 cycle (got " +
                 std::to_string(burstLenCycles) + ")");
        }
    }
    if (mode == "diurnal") {
        if (diurnalPeriod < 2) {
            fail(std::string("config key '") + keys::kTrafficDiurnalPeriod +
                 "' must be >= 2 cycles (got " +
                 std::to_string(diurnalPeriod) + ")");
        }
        if (diurnalAmp < 0.0 || diurnalAmp > 1.0) {
            fail(std::string("config key '") + keys::kTrafficDiurnalAmp +
                 "' must be within [0, 1] (got " +
                 std::to_string(diurnalAmp) + ")");
        }
    }
    if (mode == "trace") {
        if (tracePath.empty()) {
            fail(std::string("config key '") + keys::kTrafficTrace +
                 "' must name a DRAMSim-style trace file in trace mode");
        }
        if (tenants != 1) {
            fail(std::string("config key '") + keys::kTenantCount +
                 "' must be 1 in trace mode: an external trace carries "
                 "its own address stream and cannot be partitioned (got " +
                 std::to_string(tenants) + ")");
        }
    }
    return bad;
}

std::vector<int>
TrafficConfig::priorityList() const
{
    std::vector<int> out;
    if (tenantPriorities.empty()) {
        out.assign(static_cast<std::size_t>(tenants), 1);
        return out;
    }
    std::istringstream in(tenantPriorities);
    std::string tok;
    while (std::getline(in, tok, ','))
        out.push_back(static_cast<int>(std::strtol(tok.c_str(), nullptr, 10)));
    return out;
}

std::string
SystemConfig::validate() const
{
    std::string bad;
    auto fail = [&](const std::string &msg) {
        if (!msg.empty())
            bad += (bad.empty() ? "" : "; ") + msg;
    };

    const RefreshPolicyRegistry &policies = RefreshPolicyRegistry::instance();
    const bool knownPolicy = policies.has(mem.policy);
    if (!knownPolicy)
        fail(policies.unknownMessage(mem.policy));
    const DramSpecRegistry &specs = DramSpecRegistry::instance();
    if (!specs.has(mem.dramSpec))
        fail(specs.unknownMessage(mem.dramSpec));
    if (numCores < 1) {
        fail(std::string("config key '") + keys::kNumCores +
             "' must be >= 1 (got " + std::to_string(numCores) + ")");
    }
    if (engine != "cycle" && engine != "event") {
        fail(std::string("config key '") + keys::kSimEngine +
             "' must be \"cycle\" or \"event\" (got \"" + engine + "\")");
    }
    if (core.cpuCyclesPerTick < 1 || core.windowSize < 1 ||
        core.retireWidth < 1 || core.mshrs < 1) {
        fail("CoreConfig::cpuCyclesPerTick/windowSize/retireWidth/mshrs "
             "must all be >= 1 (got " +
             std::to_string(core.cpuCyclesPerTick) + "/" +
             std::to_string(core.windowSize) + "/" +
             std::to_string(core.retireWidth) + "/" +
             std::to_string(core.mshrs) + ")");
    }
    fail(traffic.validate());

    // The memory config as finalize() resolves it: rows derived from
    // the density and the policy's bundle applied, so checks that
    // depend on the mechanism (REFsb needs a spec with bank-group
    // refresh) fire here.
    MemConfig resolved = mem;
    resolved.org.rowsPerBank = rowsPerBankFor(resolved.density);
    if (knownPolicy)
        policies.resolve(resolved);
    fail(resolved.validate());
    return bad;
}

void
SystemConfig::finalize()
{
    const std::string errors = validate();
    if (!errors.empty())
        DSARP_FATALF("invalid SystemConfig: %s", errors.c_str());
    RefreshPolicyRegistry::instance().resolve(mem);
    mem.finalize();
}

} // namespace dsarp
