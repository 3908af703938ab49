#include "sim/simulation.hh"

#include "common/log.hh"
#include "dram/address.hh"
#include "sim/config_keys.hh"
#include "sim/parallel.hh"

namespace dsarp {

Simulation::Builder &
Simulation::Builder::config(const ExperimentConfig &cfg)
{
    cfg_ = cfg;
    return *this;
}

Simulation::Builder &
Simulation::Builder::policy(const std::string &name)
{
    return set(keys::kPolicy, name);
}

Simulation::Builder &
Simulation::Builder::dramSpec(const std::string &name)
{
    return set(keys::kDramSpec, name);
}

Simulation::Builder &
Simulation::Builder::addressMap(const std::string &name)
{
    return set(keys::kAddressMap, name);
}

Simulation::Builder &
Simulation::Builder::densityGb(int gb)
{
    return set(keys::kDensityGb, std::to_string(gb));
}

Simulation::Builder &
Simulation::Builder::cores(int n)
{
    return set(keys::kNumCores, std::to_string(n));
}

Simulation::Builder &
Simulation::Builder::subarraysPerBank(int n)
{
    return set(keys::kSubarraysPerBank, std::to_string(n));
}

Simulation::Builder &
Simulation::Builder::workloadSeed(std::uint64_t s)
{
    return set(keys::kWorkloadSeed, std::to_string(s));
}

Simulation::Builder &
Simulation::Builder::intensityPct(int pct)
{
    return set(keys::kIntensityPct, std::to_string(pct));
}

Simulation::Builder &
Simulation::Builder::warmupCycles(std::uint64_t ticks)
{
    return set(keys::kWarmupCycles, std::to_string(ticks));
}

Simulation::Builder &
Simulation::Builder::measureCycles(std::uint64_t ticks)
{
    return set(keys::kMeasureCycles, std::to_string(ticks));
}

Simulation::Builder &
Simulation::Builder::set(const std::string &key, const std::string &value)
{
    cfg_.set(key, value);
    return *this;
}

Simulation::Builder &
Simulation::Builder::apply(const std::string &assignment)
{
    cfg_.applyOverride(assignment);
    return *this;
}

Simulation::Builder &
Simulation::Builder::configFile(const std::string &path)
{
    cfg_.applyFile(path);
    return *this;
}

Simulation::Builder &
Simulation::Builder::env()
{
    cfg_.applyEnv();
    return *this;
}

Simulation::Builder &
Simulation::Builder::workload(const Workload &w)
{
    haveWorkload_ = true;
    workload_ = w;
    return *this;
}

Simulation::Builder &
Simulation::Builder::traces(const std::vector<TraceSource *> &sources)
{
    traces_ = sources;
    return *this;
}

Simulation
Simulation::Builder::build()
{
    const std::string errors = cfg_.validate();
    if (!errors.empty())
        DSARP_FATALF("invalid experiment: %s", errors.c_str());

    const SystemConfig &sys = cfg_.sys;
    if (sys.traffic.enabled()) {
        if (haveWorkload_ || !traces_.empty()) {
            DSARP_FATALF("Simulation: workload()/traces() are mutually "
                         "exclusive with config key '%s'=%s",
                         keys::kTrafficMode, sys.traffic.mode.c_str());
        }
        return Simulation(cfg_, Workload{}, {});
    }

    if (!traces_.empty()) {
        if (haveWorkload_)
            DSARP_FATAL("Simulation: workload() and traces() are "
                        "mutually exclusive");
        if (static_cast<int>(traces_.size()) != sys.numCores) {
            DSARP_FATALF("Simulation: %zu trace sources for config key "
                         "'%s'=%d; need exactly one per core",
                         traces_.size(), keys::kNumCores, sys.numCores);
        }
        return Simulation(cfg_, Workload{}, traces_);
    }

    Workload workload = workload_;
    if (haveWorkload_) {
        if (static_cast<int>(workload.benchIdx.size()) != sys.numCores) {
            DSARP_FATALF("Simulation: workload has %zu benchmarks for "
                         "config key '%s'=%d",
                         workload.benchIdx.size(), keys::kNumCores,
                         sys.numCores);
        }
    } else {
        // One mix per category; pick the requested intensity.
        for (const Workload &w :
             makeWorkloads(1, sys.numCores, cfg_.workloadSeed)) {
            if (w.categoryPct == cfg_.intensityPct)
                workload = w;
        }
    }
    return Simulation(cfg_, workload, {});
}

const std::string &
Simulation::dramSpecName() const
{
    return spec_->name;
}

Simulation::Simulation(ExperimentConfig cfg, Workload workload,
                       std::vector<TraceSource *> traces)
    : cfg_(std::move(cfg)),
      spec_(&DramSpecRegistry::instance().at(cfg_.sys.mem.dramSpec)),
      workload_(std::move(workload)), traces_(std::move(traces)),
      runner_(cfg_.warmupCycles > 0
                  ? cfg_.warmupCycles
                  : envKnob("DSARP_BENCH_WARMUP", 30000),
              cfg_.measureCycles > 0
                  ? cfg_.measureCycles
                  : envKnob("DSARP_BENCH_CYCLES", 250000))
{
    // Canonicalise so config() and the SystemConfig every run builds
    // from carry the registry spelling, not the user's alias/case.
    MemConfig &mem = cfg_.sys.mem;
    mem.dramSpec = spec_->name;
    mem.addressMap = AddressMapRegistry::instance().at(mem.addressMap).name;
}

MemOrg
Simulation::resolvedOrg() const
{
    SystemConfig sys = cfg_.sys;
    sys.finalize();
    return sys.mem.org;
}

RunResult
Simulation::run()
{
    if (cfg_.sys.traffic.enabled())
        return runner_.runTraffic(cfg_.sys);
    if (!traces_.empty())
        return runner_.run(cfg_.sys, traces_);
    return runner_.run(cfg_.sys, workload_);
}

void
Simulation::prewarmBaselines(int jobs)
{
    // Traffic runs have no cores, so no alone-IPC baseline to warm.
    if (cfg_.sys.traffic.enabled() || !traces_.empty())
        return;
    parallelFor(jobs, workload_.benchIdx.size(), [&](std::size_t i) {
        runner_.aloneIpc(workload_.benchIdx[i], cfg_.sys);
    });
}

} // namespace dsarp
