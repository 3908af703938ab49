#include "refresh/registry.hh"

namespace dsarp {

const RefreshPolicyRegistry::Entry &
RefreshPolicyRegistry::resolve(MemConfig &cfg) const
{
    // Entry references are stable, so config bundles run unlocked and
    // may re-enter the registry.
    const Entry &entry = at(cfg.policy);
    cfg.policy = entry.name;
    cfg.refresh = RefreshMode::kAllBank;
    cfg.sarp = false;
    cfg.hira = false;
    if (entry.configure)
        entry.configure(cfg);
    return entry;
}

std::unique_ptr<RefreshScheduler>
RefreshPolicyRegistry::make(const MemConfig &cfg, const TimingParams &timing,
                            ControllerView &view) const
{
    return at(cfg.policy).make(cfg, timing, view);
}

} // namespace dsarp
