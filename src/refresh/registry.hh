/**
 * @file
 * String-keyed, self-registering registry of refresh mechanisms.
 *
 * Every mechanism the simulator knows -- the paper's eleven (NoREF,
 * REFab, REFpb, Elastic, DARP, SARPab, SARPpb, DSARP, FGR2x, FGR4x,
 * AR), the HiRA extension, DDR5's REFsb and HiRAsb, and any
 * user-defined policy -- is one registry entry carrying:
 *
 *   - the canonical name (plus aliases; lookups are case-insensitive),
 *   - a config bundle applied before the system is built: the refresh
 *     timing profile and the SARP/HiRA flags where they differ from
 *     REFab's (e.g. "DSARP" = DARP timing + SARP),
 *   - a factory building the per-channel scheduler.
 *
 * Policies register themselves from their own translation units with
 * the DSARP_REGISTER_REFRESH_POLICY macro; common/registry.hh holds
 * the registry itself.
 *
 * Selection: set MemConfig::policy to a registered name; it is the
 * only selector. resolve() derives the refresh/sarp/hira tags from the
 * name alone.
 */

#ifndef DSARP_REFRESH_REGISTRY_HH
#define DSARP_REFRESH_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "common/registry.hh"
#include "refresh/scheduler.hh"
#include "sim/config_keys.hh"

namespace dsarp {

/** One registered mechanism: RefreshPolicyRegistry::Entry. */
struct RefreshPolicyInfo
{
    using Factory = std::function<std::unique_ptr<RefreshScheduler>(
        const MemConfig &, const TimingParams &, ControllerView &)>;

    std::string name;     ///< Canonical spelling, e.g. "DSARP".
    std::string summary;  ///< One-liner for --list-mechs and docs.

    /**
     * Apply the mechanism's config bundle: the timing-profile tag
     * (which TimingParams and the checker consume) and flags such
     * as MemConfig::sarp, where they differ from REFab's. Run by
     * resolve() after it reset the tags; may be empty.
     */
    std::function<void(MemConfig &)> configure;

    /** Build the scheduler for one channel. */
    Factory make;
};

class RefreshPolicyRegistry
    : public Registry<RefreshPolicyRegistry, RefreshPolicyInfo>
{
  public:
    using Factory = RefreshPolicyInfo::Factory;

    static constexpr const char *kKey = keys::kPolicy;
    static constexpr const char *kNoun = "refresh policy";

    static void
    checkEntry(const Entry &entry)
    {
        DSARP_ASSERT(static_cast<bool>(entry.make),
                     "refresh policy needs a factory");
    }

    /**
     * Resolve @p cfg to its registry entry and canonicalise it:
     * cfg.policy is rewritten to the canonical spelling, the refresh,
     * sarp and hira tags are reset to REFab's values, and the entry's
     * config bundle is applied. A resolved config therefore depends on
     * its name alone, and resolving it again changes nothing.
     */
    const Entry &resolve(MemConfig &cfg) const;

    /** Build the scheduler named by cfg.policy. */
    std::unique_ptr<RefreshScheduler> make(const MemConfig &cfg,
                                           const TimingParams &timing,
                                           ControllerView &view) const;
};

/**
 * Define a static registrar. Use at namespace scope in the policy's
 * translation unit:
 *
 *   DSARP_REGISTER_REFRESH_POLICY(darp, {
 *       "DARP", "out-of-order per-bank refresh",
 *       [](MemConfig &m) { m.refresh = RefreshMode::kPerBank; },
 *       [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
 *           return std::make_unique<DarpScheduler>(&c, &t, &v);
 *       }})
 */
#define DSARP_REGISTER_REFRESH_POLICY(ident, ...) \
    namespace { \
    const bool dsarpRefreshRegistrar_##ident [[maybe_unused]] = \
        ::dsarp::RefreshPolicyRegistry::instance().add(__VA_ARGS__); \
    }

} // namespace dsarp

#endif // DSARP_REFRESH_REGISTRY_HH
