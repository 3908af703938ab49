/**
 * @file
 * String-keyed, self-registering registry of refresh mechanisms.
 *
 * Every mechanism the simulator knows -- the paper's eleven (NoREF,
 * REFab, REFpb, Elastic, DARP, SARPab, SARPpb, DSARP, FGR2x, FGR4x,
 * AR) and any user-defined policy -- is one registry entry carrying:
 *
 *   - the canonical name (plus aliases; lookups are case-insensitive),
 *   - a config bundle applied before the system is built: the refresh
 *     timing profile and the SARP/HiRA flags where they differ from
 *     REFab's (e.g. "DSARP" = DARP timing + SARP),
 *   - a factory building the per-channel scheduler.
 *
 * Policies register themselves from static initializers in their own
 * translation units (see the DSARP_REGISTER_REFRESH_POLICY macro), so
 * adding a mechanism is one new .cc file -- no enum, no switch, no
 * name table to edit. The core is linked as a CMake OBJECT library so
 * the registrars are never dead-stripped.
 *
 * Selection: set MemConfig::policy to a registered name; it is the
 * only selector. resolve() derives the refresh/sarp/hira tags from the
 * name alone.
 */

#ifndef DSARP_REFRESH_REGISTRY_HH
#define DSARP_REFRESH_REGISTRY_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "refresh/scheduler.hh"

namespace dsarp {

class RefreshPolicyRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<RefreshScheduler>(
        const MemConfig &, const TimingParams &, ControllerView &)>;

    struct Entry
    {
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

    /**
     * The process-wide registry. A function-local static, so the
     * first registrar to run -- in whatever translation-unit order
     * the linker chose -- constructs it before using it (no
     * static-init-order hazard), and C++11 magic-static semantics
     * make that construction race-free. All member functions are
     * additionally mutex-guarded, so runtime registration (tests,
     * custom policies) is safe against concurrent lookups from the
     * parallel sweep harness.
     */
    static RefreshPolicyRegistry &instance();

    /**
     * Register @p entry under its canonical name and every alias.
     * Returns true so static registrars can capture the result; a
     * duplicate name is a fatal error at startup.
     */
    bool add(Entry entry, std::vector<std::string> aliases = {});

    bool has(const std::string &name) const;

    /** Case-insensitive lookup; nullptr when unknown. */
    const Entry *find(const std::string &name) const;

    /** find(), but a fatal named-key error listing known mechanisms. */
    const Entry &at(const std::string &name) const;

    /** The named-key error text at() dies with (for callers that
     *  collect errors instead of exiting). */
    std::string unknownPolicyMessage(const std::string &name) const;

    /** Canonical names, sorted; aliases are not repeated. */
    std::vector<std::string> names() const;

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

  private:
    const Entry *findLocked(const std::string &name) const;
    const Entry &atLocked(const std::string &name) const;
    std::string unknownPolicyMessageLocked(const std::string &name) const;
    std::vector<std::string> namesLocked() const;

    /** Guards index_/entries_; never held while running a factory or
     *  config bundle (those may re-enter the registry). */
    mutable std::mutex mutex_;

    std::map<std::string, std::size_t> index_;  ///< lowercase name → slot.

    /** A deque so Entry pointers returned by find()/at() stay valid
     *  when later (runtime) registrations grow the registry. */
    std::deque<Entry> entries_;
};

/**
 * Define a static registrar. Use at namespace scope in the policy's
 * translation unit:
 *
 *   DSARP_REGISTER_REFRESH_POLICY(darp, {
 *       "DARP", "out-of-order per-bank refresh",
 *       [](MemConfig &m) { m.refresh = RefreshMode::kDarp; },
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
