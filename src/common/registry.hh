/**
 * @file
 * The one implementation behind the simulator's string-keyed,
 * self-registering registries: refresh policies (refresh/registry.hh),
 * DRAM specs (dram/spec.hh) and address maps (dram/address.hh).
 *
 * A registry is a thin subclass, Derived, that names its entry type and
 * supplies three static members: kKey, the config key that selects an
 * entry (named in the unknown-name error); kNoun, what an entry is
 * called in messages ("refresh policy"); and checkEntry(entry), which
 * panics on a malformed entry. Passing Derived to the template makes
 * instance() return the concrete registry, so members a subclass adds
 * (resolve(), make()) stay reachable from it.
 *
 * Entries register themselves from static initializers in their own
 * translation units (the DSARP_REGISTER_* macro next to each registry),
 * so adding one is a new .cc file -- no enum, no switch, no name table
 * to edit. The core is linked as a CMake OBJECT library so the
 * registrars are never dead-stripped.
 *
 * instance() is a function-local static: the first registrar to run,
 * in whatever translation-unit order the linker chose, constructs it
 * before using it (no static-init-order hazard), and C++11 magic
 * statics make that construction race-free. Every registration and
 * lookup takes the mutex, so runtime registration (tests, timing
 * decorators) is safe against concurrent lookups from the parallel
 * sweep harness. The mutex is never held while calling out (to a
 * factory, a config bundle or a fatal handler), and entries live in a
 * deque, so a reference returned by find() or at() stays valid while
 * later registrations grow the registry.
 */

#ifndef DSARP_COMMON_REGISTRY_HH
#define DSARP_COMMON_REGISTRY_HH

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/strings.hh"

namespace dsarp {

template <class Derived, class EntryT>
class Registry
{
  public:
    using Entry = EntryT;

    /** The process-wide registry. */
    static Derived &
    instance()
    {
        static Derived registry;
        return registry;
    }

    /**
     * Register @p entry under its canonical name and every alias.
     * Returns true so static registrars can capture the result. A
     * malformed entry, or a name or alias already taken in any case,
     * aborts at startup.
     */
    bool
    add(Entry entry, std::vector<std::string> aliases = {})
    {
        DSARP_ASSERT(!entry.name.empty(),
                     (std::string(Derived::kNoun) + " needs a name").c_str());
        Derived::checkEntry(entry);

        const std::lock_guard<std::mutex> lock(mutex_);
        aliases.push_back(entry.name);
        const std::size_t slot = entries_.size();
        entries_.push_back(std::move(entry));
        for (const std::string &alias : aliases) {
            if (!index_.emplace(lowered(alias), slot).second) {
                std::fprintf(stderr, "%s name '%s' registered twice\n",
                             Derived::kNoun, alias.c_str());
                std::abort();
            }
        }
        return true;
    }

    bool has(const std::string &name) const { return find(name) != nullptr; }

    /** Case-insensitive lookup by name or alias; nullptr when unknown. */
    const Entry *
    find(const std::string &name) const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(lowered(name));
        return it == index_.end() ? nullptr : &entries_[it->second];
    }

    /** find(), but a fatal unknownMessage() error when unknown. */
    const Entry &
    at(const std::string &name) const
    {
        if (const Entry *entry = find(name))
            return *entry;
        DSARP_FATAL(unknownMessage(name).c_str());
    }

    /** The named-key error text at() dies with, listing every known
     *  name (for callers that collect errors instead of exiting). */
    std::string
    unknownMessage(const std::string &name) const
    {
        std::string msg = std::string("config key '") + Derived::kKey +
            "': unknown " + Derived::kNoun + " '" + name + "'; known:";
        for (const std::string &known : names())
            msg += ' ' + known;
        return msg;
    }

    /** Canonical names, sorted; aliases are not repeated. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            for (const Entry &entry : entries_)
                out.push_back(entry.name);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::size_t> index_;  ///< lowercase name -> slot.
    std::deque<Entry> entries_;
};

} // namespace dsarp

#endif // DSARP_COMMON_REGISTRY_HH
