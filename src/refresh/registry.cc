#include "refresh/registry.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/strings.hh"
#include "sim/config_keys.hh"

namespace dsarp {

RefreshPolicyRegistry &
RefreshPolicyRegistry::instance()
{
    static RefreshPolicyRegistry registry;
    return registry;
}

bool
RefreshPolicyRegistry::add(Entry entry, std::vector<std::string> aliases)
{
    DSARP_ASSERT(!entry.name.empty(), "refresh policy needs a name");
    DSARP_ASSERT(static_cast<bool>(entry.make),
                 "refresh policy needs a factory");

    const std::lock_guard<std::mutex> lock(mutex_);
    aliases.push_back(entry.name);
    const std::size_t slot = entries_.size();
    entries_.push_back(std::move(entry));
    for (const std::string &alias : aliases) {
        const auto [it, inserted] = index_.emplace(lowered(alias), slot);
        (void)it;
        if (!inserted) {
            std::fprintf(stderr, "refresh policy name '%s' registered "
                                 "twice\n", alias.c_str());
            std::abort();
        }
    }
    return true;
}

const RefreshPolicyRegistry::Entry *
RefreshPolicyRegistry::findLocked(const std::string &name) const
{
    const auto it = index_.find(lowered(name));
    return it == index_.end() ? nullptr : &entries_[it->second];
}

const RefreshPolicyRegistry::Entry &
RefreshPolicyRegistry::atLocked(const std::string &name) const
{
    if (const Entry *entry = findLocked(name))
        return *entry;
    DSARP_FATAL(unknownPolicyMessageLocked(name).c_str());
}

bool
RefreshPolicyRegistry::has(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return findLocked(name) != nullptr;
}

const RefreshPolicyRegistry::Entry *
RefreshPolicyRegistry::find(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return findLocked(name);
}

const RefreshPolicyRegistry::Entry &
RefreshPolicyRegistry::at(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return atLocked(name);
}

std::string
RefreshPolicyRegistry::unknownPolicyMessageLocked(
    const std::string &name) const
{
    std::ostringstream msg;
    msg << "config key '" << keys::kPolicy << "': unknown refresh policy '"
        << name << "'; known:";
    for (const std::string &known : namesLocked())
        msg << ' ' << known;
    return msg.str();
}

std::string
RefreshPolicyRegistry::unknownPolicyMessage(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return unknownPolicyMessageLocked(name);
}

std::vector<std::string>
RefreshPolicyRegistry::namesLocked() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
RefreshPolicyRegistry::names() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return namesLocked();
}

const RefreshPolicyRegistry::Entry &
RefreshPolicyRegistry::resolve(MemConfig &cfg) const
{
    // Entry references are stable (deque), so the lock protects only
    // the lookup -- config bundles run unlocked and may re-enter the
    // registry.
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
