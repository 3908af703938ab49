#include "dram/address.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/log.hh"
#include "common/strings.hh"
#include "sim/config_keys.hh"

namespace dsarp {

AddressMap::AddressMap(const MemOrg &org) : org_(org)
{
    // columns() x columnBytes() == rowBytes, so capacity is independent
    // of the mapping granularity.
    capacity_ = static_cast<Addr>(org.columnBytes()) * org.channels *
        org.columns() * org.banksPerRank * org.ranksPerChannel *
        org.rowsPerBank;
}

void
AddressMap::checkCoords(const DecodedAddr &d) const
{
    DSARP_ASSERT(d.channel >= 0 && d.channel < org_.channels, "bad channel");
    DSARP_ASSERT(d.rank >= 0 && d.rank < org_.ranksPerChannel, "bad rank");
    DSARP_ASSERT(d.bank >= 0 && d.bank < org_.banksPerRank, "bad bank");
    DSARP_ASSERT(d.row >= 0 && d.row < org_.rowsPerBank, "bad row");
    DSARP_ASSERT(d.column >= 0 && d.column < org_.columns(), "bad column");
}

DecodedAddr
AddressMap::decode(Addr addr) const
{
    DSARP_ASSERT(addr < capacity_, "address beyond mapped capacity");

    // The mapping unit is one DRAM column: a full spec burst, which is
    // a cache line on DDR3/DDR4 but two lines on LPDDR4 (BL16).
    Addr x = addr / org_.columnBytes();

    DecodedAddr d;
    d.channel = static_cast<ChannelId>(x % org_.channels);
    x /= org_.channels;
    d.column = static_cast<int>(x % org_.columns());
    x /= org_.columns();
    d.bank = static_cast<BankId>(x % org_.banksPerRank);
    x /= org_.banksPerRank;
    d.rank = static_cast<RankId>(x % org_.ranksPerChannel);
    x /= org_.ranksPerChannel;
    d.row = static_cast<RowId>(x);
    d.subarray = d.row / org_.rowsPerSubarray();
    return d;
}

Addr
AddressMap::encode(const DecodedAddr &d) const
{
    checkCoords(d);

    Addr x = static_cast<Addr>(d.row);
    x = x * org_.ranksPerChannel + d.rank;
    x = x * org_.banksPerRank + d.bank;
    x = x * org_.columns() + d.column;
    x = x * org_.channels + d.channel;
    return x * org_.columnBytes();
}

AddressMapRegistry &
AddressMapRegistry::instance()
{
    static AddressMapRegistry registry;
    return registry;
}

bool
AddressMapRegistry::add(AddressMapInfo info,
                        std::vector<std::string> aliases)
{
    DSARP_ASSERT(!info.name.empty(), "address map needs a name");
    DSARP_ASSERT(info.make != nullptr, "address map needs a factory");

    const std::lock_guard<std::mutex> lock(mutex_);
    aliases.push_back(info.name);
    const std::size_t slot = entries_.size();
    entries_.push_back(std::move(info));
    for (const std::string &alias : aliases) {
        const auto [it, inserted] = index_.emplace(lowered(alias), slot);
        (void)it;
        if (!inserted) {
            std::fprintf(stderr,
                         "address map name '%s' registered twice\n",
                         alias.c_str());
            std::abort();
        }
    }
    return true;
}

const AddressMapInfo *
AddressMapRegistry::findLocked(const std::string &name) const
{
    const auto it = index_.find(lowered(name));
    return it == index_.end() ? nullptr : &entries_[it->second];
}

bool
AddressMapRegistry::has(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return findLocked(name) != nullptr;
}

const AddressMapInfo *
AddressMapRegistry::find(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return findLocked(name);
}

const AddressMapInfo &
AddressMapRegistry::at(const std::string &name) const
{
    std::string unknown;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (const AddressMapInfo *info = findLocked(name))
            return *info;
        unknown = unknownMapMessageLocked(name);
    }
    DSARP_FATAL(unknown.c_str());
}

std::string
AddressMapRegistry::unknownMapMessageLocked(const std::string &name) const
{
    std::ostringstream msg;
    msg << "config key '" << keys::kAddressMap
        << "': unknown address map '" << name << "'; known:";
    for (const std::string &known : namesLocked())
        msg << ' ' << known;
    return msg.str();
}

std::string
AddressMapRegistry::unknownMapMessage(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return unknownMapMessageLocked(name);
}

std::vector<std::string>
AddressMapRegistry::namesLocked() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const AddressMapInfo &info : entries_)
        out.push_back(info.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
AddressMapRegistry::names() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return namesLocked();
}

std::unique_ptr<AddressMap>
AddressMapRegistry::make(const std::string &name, const MemOrg &org) const
{
    return at(name).make(org);
}

} // namespace dsarp
