#include "dram/address.hh"

#include "common/log.hh"

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

std::unique_ptr<AddressMap>
AddressMapRegistry::make(const std::string &name, const MemOrg &org) const
{
    return at(name).make(org);
}

} // namespace dsarp
