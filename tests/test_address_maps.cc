/**
 * @file
 * Tests for the address-map registry (dram/address.hh): registry
 * semantics, encode/decode bijection for every registered map across
 * specs and channel counts, spec-derived sub-channel expansion, and
 * the golden pin that the default "burst-ch" map is bit-identical to
 * the pre-registry hard-wired interleave.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>

#include "common/rng.hh"
#include "dram/address.hh"
#include "dram/spec.hh"
#include "sim/system.hh"

using namespace dsarp;

namespace {

/** The finalized org for spec x map x configured channels. */
MemOrg
orgFor(const std::string &spec, const std::string &map, int channels)
{
    MemConfig cfg;
    cfg.dramSpec = spec;
    cfg.addressMap = map;
    cfg.org.channels = channels;
    cfg.finalize();
    return cfg.org;
}

/** Can @p map legally run on @p spec (its check hook passes)? */
bool
compatible(const std::string &map, const std::string &spec)
{
    const AddressMapInfo &info = AddressMapRegistry::instance().at(map);
    if (!info.check)
        return true;
    MemConfig cfg;
    cfg.dramSpec = spec;
    return info
        .check(cfg.org, DramSpecRegistry::instance().at(spec))
        .empty();
}

} // namespace

// ---------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------

TEST(AddressMapRegistry, BuiltinMapsRegistered)
{
    const auto &reg = AddressMapRegistry::instance();
    for (const char *name :
         {"burst-ch", "row-ch", "perm-bank", "ddr5-subch"}) {
        EXPECT_TRUE(reg.has(name)) << name;
        ASSERT_NE(reg.find(name), nullptr) << name;
        EXPECT_EQ(reg.find(name)->name, name);
        EXPECT_FALSE(reg.find(name)->summary.empty()) << name;
    }
}

TEST(AddressMapRegistry, NamesRoundTripThroughLookup)
{
    const auto &reg = AddressMapRegistry::instance();
    const auto names = reg.names();
    EXPECT_GE(names.size(), 4u);
    for (const std::string &name : names) {
        const AddressMapInfo *info = reg.find(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_EQ(info->name, name);
        // Lookups are case-insensitive.
        std::string upper = name;
        for (char &c : upper)
            c = static_cast<char>(std::toupper(c));
        EXPECT_EQ(reg.find(upper), info) << name;
        // make() produces a map whose self-reported name matches.
        MemOrg org;
        EXPECT_EQ(std::string(reg.make(name, org)->name()), name);
    }
}

TEST(AddressMapRegistryDeathTest, UnknownNameDiesWithNamedKeyError)
{
    EXPECT_DEATH(AddressMapRegistry::instance().at("no-such-map"),
                 "address.map.*unknown address map 'no-such-map'");
}

TEST(AddressMapRegistry, UnknownMapMessageListsKnownMaps)
{
    const std::string msg =
        AddressMapRegistry::instance().unknownMessage("bogus");
    EXPECT_NE(msg.find("config key 'address.map'"), std::string::npos);
    EXPECT_NE(msg.find("'bogus'"), std::string::npos);
    EXPECT_NE(msg.find("burst-ch"), std::string::npos);
    EXPECT_NE(msg.find("row-ch"), std::string::npos);
}

TEST(AddressMapRegistry, RuntimeRegisteredMapDrivesASystem)
{
    // A map registered at runtime (no static registrar) is selectable
    // by name like any built-in; the System resolves it through the
    // registry, not a hard-wired constructor.
    class TestMap : public AddressMap
    {
      public:
        explicit TestMap(const MemOrg &org) : AddressMap(org) {}
        const char *name() const override { return "test-runtime"; }
    };
    auto &reg = AddressMapRegistry::instance();
    if (!reg.has("test-runtime")) {
        reg.add({"test-runtime", "runtime-registered burst-ch clone",
                 [](const MemOrg &org) {
                     return std::make_unique<TestMap>(org);
                 },
                 nullptr, nullptr});
    }

    SystemConfig sys;
    sys.mem.addressMap = "test-runtime";
    sys.numCores = 2;
    System system(sys, std::vector<int>{0, 1});
    EXPECT_EQ(std::string(system.addressMap().name()), "test-runtime");
    system.run(2000);
    std::uint64_t commands = 0;
    for (int ch = 0; ch < system.numChannels(); ++ch) {
        const ChannelStats &cs = system.controller(ch).channel().stats();
        commands += cs.acts + cs.reads + cs.writes;
    }
    EXPECT_GT(commands, 0u);
}

// ---------------------------------------------------------------------
// Bijection: every map x spec x channels in {1, 2, 4}.
// ---------------------------------------------------------------------

TEST(AddressMaps, BijectionForEveryMapSpecAndChannelCount)
{
    const auto &reg = AddressMapRegistry::instance();
    for (const std::string &map : reg.names()) {
        if (map.rfind("test-", 0) == 0)
            continue;  // Runtime test registrations.
        for (const std::string &spec :
             DramSpecRegistry::instance().names()) {
            if (!compatible(map, spec))
                continue;
            for (const int channels : {1, 2, 4}) {
                const MemOrg org = orgFor(spec, map, channels);
                const auto m = reg.make(map, org);
                Rng rng(17);
                // Coordinate round trip over the finalized geometry.
                for (int i = 0; i < 2000; ++i) {
                    DecodedAddr d;
                    d.channel = static_cast<int>(rng.below(org.channels));
                    d.rank = static_cast<int>(
                        rng.below(org.ranksPerChannel));
                    d.bank =
                        static_cast<int>(rng.below(org.banksPerRank));
                    d.row = static_cast<int>(rng.below(org.rowsPerBank));
                    d.column =
                        static_cast<int>(rng.below(org.columns()));
                    d.subarray = d.row / org.rowsPerSubarray();
                    EXPECT_EQ(m->decode(m->encode(d)), d)
                        << map << " x " << spec << " x " << channels;
                }
                // Address round trip at the mapping unit.
                const Addr unit = org.columnBytes();
                for (int i = 0; i < 2000; ++i) {
                    const Addr addr =
                        rng.below(m->capacityBytes() / unit) * unit;
                    EXPECT_EQ(m->encode(m->decode(addr)), addr)
                        << map << " x " << spec << " x " << channels;
                }
            }
        }
    }
}

TEST(AddressMaps, CapacityInvariantAcrossMaps)
{
    // The interleave permutes the address space, it never grows or
    // shrinks it: all maps agree on capacity over one org.
    const auto &reg = AddressMapRegistry::instance();
    const MemOrg org = orgFor("DDR3-1333", "burst-ch", 2);
    const Addr expect = reg.make("burst-ch", org)->capacityBytes();
    for (const std::string &map : reg.names())
        EXPECT_EQ(reg.make(map, org)->capacityBytes(), expect) << map;
}

// ---------------------------------------------------------------------
// Per-map placement properties.
// ---------------------------------------------------------------------

TEST(AddressMaps, RowChKeepsConsecutiveBurstsInOneChannel)
{
    const MemOrg org = orgFor("DDR3-1333", "row-ch", 2);
    const auto m = AddressMapRegistry::instance().make("row-ch", org);
    // Consecutive bursts walk columns of one channel...
    const DecodedAddr a = m->decode(0);
    const DecodedAddr b = m->decode(64);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(b.column, a.column + 1);
    // ...and the channel index forms contiguous halves of the space.
    EXPECT_EQ(m->decode(0).channel, 0);
    EXPECT_EQ(m->decode(m->capacityBytes() / 2).channel, 1);
    EXPECT_EQ(m->decode(m->capacityBytes() - 64).channel, 1);
}

TEST(AddressMaps, PermBankSpreadsRowConflicts)
{
    const MemOrg org = orgFor("DDR3-1333", "perm-bank", 2);
    const auto &reg = AddressMapRegistry::instance();
    const auto plain = reg.make("burst-ch", org);
    const auto perm = reg.make("perm-bank", org);
    // Addresses that land in one bank under the plain walk (same
    // channel/rank/bank, consecutive rows) spread across all banks.
    std::set<int> banks;
    for (int row = 0; row < 16; ++row) {
        DecodedAddr d;
        d.row = row;
        d.subarray = 0;
        banks.insert(perm->decode(plain->encode(d)).bank);
    }
    EXPECT_EQ(banks.size(), 8u);
    // The permutation is pure bank relabeling: other coords unchanged.
    DecodedAddr d;
    d.row = 12345;
    d.column = 7;
    d.rank = 1;
    d.subarray = 12345 / org.rowsPerSubarray();
    const DecodedAddr p = perm->decode(perm->encode(d));
    EXPECT_EQ(p, d);
}

// ---------------------------------------------------------------------
// Spec-derived sub-channels (ddr5-subch).
// ---------------------------------------------------------------------

TEST(AddressMaps, Ddr5SubChExpandsChannelsFromSpec)
{
    // 2 configured DIMMs x DramSpec::subChannels (DDR5-4800: 2) = 4
    // channels, derived from the spec alone.
    MemConfig cfg;
    cfg.dramSpec = "DDR5-4800";
    cfg.addressMap = "ddr5-subch";
    cfg.org.channels = 2;
    cfg.finalize();
    EXPECT_EQ(cfg.org.channels, 4);
    EXPECT_EQ(cfg.org.appliedSubChannels, 2);
    // finalize() is idempotent: re-finalizing never compounds.
    cfg.finalize();
    EXPECT_EQ(cfg.org.channels, 4);

    MemConfig one = cfg;
    one.org.channels = 1;
    one.org.appliedSubChannels = 1;
    one.finalize();
    EXPECT_EQ(one.org.channels, 2);
}

TEST(AddressMaps, Ddr5SubChRejectedOnSpecsWithoutSubChannels)
{
    MemConfig cfg;
    cfg.dramSpec = "DDR3-1333";
    cfg.addressMap = "ddr5-subch";
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'address.map'"), std::string::npos);
    EXPECT_NE(err.find("ddr5-subch"), std::string::npos);
    EXPECT_NE(err.find("DDR3-1333"), std::string::npos);
}

TEST(AddressMaps, PermBankRejectsNonPowerOfTwoBanks)
{
    MemConfig cfg;
    cfg.addressMap = "perm-bank";
    cfg.org.banksPerRank = 6;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'address.map'"), std::string::npos);
    EXPECT_NE(err.find("power-of-two"), std::string::npos);
}

TEST(AddressMaps, UnknownMapFailsMemConfigValidation)
{
    MemConfig cfg;
    cfg.addressMap = "no-such-map";
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("config key 'address.map'"), std::string::npos);
    EXPECT_NE(err.find("no-such-map"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden pin: "burst-ch" is the pre-registry interleave, bit for bit.
// ---------------------------------------------------------------------

TEST(AddressMaps, BurstChMatchesDirectAddressMapBitForBit)
{
    const MemOrg org = orgFor("DDR3-1333", "burst-ch", 2);
    const AddressMap direct(org);  // The pre-registry construction.
    const auto viaRegistry =
        AddressMapRegistry::instance().make("burst-ch", org);
    Rng rng(23);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(direct.capacityBytes() / 64) * 64;
        EXPECT_EQ(viaRegistry->decode(addr), direct.decode(addr));
    }
    // And the hard pin of the walk itself: burst 0 -> channel 0,
    // burst 1 -> channel 1, burst 2 -> column 1 of channel 0.
    EXPECT_EQ(viaRegistry->decode(0).channel, 0);
    EXPECT_EQ(viaRegistry->decode(64).channel, 1);
    EXPECT_EQ(viaRegistry->decode(128).channel, 0);
    EXPECT_EQ(viaRegistry->decode(128).column, 1);
}
