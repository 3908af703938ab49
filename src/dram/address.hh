/**
 * @file
 * Physical address mapping, pluggable through a string-keyed registry.
 *
 * AddressMap itself is the default `"burst-ch"` interleave --
 * burst:channel:column:bank:rank:row from least to most significant,
 * i.e. consecutive bursts alternate across channels, then walk the
 * columns of one row within a channel. This gives streaming workloads
 * both channel-level parallelism and row-buffer locality, the standard
 * layout for FR-FCFS studies.
 *
 * Alternative interleaves (per-channel streaming regions, XOR bank
 * permutation, DDR5 sub-channel expansion) subclass it and register
 * themselves from static initializers in their own translation units
 * under src/dram/address_maps/ (see DSARP_REGISTER_ADDRESS_MAP) into
 * the registry of common/registry.hh, like DRAM specs and refresh
 * policies: adding a mapping strategy is one new .cc file. Selection
 * is MemConfig::addressMap (config key "address.map"); unknown names
 * are a fatal named-key error listing the registered maps.
 *
 * The mapping unit is one DRAM column = one spec burst
 * (MemOrg::columnBytes()): a 64 B cache line on DDR3/DDR4, but 128 B
 * on LPDDR4 whose BL16 halves the column count per row. Lines smaller
 * than a burst alias into the same column (the burst over-fetches).
 */

#ifndef DSARP_DRAM_ADDRESS_HH
#define DSARP_DRAM_ADDRESS_HH

#include <functional>
#include <memory>
#include <string>

#include "common/config.hh"
#include "common/registry.hh"
#include "common/types.hh"
#include "sim/config_keys.hh"

namespace dsarp {

struct DramSpec;

/** A fully decoded physical address. */
struct DecodedAddr
{
    ChannelId channel = 0;
    RankId rank = 0;
    BankId bank = 0;
    RowId row = 0;
    int column = 0;
    SubarrayId subarray = 0;

    bool
    operator==(const DecodedAddr &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank &&
            row == o.row && column == o.column && subarray == o.subarray;
    }
};

/**
 * Bidirectional mapping between physical addresses and DRAM
 * coordinates. Concretely instantiable: AddressMap(org) *is* the
 * default "burst-ch" interleave (pinned bit-identical by the golden
 * baselines), and the registered strategies subclass it.
 */
class AddressMap
{
  public:
    explicit AddressMap(const MemOrg &org);
    virtual ~AddressMap() = default;

    /** The registry name of this mapping strategy. */
    virtual const char *name() const { return "burst-ch"; }

    /** Decode a physical byte address. */
    virtual DecodedAddr decode(Addr addr) const;

    /** Compose a physical byte address from DRAM coordinates. */
    virtual Addr encode(const DecodedAddr &d) const;

    /** Total bytes covered by the mapping. */
    Addr capacityBytes() const { return capacity_; }

    const MemOrg &org() const { return org_; }

  protected:
    /** Range-check @p d against the organization (encode precondition). */
    void checkCoords(const DecodedAddr &d) const;

    MemOrg org_;
    Addr capacity_;
};

/** One registered mapping strategy. */
struct AddressMapInfo
{
    std::string name;     ///< Canonical spelling, e.g. "burst-ch".
    std::string summary;  ///< One-liner for --list-maps and docs.

    /** Build the map for a (finalized) organization. */
    std::function<std::unique_ptr<AddressMap>(const MemOrg &)> make;

    /**
     * Cross-check map x organization x device spec; "" when supported,
     * otherwise a named-key error ("config key 'address.map': ...").
     * Null means no constraints.
     */
    std::function<std::string(const MemOrg &, const DramSpec &)> check;

    /**
     * How many independent channels each *configured* channel (DIMM)
     * expands to under this map ("ddr5-subch" returns the spec's
     * sub-channel count). Null means 1: configured channels are the
     * physical channels.
     */
    std::function<int(const DramSpec &)> channelFactor;
};

class AddressMapRegistry
    : public Registry<AddressMapRegistry, AddressMapInfo>
{
  public:
    static constexpr const char *kKey = keys::kAddressMap;
    static constexpr const char *kNoun = "address map";

    static void
    checkEntry(const AddressMapInfo &info)
    {
        DSARP_ASSERT(info.make != nullptr, "address map needs a factory");
    }

    /** Build the named map for @p org (fatal named-key error when
     *  unknown). */
    std::unique_ptr<AddressMap> make(const std::string &name,
                                     const MemOrg &org) const;
};

/**
 * Define a static registrar. Use at namespace scope in the map's
 * translation unit:
 *
 *   DSARP_REGISTER_ADDRESS_MAP(row_ch, {
 *       "row-ch", "channel bits above row (per-channel regions)",
 *       [](const MemOrg &org) { return std::make_unique<RowChMap>(org); },
 *       nullptr, nullptr})
 */
#define DSARP_REGISTER_ADDRESS_MAP(ident, ...) \
    namespace { \
    const bool dsarpAddressMapRegistrar_##ident [[maybe_unused]] = \
        ::dsarp::AddressMapRegistry::instance().add(__VA_ARGS__); \
    }

} // namespace dsarp

#endif // DSARP_DRAM_ADDRESS_HH
