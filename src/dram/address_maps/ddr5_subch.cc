/**
 * @file
 * "ddr5-subch": DDR5 dual sub-channel topology derived from the device
 * spec. A DDR5 DIMM splits its 64 data bits into two *independent*
 * 32-bit sub-channels, each with its own command bus and BL16 bursts;
 * our DDR5-4800 spec already models exactly one such sub-channel
 * (busWidthBits = 32, 64 B bursts), so the map's only job is topology:
 * its channelFactor() hook tells MemConfig::finalize() to expand every
 * configured channel (one DIMM) into DramSpec::subChannels full
 * channels -- no burst or row rescaling. Over that expanded channel
 * set the interleave is the plain burst-ch walk, where channel index
 * = dimm x subChannels + subch: consecutive bursts alternate across
 * the sub-channels of a DIMM first, then across DIMMs.
 *
 * Selecting this map on a spec without sub-channels (subChannels < 2)
 * is a named-key config error: the topology must fall out of the spec,
 * never be conjured by the mapping.
 */

#include <memory>
#include <string>

#include "dram/address.hh"
#include "dram/spec.hh"
#include "sim/config_keys.hh"

namespace dsarp {

namespace {

class Ddr5SubChMap : public AddressMap
{
  public:
    explicit Ddr5SubChMap(const MemOrg &org) : AddressMap(org) {}

    // The burst-ch walk over the sub-channel-expanded org is the whole
    // mapping; only the registry identity differs.
    const char *name() const override { return "ddr5-subch"; }
};

std::string
subChCheck(const MemOrg &, const DramSpec &spec)
{
    if (spec.subChannels < 2) {
        return std::string("config key '") + keys::kAddressMap +
               "': map 'ddr5-subch' needs a DRAM spec with independent "
               "sub-channels; '" + spec.name + "' declares " +
               std::to_string(spec.subChannels) + " (try DDR5-4800)";
    }
    return "";
}

int
subChFactor(const DramSpec &spec)
{
    return spec.subChannels > 1 ? spec.subChannels : 1;
}

} // namespace

DSARP_REGISTER_ADDRESS_MAP(ddr5_subch, {
    "ddr5-subch",
    "spec-derived sub-channels: each DIMM splits into independent "
    "32-bit channels",
    [](const MemOrg &org) { return std::make_unique<Ddr5SubChMap>(org); },
    subChCheck, subChFactor})

} // namespace dsarp
