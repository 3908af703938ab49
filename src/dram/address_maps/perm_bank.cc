/**
 * @file
 * "perm-bank": the default burst-ch walk with an XOR bank permutation
 * on top, after Zhang et al.'s permutation-based page interleaving
 * (MICRO'00): the bank index is XORed with the low row bits, so rows
 * that conflict in one bank under the plain interleave spread across
 * all banks. XOR is its own inverse, so the permutation is a bijection
 * for free: decode() applies it after the plain walk, encode() applies
 * it before.
 *
 * Requires a power-of-two bank count (the XOR mask must cover the bank
 * index exactly); anything else is a named-key config error.
 */

#include <memory>
#include <string>

#include "dram/address.hh"
#include "dram/spec.hh"
#include "sim/config_keys.hh"

namespace dsarp {

namespace {

class PermBankMap : public AddressMap
{
  public:
    explicit PermBankMap(const MemOrg &org)
        : AddressMap(org), mask_(org.banksPerRank - 1)
    {}

    const char *name() const override { return "perm-bank"; }

    DecodedAddr
    decode(Addr addr) const override
    {
        DecodedAddr d = AddressMap::decode(addr);
        d.bank ^= static_cast<BankId>(d.row) & mask_;
        return d;
    }

    Addr
    encode(const DecodedAddr &d) const override
    {
        DecodedAddr p = d;
        p.bank ^= static_cast<BankId>(p.row) & mask_;
        return AddressMap::encode(p);
    }

  private:
    BankId mask_;
};

std::string
permBankCheck(const MemOrg &org, const DramSpec &)
{
    if ((org.banksPerRank & (org.banksPerRank - 1)) != 0) {
        return std::string("config key '") + keys::kAddressMap +
               "': map 'perm-bank' needs a power-of-two banksPerRank for "
               "its XOR permutation (got " +
               std::to_string(org.banksPerRank) + ")";
    }
    return "";
}

} // namespace

DSARP_REGISTER_ADDRESS_MAP(perm_bank, {
    "perm-bank",
    "burst-ch with XOR bank permutation (row-conflict spreading)",
    [](const MemOrg &org) { return std::make_unique<PermBankMap>(org); },
    permBankCheck, nullptr})

} // namespace dsarp
