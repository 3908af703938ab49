/**
 * @file
 * String-keyed, self-registering registry of DRAM device specs.
 *
 * A DramSpec is the complete data sheet the simulator needs for one
 * device family x speed bin: base clock, core timings in bus cycles,
 * the density -> tRFCab table, refresh geometry (slots per retention,
 * the per-bank tRFC ratio or a native REFpb latency table), and the
 * fine-granularity-refresh tRFC divisors. Everything derivable from
 * those inputs -- tRtw, tREFIab/pb in cycles, FGR rate scaling,
 * rows-per-refresh coverage -- is computed centrally by timingFor(),
 * never copy-pasted per spec.
 *
 * Specs register themselves from their own translation units under
 * src/dram/specs/ with the DSARP_REGISTER_DRAM_SPEC macro;
 * common/registry.hh holds the registry itself.
 *
 * Selection: set MemConfig::dramSpec (config key "dram.spec") to a
 * registered name; lookups are case-insensitive and aliases are
 * accepted. "DDR3-1333" is the default and reproduces the paper's
 * Table 1 numbers bit-identically.
 */

#ifndef DSARP_DRAM_SPEC_HH
#define DSARP_DRAM_SPEC_HH

#include <array>
#include <string>

#include "common/config.hh"
#include "common/registry.hh"
#include "dram/timing.hh"
#include "sim/config_keys.hh"

namespace dsarp {

/** Index into the per-density tables (8/16/32 Gb). */
int densityIndex(Density d);

/**
 * Datasheet currents in mA and the supply voltage for the energy model
 * (sim/energy.hh). Every DramSpec carries its own set; the defaults
 * are the Micron 8 Gb TwinDie DDR3-1333 approximation the paper's
 * Section 5 methodology uses, which keeps DDR3-1333 bit-identical.
 */
struct EnergyParams
{
    double vdd = 1.5;     ///< Volts.
    double idd0 = 95.0;   ///< One-bank ACT-PRE current.
    double idd2n = 42.0;  ///< Precharge standby.
    double idd3n = 45.0;  ///< Active standby.
    double idd4r = 180.0; ///< Burst read.
    double idd4w = 185.0; ///< Burst write.
    double idd5b = 215.0; ///< Burst (all-bank) refresh.

    /**
     * Per-cycle current of a per-bank refresh, as a divisor of the
     * all-bank refresh current above background: (IDD5B - IDD3N) /
     * refPbCurrentDivisor. This encodes the *spec's* refresh geometry
     * -- the bank count its tRFC tables assume (8), not whatever
     * banksPerRank the config picked -- and native-REFpb parts derive
     * it from their per-bank tRFC table (banks x tRFCpb / tRFCab) so
     * a full-rank REFpb sweep costs the same charge as one REFab.
     */
    double refPbCurrentDivisor = 8.0;

    /**
     * IDD6 self-refresh current in mA, billed per rank-cycle of
     * SRE/SRX residency (refresh.selfRefresh.idleEntry). Always below
     * IDD2N.
     */
    double idd6 = 12.0;

    /** Micron 8 Gb TwinDie DDR3-1333 approximation [29]. */
    static EnergyParams micron8GbDdr3() { return EnergyParams{}; }
};

/** One DRAM device spec: the data-sheet inputs for timingFor(). */
struct DramSpec
{
    std::string name;     ///< Canonical spelling, e.g. "DDR4-2400".
    std::string summary;  ///< One-liner for --list and docs.

    Nanoseconds tCkNs{1.5};  ///< Bus clock period.

    // Core timings in bus cycles (same meanings as TimingParams).
    Cycles tCl{9};
    Cycles tCwl{7};
    Cycles tRcd{9};
    Cycles tRp{9};
    Cycles tRas{24};
    Cycles tRc{33};
    Cycles tBl{4};
    Cycles tCcd{4};
    Cycles tRtp{5};
    Cycles tWr{10};
    Cycles tWtr{5};
    Cycles tRrd{4};
    Cycles tFaw{20};
    Cycles tRtrs{2};

    /** All-bank refresh latency per density (8/16/32 Gb). */
    std::array<Nanoseconds, 3> tRfcAbNs = {
        Nanoseconds(350.0), Nanoseconds(530.0), Nanoseconds(890.0)};

    /**
     * Per-bank refresh latency. Specs without a native REFpb command
     * (DDR3/DDR4) leave tRfcPbNs zeroed and model REFpb through the
     * LPDDR2-derived ratio tRFCpb = tRFCab / pbRfcDivisor (Section
     * 3.1). LPDDR parts with first-class per-bank refresh supply the
     * native ns table instead, which then takes precedence.
     */
    double pbRfcDivisor = 2.3;
    std::array<Nanoseconds, 3> tRfcPbNs = {};

    /** True when REFpb/SARPpb run on a native per-bank latency table. */
    bool nativePerBankRefresh = false;

    /**
     * Same-bank refresh (DDR5 REFsb): banks per bank group, i.e. how
     * many banks one REFsb command refreshes together (DDR5: 4, the
     * banks of one bank-group slice). 0 means the device has no
     * same-bank refresh command (DDR3/DDR4/LPDDR4). When set, the
     * native per-slice latency table below must be populated;
     * timingFor() derives tREFIsb = tREFIab / (banksPerRank /
     * banksPerGroup) so the slices cover every bank exactly once per
     * tREFIab window. MemConfig::sameBankGroupSize can re-slice a
     * supporting spec for what-if sweeps.
     */
    int banksPerGroup = 0;

    /** Same-bank refresh latency per density (8/16/32 Gb). */
    std::array<Nanoseconds, 3> tRfcSbNs = {};

    /**
     * Self-refresh protocol data. tXS (exit to the first valid
     * command) is tRFCab plus this settle delta (JEDEC keeps the two
     * coupled: the device finishes an internal refresh burst on
     * exit), so timingFor() derives it from the *active* tRFC --
     * under FGR rates the exit shortens with the refresh commands,
     * which on DDR5 is exactly the data-sheet tXS_FGR. tCKESR is the
     * minimum self-refresh residency (the CKE-low pulse width).
     */
    Nanoseconds tXsDeltaNs{10.0};
    Nanoseconds tCkesrNs{7.5};

    /** REFab slots per retention period (JEDEC: 8192). */
    int refreshesPerRetention = 8192;

    /**
     * Fine granularity refresh: tRFC shrinks by these divisors while
     * the command rate rises 2x/4x. DDR3 parts have no native FGR;
     * they carry the paper's Section 6.5 projections (1.35/1.63).
     * DDR4 carries its data-sheet tRFC1/tRFC2/tRFC4 ratios.
     */
    double fgrDivisor2x = 1.35;
    double fgrDivisor4x = 1.63;

    /** Data-bus width of one channel in bits; with tBl bus cycles per
     *  burst (DDR: 2 x tBl transfers), one burst moves burstBytes(). */
    int busWidthBits = 64;

    /**
     * Independent sub-channels per DIMM (DDR5: 2, everything else 1).
     * The spec's channel-level fields above describe *one* sub-channel
     * (DDR5-4800: 32 data bits, BL16, 64 B bursts); under the
     * "ddr5-subch" address map MemConfig::finalize() expands every
     * configured channel into this many full channels, so DDR5
     * topology falls out of the spec, not the config.
     */
    int subChannels = 1;

    /**
     * HiRA (hidden row activation, Yağlıkçı et al., MICRO'22)
     * characterization: the delay between a demand activation and the
     * hidden refresh activation tucked beneath it, and the fraction of
     * row pairs for which hiding is reliable -- ~32% for refresh
     * beneath an access, ~78% for refresh parallelized with another
     * refresh of the same bank.
     */
    Nanoseconds tHiRANs{7.5};
    double hiraActCoverage = 0.32;
    double hiraRefCoverage = 0.78;

    /** Datasheet IDD/vdd set for the energy model. */
    EnergyParams energy;

    /** Bytes one burst transfers: 2 x tBl transfers x bus width. */
    int burstBytes() const
    {
        return static_cast<int>(2 * tBl.count()) * (busWidthBits / 8);
    }

    /** tRFCab for a density (before FGR scaling). */
    Nanoseconds tRfcAbNsFor(Density d) const
    {
        return tRfcAbNs[densityIndex(d)];
    }

    /**
     * Derive the full TimingParams for @p cfg: copies the core
     * timings, computes tRtw = tCL + tBL + 2 - tCWL, scales tREFI/tRFC
     * for density, retention, and the FGR rate selected by
     * cfg.refresh, derives tREFIpb = tREFIab / banks and the per-bank
     * tRFC (native table or ratio), applies the tFAW/tRRD overrides,
     * and checks that REFpb schedules fit their command interval.
     */
    TimingParams timingFor(const MemConfig &cfg) const;
};

class DramSpecRegistry : public Registry<DramSpecRegistry, DramSpec>
{
  public:
    static constexpr const char *kKey = keys::kDramSpec;
    static constexpr const char *kNoun = "DRAM spec";

    static void
    checkEntry(const DramSpec &spec)
    {
        DSARP_ASSERT(spec.tCkNs > Nanoseconds(0.0),
                     "DRAM spec needs a positive tCK");
    }
};

/**
 * Define a static registrar. Use at namespace scope in the spec's
 * translation unit:
 *
 *   DSARP_REGISTER_DRAM_SPEC(ddr4_2400, []() {
 *       DramSpec s;
 *       s.name = "DDR4-2400";
 *       ...
 *       return s;
 *   }(), {"DDR4"})
 */
#define DSARP_REGISTER_DRAM_SPEC(ident, ...) \
    namespace { \
    const bool dsarpDramSpecRegistrar_##ident [[maybe_unused]] = \
        ::dsarp::DramSpecRegistry::instance().add(__VA_ARGS__); \
    }

} // namespace dsarp

#endif // DSARP_DRAM_SPEC_HH
