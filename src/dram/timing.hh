/**
 * @file
 * Resolved DRAM timing parameters consumed by the channel/rank/bank
 * state machines.
 *
 * Values are in bus cycles of the selected spec's clock (tCkNs). The
 * numbers now come from the data-driven DramSpecRegistry
 * (dram/spec.hh): each registered device spec declares its clock, core
 * timings, density -> tRFC table, refresh geometry, and FGR divisors,
 * and DramSpec::timingFor() derives everything else (tRtw, cycle
 * conversions, tREFIpb, rate scaling) centrally. The member defaults
 * below are the paper's DDR3-1333 values, which the default
 * "DDR3-1333" spec reproduces bit-identically: tRFCab = 350/530/890 ns
 * for 8/16/32 Gb chips, tRFCpb = tRFCab / 2.3 (the LPDDR2-derived
 * ratio of Section 3.1), and tREFIab = retention / 8192 (3.9 us at
 * 32 ms retention).
 */

#ifndef DSARP_DRAM_TIMING_HH
#define DSARP_DRAM_TIMING_HH

#include <string>

#include "common/config.hh"
#include "common/types.hh"

namespace dsarp {

/** Complete timing parameter set used by the channel state machines. */
struct TimingParams
{
    std::string spec = "DDR3-1333";  ///< Registry name this set came from.

    Nanoseconds tCkNs{1.5};  ///< Bus clock period.

    // Core DDR3-1333 parameters (cycles).
    Cycles tCl{9};    ///< CAS latency.
    Cycles tCwl{7};   ///< CAS write latency.
    Cycles tRcd{9};   ///< ACT to column command.
    Cycles tRp{9};    ///< Precharge period.
    Cycles tRas{24};  ///< ACT to PRE.
    Cycles tRc{33};   ///< ACT to ACT, same bank.
    Cycles tBl{4};    ///< Burst length on the data bus (BL8).
    Cycles tCcd{4};   ///< Column command to column command.
    Cycles tRtp{5};   ///< Read to precharge.
    Cycles tWr{10};   ///< Write recovery (end of write data to precharge).
    Cycles tWtr{5};   ///< End of write data to read command, same rank.
    Cycles tRtw{8};   ///< Read to write gap, derived: tCL + tBL + 2 - tCWL.
    Cycles tRrd{4};   ///< ACT to ACT, different banks, same rank.
    Cycles tFaw{20};  ///< Four-activate window.
    Cycles tRtrs{2};  ///< Rank-to-rank data-bus switch.

    // Refresh parameters (cycles).
    Cycles tRefiAb{2600};  ///< All-bank refresh command interval.
    Cycles tRefiPb{325};   ///< Per-bank interval, derived: tREFIab/banks.
    Cycles tRfcAb{234};    ///< All-bank refresh latency.
    Cycles tRfcPb{102};    ///< Per-bank refresh latency.

    /**
     * Same-bank refresh (DDR5 REFsb) geometry, derived from the spec's
     * bank-group declaration: one REFsb command refreshes every bank
     * of one bank-group slice (banksPerGroup banks) in tRfcSb cycles,
     * and a slice is due every tRefiSb = tREFIab / (banks / group
     * size). All three stay 0 when the selected spec has no same-bank
     * refresh (DDR3/DDR4/LPDDR4), which is what the checker and the
     * REFsb policy key off.
     */
    Cycles tRefiSb{0};    ///< Same-bank refresh command interval.
    Cycles tRfcSb{0};     ///< Same-bank refresh latency.
    int banksPerGroup = 0;///< Banks one REFsb command covers (0 = none).

    /**
     * Per-cycle current of one same-bank slice for the energy model,
     * as a divisor of the all-bank refresh current above background:
     * (IDD5B - IDD3N) / refSbEnergyDivisor. Derived, never spec data:
     * a full sweep of `groups` REFsb commands must cost one REFab's
     * charge, so the divisor is groups x tRFCsb / tRFCab at the
     * *resolved* geometry and density (a static per-spec constant
     * would silently misprice re-sliced or non-canonical bank
     * counts).
     */
    double refSbEnergyDivisor = 1.0;

    /**
     * Self-refresh protocol timings, derived from the spec's data by
     * timingFor(): tXS is the exit-to-first-valid-command latency
     * (JEDEC: the active tRFCab plus a settle delta, so FGR modes get
     * their shorter exit automatically), tXsFgr is the data-sheet
     * exit latency at the spec's native 2x fine granularity (DDR5's
     * tXS_FGR; reported for all specs from the same derivation), and
     * tCkesr is the minimum self-refresh residency (CKE-low pulse
     * width). The defaults reproduce DDR3-1333 at 8 Gb.
     */
    Cycles tXs{240};
    Cycles tXsFgr{180};
    Cycles tCkesr{5};

    /** Rows refreshed in each bank by one refresh command. */
    int rowsPerRefresh = 8;

    /** Number of REFab slots per retention period (JEDEC: 8192). */
    int refreshesPerRetention = 8192;

    /**
     * Spec-provided FGR tRFC divisors at 2x/4x command rate. The
     * defaults are the paper's Section 6.5 DDR3 projections; DDR4
     * specs carry their native tRFC1/tRFC2/tRFC4 ratios.
     */
    double fgrDivisor2x = 1.35;
    double fgrDivisor4x = 1.63;

    /**
     * HiRA (hidden row activation) parameters, derived from the spec's
     * characterization (dram/spec.hh) with the refresh.hiraDelay /
     * refresh.hiraCoverage config overrides applied: the cycles
     * between a demand ACT and the hidden refresh activation beneath
     * it, and the fraction of row pairs hiding is reliable for.
     */
    Cycles tHiRA{5};
    double hiraActCoverage = 0.32;
    double hiraRefCoverage = 0.78;

    /** This parameter set's FGR divisor for a 1x/2x/4x rate. */
    double rfcDivisorFor(int rateMultiplier) const;

    /**
     * Resolve the spec named by cfg.dramSpec through the
     * DramSpecRegistry and derive its parameter set (density scaling,
     * retention scaling, FGR rate scaling, tFAW/tRRD overrides). A
     * fatal named-key error listing registered specs when the name is
     * unknown.
     */
    static TimingParams forConfig(const MemConfig &cfg);

    /**
     * Convert nanoseconds to (rounded-up) bus cycles. The single
     * blessed ns -> cycles conversion point: all other arithmetic
     * between Nanoseconds and Cycles is a compile error, and the
     * analyzer's unit-honest-conversion rule rejects raw arithmetic
     * against tCkNs outside this translation unit and spec.cc.
     */
    static Cycles nsToCycles(Nanoseconds ns, Nanoseconds tCk);

    /** nsToCycles, but truncating (tREFI intervals round down). */
    static Cycles nsToCyclesFloor(Nanoseconds ns, Nanoseconds tCk);
};

} // namespace dsarp

#endif // DSARP_DRAM_TIMING_HH
