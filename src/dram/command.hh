/**
 * @file
 * DRAM command vocabulary.
 *
 * The controller uses a closed-row policy (paper Table 1): the common path
 * is ACT followed by RDA/WRA (column access with auto-precharge). Plain
 * RD/WR are used to batch row hits before the final auto-precharging
 * access; PRE appears only when a refresh must force a bank closed.
 */

#ifndef DSARP_DRAM_COMMAND_HH
#define DSARP_DRAM_COMMAND_HH

#include "common/types.hh"

namespace dsarp {

enum class CommandType {
    kAct,    ///< Activate a row.
    kRd,     ///< Column read, row stays open.
    kWr,     ///< Column write, row stays open.
    kRdA,    ///< Column read with auto-precharge.
    kWrA,    ///< Column write with auto-precharge.
    kPre,    ///< Explicit precharge.
    kRefAb,  ///< All-bank (rank-level) refresh.
    kRefPb,  ///< Per-bank refresh.
    kRefSb,  ///< Same-bank refresh (DDR5): one bank-group slice.
    kSrEnter,///< Self-refresh entry (SRE): rank refreshes itself.
    kSrExit, ///< Self-refresh exit (SRX): tXS before the next command.
};

/** True for RD/WR/RDA/WRA. */
inline bool
isColumnCmd(CommandType t)
{
    return t == CommandType::kRd || t == CommandType::kWr ||
        t == CommandType::kRdA || t == CommandType::kWrA;
}

/** True for the read flavours. */
inline bool
isReadCmd(CommandType t)
{
    return t == CommandType::kRd || t == CommandType::kRdA;
}

/** True for the write flavours. */
inline bool
isWriteCmd(CommandType t)
{
    return t == CommandType::kWr || t == CommandType::kWrA;
}

/** True for REFab/REFpb/REFsb. */
inline bool
isRefreshCmd(CommandType t)
{
    return t == CommandType::kRefAb || t == CommandType::kRefPb ||
        t == CommandType::kRefSb;
}

/** True for the self-refresh protocol pair SRE/SRX. */
inline bool
isSelfRefreshCmd(CommandType t)
{
    return t == CommandType::kSrEnter || t == CommandType::kSrExit;
}

/** A decoded command as it appears on a channel's command bus. */
struct Command
{
    CommandType type;
    RankId rank = 0;
    BankId bank = 0;       ///< Unused for REFab; group index for REFsb.
    RowId row = 0;         ///< Valid for ACT.
    int column = 0;        ///< Valid for column commands.
    SubarrayId subarray = 0;

    /**
     * Refresh-command overrides used by DDR4 FGR / adaptive refresh,
     * whose commands have a different latency and cover fewer rows than
     * the datasheet default. Zero selects the TimingParams values.
     */
    Cycles tRfcOverride{};
    int rowsOverride = 0;

    /**
     * HiRA hidden refresh: a REFpb issued to a bank with an open row,
     * refreshing a *different* subarray beneath the in-progress access
     * (legal only tHiRA cycles after the demand ACT).
     */
    bool hidden = false;

    bool operator==(const Command &) const = default;
};

const char *commandName(CommandType t);

inline const char *
commandName(CommandType t)
{
    switch (t) {
      case CommandType::kAct: return "ACT";
      case CommandType::kRd: return "RD";
      case CommandType::kWr: return "WR";
      case CommandType::kRdA: return "RDA";
      case CommandType::kWrA: return "WRA";
      case CommandType::kPre: return "PRE";
      case CommandType::kRefAb: return "REFab";
      case CommandType::kRefPb: return "REFpb";
      case CommandType::kRefSb: return "REFsb";
      case CommandType::kSrEnter: return "SRE";
      case CommandType::kSrExit: return "SRX";
    }
    return "?";
}

} // namespace dsarp

#endif // DSARP_DRAM_COMMAND_HH
