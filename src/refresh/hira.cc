#include "refresh/hira.hh"

#include "refresh/registry.hh"

namespace dsarp {

DSARP_REGISTER_REFRESH_POLICY(hira, {
    "HiRA", "hidden row activation: refresh beneath ACTs to other "
            "subarrays of the same bank (Yağlıkçı+, MICRO'22)",
    [](MemConfig &m) {
        // DARP's per-bank timing profile and out-of-order scheduling,
        // without SARP's chip modification; the hira flag arms the
        // hidden-refresh paths and the tRRD/tFAW power-integrity
        // inflation while one is in flight.
        m.refresh = RefreshMode::kPerBank;
        m.hira = true;
    },
    [](const MemConfig &c, const TimingParams &t, ControllerView &v) {
        return std::make_unique<HiraScheduler>(&c, &t, &v);
    }}, {"hidden-row-activation"})

HiraScheduler::HiraScheduler(const MemConfig *cfg,
                             const TimingParams *timing,
                             ControllerView *view)
    : DarpScheduler(cfg, timing, view)
{
    // Fractional ledger accounting: a hidden refresh is one row (one
    // activation), a nominal REFpb slot is rowsPerRefresh rows.
    slot_ = timing->rowsPerRefresh;
    ledger_.setDenominator(slot_);
    windows_.assign(cfg->org.ranksPerChannel * units_, HiddenWindow{});
}

void
HiraScheduler::onDemandCommand(const Command &cmd, Tick now)
{
    if (cmd.type != CommandType::kAct)
        return;
    HiddenWindow &win = windows_[index(cmd.rank, cmd.bank)];
    // Coverage draw per activation: only a characterized fraction of
    // row pairs tolerate the interleaved hidden activation; the pair
    // is fixed by this ACT and the bank's refresh counter, so the draw
    // happens once here, not per issue attempt.
    if (!view_->schedulerRng().chance(timing_->hiraActCoverage)) {
        win.armed = false;
        return;
    }
    win.armed = true;
    win.readyAt = now + timing_->tHiRA;
    // Stale once the access that would hide it has surely closed.
    win.expiresAt = win.readyAt + timing_->tRc;
}

void
HiraScheduler::urgent(Tick now, std::vector<RefreshRequest> &out)
{
    // Refresh-refresh parallelization is DARP's pairing step: a due
    // blocking REFpb may cover two slots' rows at unchanged tRFCpb when
    // the bank is two or more slots behind. In HiRA hardware the
    // refresh controller pairs each row with a victim from a
    // *different* subarray; the model's sequential refresh counter is a
    // coverage-accounting simplification (which rows retire in which
    // command does not affect retention correctness within the
    // postpone window), so the pairing feasibility is modeled by the
    // characterized 78% coverage draw plus the requirement that the
    // bank has a second subarray at all.
    DarpScheduler::urgent(now, out);

    // Hidden refresh beneath an ACT: tHiRA cycles after a covered
    // demand activation, refresh one row of a *different* subarray of
    // the same bank while the open row keeps serving. Non-blocking --
    // issued only when legal this tick.
    for (RankId r = 0; r < ledger_.numRanks(); ++r) {
        for (BankId b = 0; b < units_; ++b) {
            HiddenWindow &win = windows_[index(r, b)];
            if (!win.armed || now < win.readyAt)
                continue;
            if (now > win.expiresAt) {
                win.armed = false;
                continue;
            }
            if (!ledger_.canPullInParts(r, b, 1))
                continue;
            // An activation-based refresh of a single row: the hidden
            // ACT-PRE cycle, not a full multi-row REFpb.
            RefreshRequest req = request(r, b, false);
            req.cmd.hidden = true;
            req.cmd.tRfcOverride = timing_->tRc;
            req.cmd.rowsOverride = 1;
            req.ledgerParts = 1;
            if (view_->dram().canIssue(req.cmd, now))
                out.push_back(req);
        }
    }
}

Tick
HiraScheduler::nextWake(Tick now)
{
    Tick wake = DarpScheduler::nextWake(now);
    for (const HiddenWindow &win : windows_) {
        if (win.armed && win.readyAt > now && win.readyAt < wake)
            wake = win.readyAt;
    }
    return wake;
}

void
HiraScheduler::onIssued(const RefreshRequest &req, Tick now)
{
    const Command &cmd = req.cmd;
    if (cmd.hidden) {
        if (ledger_.owed(cmd.rank, cmd.bank) <= 0)
            ++stats_.pulledIn;
        ledger_.onPartialRefresh(cmd.rank, cmd.bank, req.ledgerParts);
        windows_[index(cmd.rank, cmd.bank)].armed = false;
        ++stats_.issued;
        return;
    }
    DarpScheduler::onIssued(req, now);
}

} // namespace dsarp
