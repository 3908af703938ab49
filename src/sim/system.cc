#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"

namespace dsarp {

namespace {

SystemConfig
finalized(SystemConfig cfg)
{
    cfg.finalize();
    return cfg;
}

} // namespace

System::System(const SystemConfig &cfg, Init)
    : cfg_(finalized(cfg)), timing_(TimingParams::forConfig(cfg_.mem)),
      map_(AddressMapRegistry::instance().make(cfg_.mem.addressMap,
                                               cfg_.mem.org))
{
}

System::System(const SystemConfig &cfg, const std::vector<int> &bench_idx)
    : System(cfg, Init{})
{
    DSARP_ASSERT(static_cast<int>(bench_idx.size()) == cfg_.numCores,
                 "one benchmark per core required");
    DSARP_ASSERT(!cfg_.traffic.enabled(),
                 "closed-loop ctor with traffic enabled; use "
                 "System(cfg)");

    // Cores share the row space in eight fixed partitions so footprints
    // are comparable across core counts (Table 3 sweeps 2/4/8 cores).
    const int partitions = std::max(8, cfg_.numCores);
    const auto &table = benchmarkTable();
    for (int c = 0; c < cfg_.numCores; ++c) {
        const int idx = bench_idx[c];
        DSARP_ASSERT(idx >= 0 && idx < static_cast<int>(table.size()),
                     "benchmark index out of range");
        ownedTraces_.push_back(std::make_unique<SyntheticTrace>(
            table[idx].profile, *map_, c, partitions,
            cfg_.seed + 0x1000 * (c + 1)));
        traces_.push_back(ownedTraces_.back().get());
    }
    build();
}

System::System(const SystemConfig &cfg,
               const std::vector<TraceSource *> &traces)
    : System(cfg, Init{})
{
    traces_ = traces;
    DSARP_ASSERT(static_cast<int>(traces_.size()) == cfg_.numCores,
                 "one trace per core required");
    DSARP_ASSERT(!cfg_.traffic.enabled(),
                 "closed-loop ctor with traffic enabled; use "
                 "System(cfg)");
    build();
}

System::System(const SystemConfig &cfg) : System(cfg, Init{})
{
    DSARP_ASSERT(cfg_.traffic.enabled(),
                 "open-loop ctor needs traffic.mode != off");
    build();
}

bool
System::enqueue(Request req, bool isWrite)
{
    req.loc = map_->decode(req.addr);
    const std::size_t ch = static_cast<std::size_t>(req.loc.channel);
    // Front ends tick after the controllers, so a dormant target's tick
    // at now_ sampled the pre-enqueue queues: account it through now_
    // before mutating, then wake it for the tick that can first see
    // the request.
    if (eventRun_)
        ctlCatchUp(ch, now_ + 1);
    ChannelController &ctl = *controllers_[ch];
    const bool ok =
        isWrite ? ctl.enqueueWrite(req, now_) : ctl.enqueueRead(req, now_);
    if (ok && eventRun_)
        ctlWake_[ch] = std::min(ctlWake_[ch], now_ + 1);
    return ok;
}

void
System::build()
{
    const bool openLoop = cfg_.traffic.enabled();
    if (openLoop)
        tenantLat_.resize(cfg_.traffic.tenants);

    cmdLogs_.resize(cfg_.mem.org.channels);
    refBusyUntil_.assign(cfg_.mem.org.channels, 0);
    for (ChannelId ch = 0; ch < cfg_.mem.org.channels; ++ch) {
        controllers_.push_back(std::make_unique<ChannelController>(
            ch, &cfg_.mem, &timing_, cfg_.seed));
        if (cfg_.enableChecker)
            controllers_.back()->setCommandLog(&cmdLogs_[ch]);
        controllers_.back()->channel().setRefreshSpanCallback(
            [this, ch](Tick start, Tick end) {
                onRefreshSpan(ch, start, end);
            });
        if (openLoop) {
            // Open-loop deliveries only feed the per-tenant latency
            // tally (req.core carries the tenant id, req.arrival the
            // generation tick, so backlog queueing is included). A
            // completion cannot enable any injection, so the injector
            // needs no wake here.
            controllers_.back()->setReadCallback(
                [this](const Request &req, Tick done) {
                    tenantLat_[req.core].add(done - req.arrival);
                });
            continue;
        }
        controllers_.back()->setReadCallback(
            [this](const Request &req, Tick) {
                // A delivery voids the target core's dormant certificate:
                // settle its inert span against the pre-delivery state
                // (the stall accounting reads completed_), then make it
                // execute this tick -- cores run after controllers, so
                // the cycle engine's order is preserved.
                if (eventRun_) {
                    const std::size_t c =
                        static_cast<std::size_t>(req.core);
                    coreCatchUp(c, now_);
                    coreWake_[c] = std::min(coreWake_[c], now_);
                }
                cores_[req.core]->onReadComplete(req.id);
            });
    }

    if (openLoop) {
        injector_ = std::make_unique<TrafficInjector>(cfg_.traffic,
                                                      *map_, cfg_.seed);
        injector_->bind(
            [this](const Request &req) { return enqueue(req, false); },
            [this](const Request &req) { return enqueue(req, true); });
        return;
    }

    for (int c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(
            std::make_unique<Core>(c, &cfg_.core, traces_[c]));
        cores_.back()->bind(
            [this, c](std::uint64_t id, Addr addr) {
                Request req;
                req.id = id;
                req.core = c;
                req.isWrite = false;
                req.addr = addr;
                req.arrival = now_;
                return enqueue(req, false);
            },
            [this, c](Addr addr) {
                Request req;
                req.id = 0;
                req.core = c;
                req.isWrite = true;
                req.addr = addr;
                req.arrival = now_;
                return enqueue(req, true);
            });
    }
}

void
System::run(Tick ticks)
{
    const Tick end = now_ + ticks;
    if (cfg_.engine == "event")
        runEvent(end);
    else
        runCycle(end);
}

void
System::runCycle(Tick end)
{
    while (now_ < end) {
        for (auto &ctl : controllers_)
            ctl->tick(now_);
        if (injector_)
            injector_->tick(now_);
        for (auto &core : cores_)
            core->tick();
        ++now_;
    }
}

void
System::runEvent(Tick end)
{
    // Per-component skip-to-next-deadline loop. Each controller and
    // core keeps its own clock: a wake tick (the earliest instant it
    // could act differently, per its nextWake() certificate) and an
    // accounted-through cursor. A component executes only at its wake
    // ticks; the inert span in between is bulk-accounted through
    // skipTicks() -- linear stat accrual and RNG replay -- exactly
    // when the component is next touched. Every executed tick runs in
    // the cycle loop's order (controllers ascending, then cores
    // ascending), and every cross-component interaction re-wakes its
    // target first (enqueues via the bind() hooks, read deliveries via
    // the read callback, queue-slot frees via poppedWithRejection), so
    // commands, stats, and random streams stay bit-identical to
    // runCycle().
    // The open-loop injector occupies the single core slot: it ticks
    // in the core phase, pop-wakes re-arm its blocked backlog heads,
    // and its nextWake() certificate is the next arrival instant.
    const std::size_t ncs = controllers_.size();
    const std::size_t nks = injector_ ? 1 : cores_.size();
    ctlWake_.assign(ncs, now_);
    ctlNext_.assign(ncs, now_);
    coreWake_.assign(nks, now_);
    coreNext_.assign(nks, now_);
    eventRun_ = true;

    while (now_ < end) {
        const Tick t = now_;

        // Each component re-certifies as soon as it has executed. A
        // later front end's enqueue re-wakes a controller for t+1
        // through the bind() hook (its next tick drops what this
        // certificate cached), and nothing after the core phase can
        // touch a core, so every wake is the one the cycle order gives.
        for (std::size_t i = 0; i < ncs; ++i) {
            if (ctlWake_[i] > t)
                continue;
            ctlCatchUp(i, t);
            controllers_[i]->tick(t);
            ctlNext_[i] = t + 1;
            if (controllers_[i]->consumePoppedWithRejection()) {
                for (std::size_t j = 0; j < nks; ++j)
                    coreWake_[j] = std::min(coreWake_[j], t);
            }
            const Tick w = controllers_[i]->nextWake(t);
            ctlWake_[i] = w <= t ? t + 1 : w;
        }
        for (std::size_t j = 0; j < nks; ++j) {
            if (coreWake_[j] > t)
                continue;
            coreCatchUp(j, t);
            if (injector_)
                injector_->tick(t);
            else
                cores_[j]->tick();
            coreNext_[j] = t + 1;
            const Tick w = injector_ ? injector_->nextWake(t)
                                     : cores_[j]->nextWake(t);
            coreWake_[j] = w <= t ? t + 1 : w;
        }

        Tick next = end;
        for (const Tick w : ctlWake_)
            next = std::min(next, w);
        for (const Tick w : coreWake_)
            next = std::min(next, w);
        now_ = std::max(next, t + 1);
    }

    // The cycle loop's last tick is end-1: account every dormant tail.
    for (std::size_t i = 0; i < ncs; ++i)
        ctlCatchUp(i, end);
    for (std::size_t j = 0; j < nks; ++j)
        coreCatchUp(j, end);
    eventRun_ = false;
}

void
System::ctlCatchUp(std::size_t i, Tick t)
{
    if (ctlNext_[i] < t) {
        controllers_[i]->skipTicks(ctlNext_[i], t - ctlNext_[i]);
        ctlNext_[i] = t;
    }
}

void
System::coreCatchUp(std::size_t j, Tick t)
{
    if (coreNext_[j] < t) {
        if (injector_)
            injector_->skipTicks(t - coreNext_[j]);
        else
            cores_[j]->skipTicks(t - coreNext_[j]);
        coreNext_[j] = t;
    }
}

void
System::onRefreshSpan(ChannelId ch, Tick start, Tick end)
{
    // Spans arrive in issue order, so every sibling frontier > s below
    // belongs to a burst already running at s; billing the span's
    // intersection with the union of the others' makes the system-wide
    // sum exactly sum_t max(0, refreshing channels - 1).
    if (end <= refBusyUntil_[ch])
        return;  // Re-billing time this channel already accounted.
    const Tick s = std::max(start, refBusyUntil_[ch]);
    Tick others = 0;
    for (std::size_t c = 0; c < refBusyUntil_.size(); ++c) {
        if (static_cast<ChannelId>(c) != ch)
            others = std::max(others, refBusyUntil_[c]);
    }
    if (others > s) {
        controllers_[ch]->channel().addRefOverlapTicks(
            std::min(end, others) - s);
    }
    refBusyUntil_[ch] = end;
}

void
System::resetStats()
{
    for (auto &core : cores_)
        core->resetStats();
    if (injector_)
        injector_->resetStats();
    for (auto &hist : tenantLat_)
        hist.reset();
    for (auto &ctl : controllers_)
        ctl->resetStats();
}

std::vector<double>
System::coreIpc() const
{
    std::vector<double> out;
    out.reserve(cores_.size());
    for (const auto &core : cores_)
        out.push_back(core->stats().ipc());
    return out;
}

} // namespace dsarp
