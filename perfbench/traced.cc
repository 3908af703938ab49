/**
 * @file
 * The traced run: per-layer host time and counters, measured from
 * outside the library.
 *
 * Three instruments, all through public API:
 *   - a timing decorator registered at runtime in RefreshPolicyRegistry
 *     under "traced:<mechanism>": it reuses the real policy's config
 *     bundle and forwards every call to the real policy;
 *   - a decorator registered in AddressMapRegistry under
 *     "traced:<map>" around AddressMap::decode;
 *   - TracedSystem, the harness's copy of System's build() and of its
 *     cycle and event engine loops, assembled from the public
 *     ChannelController / Core / TrafficInjector pieces with a span
 *     around each tick.
 *
 * Spans aggregate per layer in memory (calls, inclusive time, time of
 * directly nested spans) and are reported once at the end. The copy is
 * only trusted because every traced run must reproduce the untraced
 * Runner result bit for bit (the transparency check).
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "core/core.hh"
#include "dram/address.hh"
#include "dram/spec.hh"
#include "refresh/registry.hh"
#include "sim/energy.hh"
#include "sim/metrics.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "workload/arrival.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace perfbench {

namespace {

/** Aggregated spans of one layer boundary. */
struct Layer
{
    std::uint64_t calls = 0;
    double totalNs = 0.0;  ///< Inclusive measured time.
    double childNs = 0.0;  ///< Measured time of directly nested spans.
    std::uint64_t childCalls = 0;
};

/** Every layer boundary the traced run times, plus engine counters. */
struct TraceContext
{
    Layer loop;       ///< One System::run() call (warmup or measure).
    Layer ctlTick;    ///< ChannelController::tick.
    Layer ctlEngine;  ///< Controller nextWake/skipTicks (event engine).
    Layer refresh;    ///< Any forwarded refresh-policy call.
    Layer frontTick;  ///< Core::tick, or TrafficInjector::tick.
    Layer coreEngine; ///< Front-end nextWake/skipTicks (event engine).
    Layer traceNext;  ///< SyntheticTrace::next (closed-loop input).
    Layer enqueue;    ///< A front end's enqueue hook (decode + enqueue).
    Layer decode;     ///< AddressMap::decode.

    std::uint64_t ctlSkipCalls = 0;
    std::uint64_t ctlSkippedTicks = 0;
    std::uint64_t wakeCalls = 0;     ///< Policy nextWake calls.
    std::uint64_t wakeNowCalls = 0;  ///< ... that forced a one-tick step.
    std::uint64_t enqueueTries = 0;
    std::uint64_t enqueueAccepted = 0;
};

/** The context of the traced run in progress (it is single-threaded). */
TraceContext *gCtx = nullptr;
/** Innermost open span, so a closing span can bill its parent. */
Layer *gOpen = nullptr;

class Span
{
  public:
    explicit Span(Layer &layer)
        : layer_(layer), parent_(gOpen), t0_(Clock::now())
    {
        gOpen = &layer_;
    }

    ~Span()
    {
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0_)
                .count();
        ++layer_.calls;
        layer_.totalNs += ns;
        if (parent_) {
            parent_->childNs += ns;
            ++parent_->childCalls;
        }
        gOpen = parent_;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Layer &layer_;
    Layer *parent_;
    Clock::time_point t0_;
};

/**
 * Cost of the instrument itself: e1 is the measured time of an empty
 * span, e2 that of a span holding one empty child. Per-call figures
 * subtract them so a short call (decode) is not mostly clock reads.
 */
struct SpanCost
{
    double e1 = 0.0;
    double e2 = 0.0;
};

SpanCost
calibrate()
{
    constexpr int kIters = 200000;
    Layer outer, inner;
    for (int i = 0; i < kIters; ++i)
        Span s(outer);
    const double e1 = outer.totalNs / kIters;
    outer = Layer{};
    for (int i = 0; i < kIters; ++i) {
        Span s(outer);
        Span c(inner);
    }
    return {e1, outer.totalNs / kIters};
}

/** Mean per-call time, inclusive of nested spans, instrument removed. */
double
inclusiveNs(const Layer &l, const SpanCost &c)
{
    if (l.calls == 0)
        return 0.0;
    const double instrument = l.calls * c.e1 + l.childCalls * (c.e2 - c.e1);
    return std::max(0.0, (l.totalNs - instrument) /
                             static_cast<double>(l.calls));
}

/** Mean per-call self time: nested spans and the instrument removed. */
double
selfNs(const Layer &l, const SpanCost &c)
{
    if (l.calls == 0)
        return 0.0;
    const double self = l.totalNs - l.childNs - l.calls * c.e1 -
        l.childCalls * (c.e2 - c.e1 - c.e1);
    return std::max(0.0, self / static_cast<double>(l.calls));
}

// ---------------------------------------------------------------------
// Registry decorators.
// ---------------------------------------------------------------------

/** Times and forwards every call to the real refresh policy. */
class TimedPolicy : public RefreshScheduler
{
  public:
    TimedPolicy(const MemConfig &cfg, const TimingParams &timing,
                ControllerView &view,
                std::unique_ptr<RefreshScheduler> inner)
        : RefreshScheduler(&cfg, &timing, &view), inner_(std::move(inner))
    {}

    void
    tick(Tick now) override
    {
        Span s(gCtx->refresh);
        inner_->tick(now);
    }

    void
    urgent(Tick now, std::vector<RefreshRequest> &out) override
    {
        Span s(gCtx->refresh);
        inner_->urgent(now, out);
    }

    bool
    opportunistic(Tick now, RefreshRequest &out) override
    {
        Span s(gCtx->refresh);
        return inner_->opportunistic(now, out);
    }

    void
    onIssued(const RefreshRequest &req, Tick now) override
    {
        Span s(gCtx->refresh);
        inner_->onIssued(req, now);
    }

    void
    onDemandCommand(const Command &cmd, Tick now) override
    {
        Span s(gCtx->refresh);
        inner_->onDemandCommand(cmd, now);
    }

    void
    onSrEnter(RankId rank, Tick now) override
    {
        Span s(gCtx->refresh);
        inner_->onSrEnter(rank, now);
    }

    void
    onSrExit(RankId rank, Tick now) override
    {
        Span s(gCtx->refresh);
        inner_->onSrExit(rank, now);
    }

    Tick
    nextWake(Tick now) override
    {
        Span s(gCtx->refresh);
        const Tick w = inner_->nextWake(now);
        ++gCtx->wakeCalls;
        if (w <= now)
            ++gCtx->wakeNowCalls;
        return w;
    }

    void
    skipTicks(Tick firstTick, Tick ticks) override
    {
        Span s(gCtx->refresh);
        inner_->skipTicks(firstTick, ticks);
    }

    /** Counters since the last markReset(): the measurement window. */
    RefreshSchedStats
    windowStats() const
    {
        RefreshSchedStats s = inner_->stats();
        s.postponed -= mark_.postponed;
        s.pulledIn -= mark_.pulledIn;
        s.forced -= mark_.forced;
        s.issued -= mark_.issued;
        return s;
    }

    /** Start the measurement window (RefreshScheduler::resetStats()
     *  is not virtual, so the real policy's counters never reset). */
    void markReset() const { mark_ = inner_->stats(); }

  private:
    std::unique_ptr<RefreshScheduler> inner_;
    mutable RefreshSchedStats mark_;
};

/** Times AddressMap::decode; everything else forwards untimed. */
class TimedMap : public AddressMap
{
  public:
    TimedMap(const MemOrg &org, std::unique_ptr<AddressMap> inner)
        : AddressMap(org), inner_(std::move(inner))
    {}

    const char *name() const override { return inner_->name(); }

    DecodedAddr
    decode(Addr addr) const override
    {
        Span s(gCtx->decode);
        return inner_->decode(addr);
    }

    Addr encode(const DecodedAddr &d) const override
    {
        return inner_->encode(d);
    }

  private:
    std::unique_ptr<AddressMap> inner_;
};

/** Times SyntheticTrace::next, the closed-loop input generator. */
class TimedTrace : public TraceSource
{
  public:
    explicit TimedTrace(std::unique_ptr<TraceSource> inner)
        : inner_(std::move(inner))
    {}

    TraceRecord
    next() override
    {
        Span s(gCtx->traceNext);
        return inner_->next();
    }

  private:
    std::unique_ptr<TraceSource> inner_;
};

const std::string kTracedPrefix = "traced:";

/** Register "traced:<policy>" once; returns the traced name. */
std::string
tracedPolicy(const std::string &policy)
{
    RefreshPolicyRegistry &reg = RefreshPolicyRegistry::instance();
    const RefreshPolicyRegistry::Entry &real = reg.at(policy);
    const std::string name = kTracedPrefix + real.name;
    if (!reg.has(name)) {
        const RefreshPolicyRegistry::Factory make = real.make;
        reg.add({name, "timing decorator around " + real.name,
                 real.configure,
                 [make](const MemConfig &c, const TimingParams &t,
                        ControllerView &v)
                     -> std::unique_ptr<RefreshScheduler> {
                     return std::make_unique<TimedPolicy>(c, t, v,
                                                          make(c, t, v));
                 }});
    }
    return name;
}

/** Register "traced:<map>" once; returns the traced name. */
std::string
tracedMap(const std::string &map)
{
    AddressMapRegistry &reg = AddressMapRegistry::instance();
    const AddressMapInfo &real = reg.at(map);
    const std::string name = kTracedPrefix + real.name;
    if (!reg.has(name)) {
        const auto make = real.make;
        reg.add({name, "decode timing decorator around " + real.name,
                 [make](const MemOrg &org) -> std::unique_ptr<AddressMap> {
                     return std::make_unique<TimedMap>(org, make(org));
                 },
                 real.check, real.channelFactor});
    }
    return name;
}

// ---------------------------------------------------------------------
// TracedSystem: System::build(), runCycle() and runEvent() re-assembled
// from public pieces, with spans. Keep in step with sim/system.cc; the
// transparency check fails the run when the two drift apart.
// ---------------------------------------------------------------------

class TracedSystem
{
  public:
    /** Closed loop when @p benchIdx is non-empty, else open loop. */
    TracedSystem(const SystemConfig &cfg, const std::vector<int> &benchIdx)
        : cfg_(cfg)
    {
        RefreshPolicyRegistry::instance().resolve(cfg_.mem);
        cfg_.finalize();
        timing_ = TimingParams::forConfig(cfg_.mem);
        map_ = AddressMapRegistry::instance().make(cfg_.mem.addressMap,
                                                   cfg_.mem.org);
        const int partitions = std::max(8, cfg_.numCores);
        const auto &table = benchmarkTable();
        for (std::size_t c = 0; c < benchIdx.size(); ++c) {
            traces_.push_back(std::make_unique<TimedTrace>(
                std::make_unique<SyntheticTrace>(
                    table[benchIdx[c]].profile, *map_,
                    static_cast<CoreId>(c), partitions,
                    cfg_.seed + 0x1000 * (c + 1))));
        }
        build();
    }

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    void
    run(Tick ticks)
    {
        Span s(gCtx->loop);
        const Tick end = now_ + ticks;
        if (cfg_.engine == "event")
            runEvent(end);
        else
            runCycle(end);
    }

    void
    resetStats()
    {
        for (auto &core : cores_)
            core->resetStats();
        if (injector_)
            injector_->resetStats();
        for (auto &hist : tenantLat_)
            hist.reset();
        for (auto &ctl : controllers_) {
            ctl->resetStats();
            timedPolicy(*ctl).markReset();
        }
    }

    /** The decorator the "traced:" policy name put in @p ctl. */
    static const TimedPolicy &
    timedPolicy(const ChannelController &ctl)
    {
        return static_cast<const TimedPolicy &>(ctl.refreshScheduler());
    }

    const SystemConfig &config() const { return cfg_; }
    const TimingParams &timing() const { return timing_; }
    const std::vector<std::unique_ptr<ChannelController>> &
    controllers() const
    {
        return controllers_;
    }
    const std::vector<std::unique_ptr<Core>> &cores() const
    {
        return cores_;
    }
    const TrafficInjector *injector() const { return injector_.get(); }
    const LatencyHistogram &tenantLatency(int i) const
    {
        return tenantLat_[static_cast<std::size_t>(i)];
    }

  private:
    /** A front end's enqueue: decode, then the target controller. */
    bool
    enqueue(const Request &reqIn, bool isWrite)
    {
        Span s(gCtx->enqueue);
        Request req = reqIn;
        req.loc = map_->decode(req.addr);
        const std::size_t ch = static_cast<std::size_t>(req.loc.channel);
        if (eventRun_)
            ctlCatchUp(ch, now_ + 1);
        const bool ok = isWrite ? controllers_[ch]->enqueueWrite(req, now_)
                                : controllers_[ch]->enqueueRead(req, now_);
        if (ok && eventRun_)
            ctlWake_[ch] = std::min(ctlWake_[ch], now_ + 1);
        ++gCtx->enqueueTries;
        gCtx->enqueueAccepted += ok ? 1 : 0;
        return ok;
    }

    void
    build()
    {
        const bool openLoop = cfg_.traffic.enabled();
        if (openLoop)
            tenantLat_.resize(static_cast<std::size_t>(cfg_.traffic.tenants));
        refBusyUntil_.assign(static_cast<std::size_t>(cfg_.mem.org.channels),
                             0);
        for (ChannelId ch = 0; ch < cfg_.mem.org.channels; ++ch) {
            controllers_.push_back(std::make_unique<ChannelController>(
                ch, &cfg_.mem, &timing_, cfg_.seed));
            controllers_.back()->channel().setRefreshSpanCallback(
                [this, ch](Tick start, Tick end) {
                    onRefreshSpan(ch, start, end);
                });
            if (openLoop) {
                controllers_.back()->setReadCallback(
                    [this](const Request &req, Tick done) {
                        tenantLat_[static_cast<std::size_t>(req.core)].add(
                            done - req.arrival);
                    });
                continue;
            }
            controllers_.back()->setReadCallback(
                [this](const Request &req, Tick) {
                    if (eventRun_) {
                        const std::size_t c =
                            static_cast<std::size_t>(req.core);
                        coreCatchUp(c, now_);
                        coreWake_[c] = std::min(coreWake_[c], now_);
                    }
                    cores_[static_cast<std::size_t>(req.core)]
                        ->onReadComplete(req.id);
                });
        }

        if (openLoop) {
            injector_ = std::make_unique<TrafficInjector>(cfg_.traffic,
                                                          *map_, cfg_.seed);
            injector_->bind(
                [this](const Request &r) { return enqueue(r, false); },
                [this](const Request &r) { return enqueue(r, true); });
            return;
        }

        for (std::size_t c = 0; c < traces_.size(); ++c) {
            cores_.push_back(std::make_unique<Core>(
                static_cast<CoreId>(c), &cfg_.core, traces_[c].get()));
            const CoreId id = static_cast<CoreId>(c);
            cores_.back()->bind(
                [this, id](std::uint64_t reqId, Addr addr) {
                    Request req;
                    req.id = reqId;
                    req.core = id;
                    req.isWrite = false;
                    req.addr = addr;
                    req.arrival = now_;
                    return enqueue(req, false);
                },
                [this, id](Addr addr) {
                    Request req;
                    req.id = 0;
                    req.core = id;
                    req.isWrite = true;
                    req.addr = addr;
                    req.arrival = now_;
                    return enqueue(req, true);
                });
        }
    }

    void
    runCycle(Tick end)
    {
        while (now_ < end) {
            for (auto &ctl : controllers_) {
                Span s(gCtx->ctlTick);
                ctl->tick(now_);
            }
            if (injector_) {
                Span s(gCtx->frontTick);
                injector_->tick(now_);
            }
            for (auto &core : cores_) {
                Span s(gCtx->frontTick);
                core->tick();
            }
            ++now_;
        }
    }

    void
    runEvent(Tick end)
    {
        const std::size_t ncs = controllers_.size();
        const std::size_t nks = injector_ ? 1 : cores_.size();
        ctlWake_.assign(ncs, now_);
        ctlNext_.assign(ncs, now_);
        coreWake_.assign(nks, now_);
        coreNext_.assign(nks, now_);
        ctlRan_.assign(ncs, 0);
        coreRan_.assign(nks, 0);
        eventRun_ = true;

        while (now_ < end) {
            const Tick t = now_;
            for (std::size_t i = 0; i < ncs; ++i) {
                if (ctlWake_[i] > t)
                    continue;
                ctlCatchUp(i, t);
                {
                    Span s(gCtx->ctlTick);
                    controllers_[i]->tick(t);
                }
                ctlNext_[i] = t + 1;
                ctlRan_[i] = 1;
                if (controllers_[i]->consumePoppedWithRejection()) {
                    for (std::size_t j = 0; j < nks; ++j)
                        coreWake_[j] = std::min(coreWake_[j], t);
                }
            }
            for (std::size_t j = 0; j < nks; ++j) {
                if (coreWake_[j] > t)
                    continue;
                coreCatchUp(j, t);
                {
                    Span s(gCtx->frontTick);
                    if (injector_)
                        injector_->tick(t);
                    else
                        cores_[j]->tick();
                }
                coreNext_[j] = t + 1;
                coreRan_[j] = 1;
            }

            Tick next = end;
            for (std::size_t i = 0; i < ncs; ++i) {
                if (ctlRan_[i]) {
                    ctlRan_[i] = 0;
                    Span s(gCtx->ctlEngine);
                    const Tick w = controllers_[i]->nextWake(t);
                    ctlWake_[i] = w <= t ? t + 1 : w;
                }
                next = std::min(next, ctlWake_[i]);
            }
            for (std::size_t j = 0; j < nks; ++j) {
                if (coreRan_[j]) {
                    coreRan_[j] = 0;
                    Span s(gCtx->coreEngine);
                    const Tick w = injector_ ? injector_->nextWake(t)
                                             : cores_[j]->nextWake(t);
                    coreWake_[j] = w <= t ? t + 1 : w;
                }
                next = std::min(next, coreWake_[j]);
            }
            now_ = std::max(next, t + 1);
        }

        for (std::size_t i = 0; i < ncs; ++i)
            ctlCatchUp(i, end);
        for (std::size_t j = 0; j < nks; ++j)
            coreCatchUp(j, end);
        eventRun_ = false;
    }

    void
    ctlCatchUp(std::size_t i, Tick t)
    {
        if (ctlNext_[i] < t) {
            Span s(gCtx->ctlEngine);
            ++gCtx->ctlSkipCalls;
            gCtx->ctlSkippedTicks += t - ctlNext_[i];
            controllers_[i]->skipTicks(ctlNext_[i], t - ctlNext_[i]);
            ctlNext_[i] = t;
        }
    }

    void
    coreCatchUp(std::size_t j, Tick t)
    {
        if (coreNext_[j] < t) {
            Span s(gCtx->coreEngine);
            if (injector_)
                injector_->skipTicks(t - coreNext_[j]);
            else
                cores_[j]->skipTicks(t - coreNext_[j]);
            coreNext_[j] = t;
        }
    }

    void
    onRefreshSpan(ChannelId ch, Tick start, Tick end)
    {
        const std::size_t c = static_cast<std::size_t>(ch);
        if (end <= refBusyUntil_[c])
            return;
        const Tick s = std::max(start, refBusyUntil_[c]);
        Tick others = 0;
        for (std::size_t o = 0; o < refBusyUntil_.size(); ++o) {
            if (o != c)
                others = std::max(others, refBusyUntil_[o]);
        }
        if (others > s) {
            controllers_[c]->channel().addRefOverlapTicks(
                std::min(end, others) - s);
        }
        refBusyUntil_[c] = end;
    }

    SystemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<AddressMap> map_;
    Tick now_ = 0;
    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<TrafficInjector> injector_;
    std::vector<LatencyHistogram> tenantLat_;
    std::vector<std::unique_ptr<ChannelController>> controllers_;
    std::vector<Tick> refBusyUntil_;
    std::vector<Tick> ctlWake_, ctlNext_, coreWake_, coreNext_;
    std::vector<std::uint8_t> ctlRan_, coreRan_;
    bool eventRun_ = false;
};

/** Layer counters summed over the traced runs' measurement windows. */
struct WindowTotals
{
    double runs = 0.0;
    double ctlTicks = 0.0;  ///< Channel-ticks measured.
    double demandCmds = 0.0;
    double readQOcc = 0.0;
    double writebackTicks = 0.0;
    double refreshCmds = 0.0;
    double postponed = 0.0;
    double pulledIn = 0.0;
    double refreshBusy = 0.0;
    double srTicks = 0.0;
    double rankTicks = 0.0;
    double readStall = 0.0;
    double cpuCycles = 0.0;
    double generated = 0.0;
    double injected = 0.0;
    double backlog = 0.0;  ///< Sum over runs of mean total backlog.
};

/**
 * Runner::run / runTraffic on a TracedSystem: same warmup, reset,
 * measure and result assembly (alone IPCs from the untraced config,
 * whose baselines the setup already cached).
 */
RunResult
tracedPoint(Runner &runner, const Point &p, WindowTotals &tot)
{
    const SystemConfig plain = Runner::makeSystemConfig(p.cfg);
    SystemConfig sys = plain;
    sys.mem.policy = tracedPolicy(plain.mem.policy);
    sys.mem.addressMap = tracedMap(plain.mem.addressMap);

    TracedSystem system(sys, p.mix.benchIdx);
    system.run(runner.warmupTicks());
    system.resetStats();
    system.run(runner.measureTicks());

    RunResult res;
    if (!system.injector()) {
        for (const auto &core : system.cores())
            res.ipc.push_back(core->stats().ipc());
        for (int bench : p.mix.benchIdx)
            res.aloneIpc.push_back(runner.aloneIpc(bench, plain));
        res.ws = weightedSpeedup(res.ipc, res.aloneIpc);
        res.hs = harmonicSpeedup(res.ipc, res.aloneIpc);
        res.maxSlowdown = maxSlowdown(res.ipc, res.aloneIpc);
    }

    // Runner's collectChannelStats(), plus the layer counters.
    const EnergyParams &energy =
        DramSpecRegistry::instance().at(plain.mem.dramSpec).energy;
    double totalNj = 0.0;
    double accesses = 0.0;
    for (const auto &ctl : system.controllers()) {
        const ChannelStats &cs = ctl->channel().stats();
        totalNj += channelEnergy(cs, system.timing(), energy).totalNj();
        accesses += static_cast<double>(cs.reads + cs.writes);
        res.refAb += cs.refAb;
        res.refPb += cs.refPb;
        res.refSb += cs.refSb;
        res.refPbHidden += cs.refPbHidden;
        res.srEnters += cs.srEnter;
        res.srExits += cs.srExit;
        res.srTicks += cs.srTicks;
        res.refOverlapTicks += cs.refOverlapTicks;
        res.readsCompleted += ctl->stats().readsCompleted;
        res.writesIssued += ctl->stats().writesIssued;
        res.readLatency.merge(ctl->stats().readLatency);

        const ControllerStats &st = ctl->stats();
        const RefreshSchedStats rs =
            TracedSystem::timedPolicy(*ctl).windowStats();
        tot.ctlTicks += static_cast<double>(st.ticks);
        tot.demandCmds += static_cast<double>(cs.acts + cs.reads + cs.writes);
        tot.readQOcc += static_cast<double>(st.readQueueOccupancySum);
        tot.writebackTicks += static_cast<double>(st.writebackModeTicks);
        tot.refreshCmds += static_cast<double>(cs.refAb + cs.refPb + cs.refSb);
        tot.postponed += static_cast<double>(rs.postponed);
        tot.pulledIn += static_cast<double>(rs.pulledIn);
        tot.refreshBusy += static_cast<double>(
            cs.refAbCycles + cs.refPbCycles + cs.refSbCycles);
        tot.srTicks += static_cast<double>(cs.srTicks);
        tot.rankTicks += static_cast<double>(cs.rankTotalTicks);
    }
    res.energyPerAccessNj = accesses > 0.0 ? totalNj / accesses : 0.0;
    tot.runs += 1.0;
    for (const auto &core : system.cores()) {
        tot.readStall += static_cast<double>(core->stats().readStallCycles);
        tot.cpuCycles += static_cast<double>(core->stats().cpuCycles);
    }

    if (const TrafficInjector *inj = system.injector()) {
        // Runner::runTraffic()'s tenant block.
        double minMean = 0.0;
        bool haveMean = false;
        double backlog = 0.0;
        res.tenants.resize(static_cast<std::size_t>(inj->tenants()));
        for (int i = 0; i < inj->tenants(); ++i) {
            TenantResult &t = res.tenants[static_cast<std::size_t>(i)];
            const TrafficInjector::TenantStats &ts = inj->tenantStats(i);
            const LatencyHistogram &lat = system.tenantLatency(i);
            t.priority = inj->tenantPriority(i);
            t.generated = ts.generated;
            t.injected = ts.injected;
            t.reads = lat.count();
            t.avgBacklog = ts.ticks
                ? static_cast<double>(ts.backlogSum) /
                    static_cast<double>(ts.ticks)
                : 0.0;
            t.meanLatency = lat.mean();
            t.p50 = lat.percentile(50.0);
            t.p99 = lat.percentile(99.0);
            t.p999 = lat.percentile(99.9);
            if (lat.count() > 0 && (!haveMean || t.meanLatency < minMean)) {
                minMean = t.meanLatency;
                haveMean = true;
            }
            tot.generated += static_cast<double>(ts.generated);
            tot.injected += static_cast<double>(ts.injected);
            backlog += t.avgBacklog;
        }
        tot.backlog += backlog;
        res.tenantFairness = 0.0;
        for (TenantResult &t : res.tenants) {
            if (t.reads > 0 && haveMean && minMean > 0.0) {
                t.slowdown = t.meanLatency / minMean;
                res.tenantFairness = std::max(res.tenantFairness, t.slowdown);
            }
        }
    }
    return res;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

LayerReport
tracedRun(Runner &runner, const WorkloadDef &w,
          const std::vector<std::size_t> &sample, double aloneIpcSeconds)
{
    LayerReport rep;
    const std::size_t n = sample.size();

    // The System constructor alone, on the untraced configs.
    double buildSeconds = 0.0;
    for (std::size_t k : sample) {
        const Point &p = w.points[k];
        const SystemConfig sys = Runner::makeSystemConfig(p.cfg);
        const auto t0 = Clock::now();
        if (w.openLoop) {
            const System system(sys);
        } else {
            const System system(sys, p.mix.benchIdx);
        }
        buildSeconds += secondsSince(t0);
    }

    // Untraced reference pass, sharded like the timed leg.
    std::vector<RunResult> plain(n);
    std::vector<double> runSeconds(n, 0.0);
    const auto wall0 = Clock::now();
    parallelFor(w.jobs, n, [&](std::size_t i) {
        const auto t0 = Clock::now();
        plain[i] = runPoint(runner, w.points[sample[i]]);
        runSeconds[i] = secondsSince(t0);
    });
    const double wall = secondsSince(wall0);
    double plainSeconds = 0.0;
    for (double s : runSeconds)
        plainSeconds += s;

    // Traced pass, one thread (the span stack is process-global).
    const SpanCost cost = calibrate();
    TraceContext ctx;
    WindowTotals tot;
    gCtx = &ctx;
    double tracedSeconds = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        const RunResult traced = tracedPoint(runner, w.points[sample[i]], tot);
        tracedSeconds += secondsSince(t0);
        ++rep.transparencyChecks;
        if (signature(traced) != signature(plain[i])) {
            ++rep.transparencyFailures;
            std::printf("FAIL transparency: point %zu traced result differs "
                        "from the untraced run\n",
                        sample[i]);
        }
    }
    gCtx = nullptr;

    const double cycles =
        static_cast<double>(w.cyclesPerRun()) * static_cast<double>(n);
    const double refreshNs =
        inclusiveNs(ctx.refresh, cost) * static_cast<double>(ctx.refresh.calls);
    auto &m = rep.metrics;
    m["sim.run_ns_per_cycle"] = plainSeconds * 1e9 / cycles;
    m["sim.build_ms"] = buildSeconds * 1e3 / static_cast<double>(n);
    m["sim.alone_ipc_s"] = aloneIpcSeconds;
    m["sim.parallel_eff"] = plainSeconds /
        (wall * static_cast<double>(std::min<std::size_t>(
                    static_cast<std::size_t>(w.jobs), n)));
    // Every controller tick is executed or skipped, so executed +
    // skipped = cycles x channels.
    m["sim.ctl_exec_frac"] = ratio(static_cast<double>(ctx.ctlTick.calls),
                                   static_cast<double>(ctx.ctlTick.calls +
                                                       ctx.ctlSkippedTicks));
    m["sim.ctl_mean_skip"] = ratio(static_cast<double>(ctx.ctlSkippedTicks),
                                   static_cast<double>(ctx.ctlSkipCalls));
    m["controller.tick_ns"] = selfNs(ctx.ctlTick, cost);
    m["controller.demand_cmds_per_kcycle"] =
        ratio(tot.demandCmds * 1e3, tot.ctlTicks);
    m["controller.read_q_occ"] = ratio(tot.readQOcc, tot.ctlTicks);
    m["controller.writeback_frac"] = ratio(tot.writebackTicks, tot.ctlTicks);
    m["refresh.call_ns"] = inclusiveNs(ctx.refresh, cost);
    m["refresh.host_share"] = ratio(refreshNs, plainSeconds * 1e9);
    m["refresh.wake_now_frac"] =
        ratio(static_cast<double>(ctx.wakeNowCalls),
              static_cast<double>(ctx.wakeCalls));
    m["refresh.cmds_per_kcycle"] = ratio(tot.refreshCmds * 1e3, tot.ctlTicks);
    m["refresh.postponed"] = ratio(tot.postponed, tot.runs);
    m["refresh.pulled_in"] = ratio(tot.pulledIn, tot.runs);
    m["dram.decode_ns"] = inclusiveNs(ctx.decode, cost);
    m["dram.refresh_busy_frac"] = ratio(tot.refreshBusy, tot.rankTicks);
    m["dram.sr_resident_frac"] = ratio(tot.srTicks, tot.rankTicks);
    m["core.tick_ns"] = inclusiveNs(ctx.frontTick, cost);
    m["core.read_stall_frac"] = ratio(tot.readStall, tot.cpuCycles);
    m["workload.injector_tick_ns"] = w.openLoop
        ? selfNs(ctx.frontTick, cost)
        : inclusiveNs(ctx.traceNext, cost);
    m["workload.injected_frac"] = w.openLoop
        ? ratio(tot.injected, tot.generated)
        : ratio(static_cast<double>(ctx.enqueueAccepted),
                static_cast<double>(ctx.enqueueTries));
    m["workload.backlog_mean"] = ratio(tot.backlog, tot.runs);
    m["trace_overhead_pct"] = (tracedSeconds / plainSeconds - 1.0) * 100.0;

    std::printf("traced: %zu points, untraced %.3f s (wall %.3f s on %d "
                "workers), traced %.3f s, span cost %.1f/%.1f ns\n",
                n, plainSeconds, wall, w.jobs, tracedSeconds, cost.e1,
                cost.e2);
    const struct
    {
        const char *name;
        const Layer *layer;
    } layers[] = {{"loop", &ctx.loop},         {"ctl.tick", &ctx.ctlTick},
                  {"ctl.engine", &ctx.ctlEngine}, {"refresh", &ctx.refresh},
                  {"front.tick", &ctx.frontTick},
                  {"front.engine", &ctx.coreEngine},
                  {"trace.next", &ctx.traceNext},
                  {"enqueue", &ctx.enqueue},   {"decode", &ctx.decode}};
    for (const auto &l : layers) {
        std::printf("  span %-12s calls %12llu  total %9.3f ms  self %9.3f "
                    "ms\n",
                    l.name, static_cast<unsigned long long>(l.layer->calls),
                    l.layer->totalNs * 1e-6,
                    (l.layer->totalNs - l.layer->childNs) * 1e-6);
    }
    return rep;
}

} // namespace perfbench
