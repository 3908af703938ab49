/**
 * @file
 * The full simulated system: cores driving synthetic traces through
 * per-channel memory controllers into the DRAM model.
 *
 * Most callers should not construct a System directly: the Simulation
 * facade (sim/simulation.hh) wraps construction, warmup, measurement,
 * metrics, and the energy model behind a fluent builder -- see
 * examples/quickstart.cpp. System remains public for code that needs
 * tick-level control or direct controller access.
 */

#ifndef DSARP_SIM_SYSTEM_HH
#define DSARP_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "controller/controller.hh"
#include "core/core.hh"
#include "core/trace.hh"
#include "dram/address.hh"
#include "dram/timing.hh"
#include "workload/arrival.hh"
#include "workload/benchmark.hh"

namespace dsarp {

class System
{
  public:
    /**
     * Build a system running one benchmark (by catalogue index) per core.
     * @p benchIdx must have cfg.numCores entries.
     */
    System(const SystemConfig &cfg, const std::vector<int> &benchIdx);

    /**
     * Build a system with caller-provided trace sources (one per core);
     * the sources must outlive the System.
     */
    System(const SystemConfig &cfg,
           const std::vector<TraceSource *> &traces);

    /**
     * Build an open-loop system: cfg.traffic must be enabled. The
     * TrafficInjector replaces the core models; per-tenant read
     * latencies accumulate in tenantLatency().
     */
    explicit System(const SystemConfig &cfg);

    /**
     * Advance the simulation by @p ticks DRAM cycles using the engine
     * selected by SystemConfig::engine ("cycle" or "event"); both
     * produce bit-identical commands, stats, and RNG streams.
     */
    void run(Tick ticks);

    /** Zero all measurement counters; microarchitectural state persists. */
    void resetStats();

    Tick now() const { return now_; }
    int numCores() const { return static_cast<int>(cores_.size()); }
    int numChannels() const
    {
        return static_cast<int>(controllers_.size());
    }

    const Core &core(int i) const { return *cores_[i]; }
    ChannelController &controller(int ch) { return *controllers_[ch]; }
    const ChannelController &controller(int ch) const
    {
        return *controllers_[ch];
    }

    const AddressMap &addressMap() const { return *map_; }
    const TimingParams &timing() const { return timing_; }
    const SystemConfig &config() const { return cfg_; }

    /** The open-loop front end (null in closed-loop runs). */
    const TrafficInjector *injector() const { return injector_.get(); }

    /** Per-tenant read-latency histogram (open-loop runs only). */
    const LatencyHistogram &tenantLatency(int i) const
    {
        return tenantLat_[i];
    }

    /** Per-core IPC over the current measurement window. */
    std::vector<double> coreIpc() const;

    /** Per-channel command logs (non-null only with enableChecker). */
    const std::vector<TimedCommand> &commandLog(int ch) const
    {
        return cmdLogs_[ch];
    }

  private:
    /** Tag of the shared initialiser the public constructors
     *  delegate to. */
    struct Init {};

    /** Finalize @p cfg, then derive the timing and the address map
     *  from it. */
    System(const SystemConfig &cfg, Init);

    void build();

    /**
     * The one enqueue path of every front end (cores and the traffic
     * injector): decode @p req, then hand it to its channel's read or
     * write queue. False when the queue is full.
     */
    bool enqueue(Request req, bool isWrite);

    void runCycle(Tick end);
    void runEvent(Tick end);
    /** Bulk-account a component's inert span [itsNext, t) (event engine). */
    void ctlCatchUp(std::size_t i, Tick t);
    void coreCatchUp(std::size_t j, Tick t);

    /**
     * Cross-channel refresh-overlap accounting: channel @p ch put a
     * refresh burst spanning [start, end) on its bus. Ticks the span
     * shares with a sibling channel's in-flight refresh are billed to
     * @p ch's ChannelStats::refOverlapTicks (the system-wide sum is
     * sum_t max(0, refreshing channels - 1): each arriving span bills
     * its intersection with the union of the others').
     */
    void onRefreshSpan(ChannelId ch, Tick start, Tick end);

    SystemConfig cfg_;
    TimingParams timing_;
    std::unique_ptr<AddressMap> map_;  ///< Registry-resolved interleave.
    Tick now_ = 0;

    std::vector<std::unique_ptr<SyntheticTrace>> ownedTraces_;
    std::vector<TraceSource *> traces_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<TrafficInjector> injector_;
    std::vector<LatencyHistogram> tenantLat_;
    std::vector<std::unique_ptr<ChannelController>> controllers_;
    std::vector<std::vector<TimedCommand>> cmdLogs_;

    /** Per-channel end of the latest refresh burst (onRefreshSpan). */
    std::vector<Tick> refBusyUntil_;

    /** @name Per-component clocks of the event engine (see runEvent()).
     *  wake = earliest tick the component must execute; next = first
     *  tick not yet accounted (executed or skipped). */
    /// @{
    std::vector<Tick> ctlWake_, ctlNext_, coreWake_, coreNext_;
    bool eventRun_ = false;
    /// @}
};

} // namespace dsarp

#endif // DSARP_SIM_SYSTEM_HH
