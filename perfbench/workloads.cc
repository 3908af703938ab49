/**
 * @file
 * The three benchmark workloads, their simulated metrics, and the
 * paper's qualitative ordering checks. Why each workload exists is in
 * README.md; the short version:
 *
 *   closed-paper-32gb  the paper's 8-core closed loop on the cycle
 *                      engine: host time goes to Core::tick, the
 *                      FR-FCFS pick and DARP's decisions.
 *   open-rw-tail       Poisson open loop with writes: no core model;
 *                      the injector, queues and write drain do the work.
 *   idle-sr-ddr5       nearly idle DDR5 with self-refresh on the event
 *                      engine: skip certificates and SRE/SRX dominate.
 */

#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>

#include "bench.hh"
#include "common/stats.hh"
#include "refresh/registry.hh"
#include "dram/timing.hh"
#include "sim/parallel.hh"

using namespace dsarp;

namespace perfbench {

namespace {

/** Open-loop seeds per (rate, mechanism): 2 x 3 x 17 = 102 runs. */
constexpr int kOpenReplicas = 17;

std::uint64_t
bits(double v)
{
    std::uint64_t out;
    static_assert(sizeof(out) == sizeof(v));
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

std::string
canonicalMech(const std::string &name)
{
    return RefreshPolicyRegistry::instance().at(name).name;
}

/** Closed loop: every mechanism over every mix, mix-major, with one
 *  simulator seed per mix shared by its mechanisms (paired runs). */
void
addClosedPoints(WorkloadDef &w, const RunConfig &base,
                const std::vector<Workload> &mixes, std::uint64_t seed)
{
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        for (const std::string &mech : w.mechs) {
            Point p;
            p.cfg = base;
            p.cfg.policy = mech;
            p.cfg.seed = SweepRunner::pointSeed(seed, m);
            p.mix = mixes[m];
            w.points.push_back(p);
        }
    }
}

/** Read latency of a closed-row access on an idle channel:
 *  ACT, tRCD, RD, tCL, then the burst. */
double
unloadedReadCycles(const RunConfig &cfg)
{
    SystemConfig sys = Runner::makeSystemConfig(cfg);
    RefreshPolicyRegistry::instance().resolve(sys.mem);
    sys.finalize();
    const TimingParams t = TimingParams::forConfig(sys.mem);
    return static_cast<double>((t.tRcd + t.tCl + t.tBl).count());
}

/**
 * Open-loop analogue of weighted speedup. A closed-loop core's term is
 * its shared IPC over its alone IPC; an open-loop tenant's is the
 * unloaded read latency over the tenant's mean read latency. Summed
 * over tenants, like WS.
 */
double
openLoopWs(const RunResult &r, double unloaded)
{
    double ws = 0.0;
    for (const TenantResult &t : r.tenants) {
        if (t.reads > 0)
            ws += unloaded / t.meanLatency;
    }
    return ws;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"closed-paper-32gb", "open-rw-tail", "idle-sr-ddr5"};
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, WorkloadDef &w)
{
    w = WorkloadDef{};
    w.name = name;
    if (name == "closed-paper-32gb") {
        // 6 mixes per intensity category x 5 mechanisms = 150 runs.
        w.jobs = 2;
        w.warmup = 10000;
        w.measure = 50000;
        for (const char *m : {"NoREF", "REFab", "REFpb", "DARP", "DSARP"})
            w.mechs.push_back(canonicalMech(m));
        RunConfig base;
        base.density = Density::k32Gb;
        base.dramSpec = "DDR3-1333";
        base.engine = "cycle";
        addClosedPoints(w, base, makeWorkloads(6, 8, seed), seed);
        return true;
    }
    if (name == "idle-sr-ddr5") {
        // 120 mixes from the 0%-intensive category x 3 mechanisms = 360:
        // the read tail here turns on rare self-refresh exits, so it
        // takes many mixes to settle.
        w.jobs = 1;
        w.warmup = 10000;
        w.measure = 60000;
        for (const char *m : {"REFab", "REFsb", "DSARP"})
            w.mechs.push_back(canonicalMech(m));
        RunConfig base;
        base.density = Density::k32Gb;
        base.dramSpec = "DDR5-4800";
        base.addressMap = "ddr5-subch";
        base.srIdleEntryCycles = 750;
        base.engine = "event";
        std::vector<Workload> idle;
        for (const Workload &mix : makeWorkloads(120, 8, seed)) {
            if (mix.categoryPct == 0)
                idle.push_back(mix);
        }
        addClosedPoints(w, base, idle, seed);
        return true;
    }
    if (name == "open-rw-tail") {
        // 2 rates x 3 mechanisms x 17 arrival seeds = 102 runs. Both
        // rates keep a bounded backlog for every mechanism (REFab
        // starves a tenant near 300 req/kcycle, DSARP near 400).
        w.openLoop = true;
        w.jobs = 1;
        w.warmup = 10000;
        w.measure = 50000;
        for (const char *m : {"REFab", "REFpb", "DSARP"})
            w.mechs.push_back(canonicalMech(m));
        for (const double rate : {100.0, 200.0}) {
            for (int r = 0; r < kOpenReplicas; ++r) {
                for (const std::string &mech : w.mechs) {
                    Point p;
                    p.cfg.density = Density::k32Gb;
                    p.cfg.dramSpec = "DDR4-2400";
                    p.cfg.engine = "cycle";
                    p.cfg.policy = mech;
                    p.cfg.traffic.mode = "poisson";
                    p.cfg.traffic.ratePerKilocycle = rate;
                    p.cfg.traffic.tenants = 4;
                    p.cfg.traffic.readPct = 60;
                    p.cfg.traffic.hotRowPct = 50.0;
                    p.cfg.seed = SweepRunner::pointSeed(
                        seed, static_cast<std::size_t>(r));
                    w.points.push_back(p);
                }
            }
        }
        return true;
    }
    return false;
}

void
prewarmBaselines(Runner &runner, const WorkloadDef &w, int jobs)
{
    if (w.openLoop)
        return;
    // One alone run per distinct benchmark: the baseline ignores the
    // mechanism and seed (see Runner::aloneIpc), so any point's config
    // stands for all of them.
    std::set<int> benches;
    for (const Point &p : w.points)
        benches.insert(p.mix.benchIdx.begin(), p.mix.benchIdx.end());
    const std::vector<int> list(benches.begin(), benches.end());
    const RunConfig &cfg = w.points.front().cfg;
    parallelFor(jobs, list.size(),
                [&](std::size_t i) { runner.aloneIpc(list[i], cfg); });
}

RunResult
runPoint(Runner &runner, const Point &p)
{
    return p.cfg.traffic.enabled() ? runner.runTraffic(p.cfg)
                                   : runner.run(p.cfg, p.mix);
}

std::string
signature(const RunResult &res)
{
    std::ostringstream out;
    out << std::hex << "ipc:";
    for (double v : res.ipc)
        out << ' ' << bits(v);
    out << " alone:";
    for (double v : res.aloneIpc)
        out << ' ' << bits(v);
    out << " ws=" << bits(res.ws) << " hs=" << bits(res.hs)
        << " maxSlowdown=" << bits(res.maxSlowdown)
        << " energy=" << bits(res.energyPerAccessNj)
        << " lat: n=" << res.readLatency.count()
        << " mean=" << bits(res.readLatency.mean())
        << " p50=" << bits(res.readLatency.percentile(50))
        << " p99=" << bits(res.readLatency.percentile(99))
        << " counters: " << res.readsCompleted << ' ' << res.writesIssued
        << ' ' << res.refAb << ' ' << res.refPb << ' ' << res.refSb << ' '
        << res.refPbHidden << ' ' << res.srEnters << ' ' << res.srExits
        << ' ' << res.srTicks << ' ' << res.refOverlapTicks << " tenants:";
    for (const TenantResult &t : res.tenants) {
        out << " [" << t.priority << ' ' << t.generated << ' ' << t.injected
            << ' ' << t.reads << ' ' << bits(t.avgBacklog) << ' '
            << bits(t.meanLatency) << ' ' << bits(t.p50) << ' '
            << bits(t.p99) << ' ' << bits(t.p999) << ' '
            << bits(t.slowdown) << ']';
    }
    out << " fairness=" << bits(res.tenantFairness);
    return out.str();
}

ModelMetrics
summarize(const WorkloadDef &w, const std::vector<RunResult> &results)
{
    // Per mechanism: the pooled read-latency histogram and the list of
    // per-run figures (WS, or the open-loop analogue), in point order.
    std::map<std::string, LatencyHistogram> pooled;
    std::map<std::string, std::vector<double>> ws, energy;
    std::map<std::string, std::map<double, LatencyHistogram>> byRate;
    const double unloaded =
        w.openLoop ? unloadedReadCycles(w.points.front().cfg) : 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &p = w.points[i];
        const RunResult &r = results[i];
        const std::string &mech = p.cfg.policy;
        pooled[mech].merge(r.readLatency);
        ws[mech].push_back(w.openLoop ? openLoopWs(r, unloaded) : r.ws);
        energy[mech].push_back(r.energyPerAccessNj);
        if (w.openLoop)
            byRate[mech][p.cfg.traffic.ratePerKilocycle].merge(
                r.readLatency);
    }

    ModelMetrics m;
    m.wsDsarpGmean = gmean(ws["DSARP"]);
    m.wsGainDsarpPct = (m.wsDsarpGmean / gmean(ws["REFab"]) - 1.0) * 100.0;
    m.readP50 = pooled["DSARP"].percentile(50);
    m.readP99 = pooled["DSARP"].percentile(99);
    m.p99CutDsarpPct =
        (1.0 - m.readP99 / pooled["REFab"].percentile(99)) * 100.0;
    m.energyNjPerAccess = mean(energy["DSARP"]);

    // The paper's qualitative order, by geometric-mean WS on the closed
    // loops and by pooled p99 at each rate on the open loop.
    const auto wsOrder = [&](const std::vector<const char *> &lowToHigh) {
        for (std::size_t i = 0; i + 1 < lowToHigh.size(); ++i) {
            const double lo = gmean(ws[lowToHigh[i]]);
            const double hi = gmean(ws[lowToHigh[i + 1]]);
            char buf[160];
            std::snprintf(buf, sizeof(buf), "WS %s %.4f <= %s %.4f",
                          lowToHigh[i], lo, lowToHigh[i + 1], hi);
            m.orderChecks.emplace_back(buf, lo <= hi);
        }
    };
    if (w.name == "closed-paper-32gb") {
        wsOrder({"REFab", "REFpb", "DSARP", "NoREF"});
    } else if (w.name == "idle-sr-ddr5") {
        wsOrder({"REFab", "REFsb", "DSARP"});
    } else {
        for (const auto &[rate, hist] : byRate["DSARP"]) {
            const double dsarp = hist.percentile(99);
            const double refab = byRate["REFab"][rate].percentile(99);
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "p99 at rate %.0f: DSARP %.0f < REFab %.0f", rate,
                          dsarp, refab);
            m.orderChecks.emplace_back(buf, dsarp < refab);
        }
    }
    return m;
}

} // namespace perfbench
