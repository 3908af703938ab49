/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot paths:
 * address decode, FR-FCFS picks, the refresh policies' per-tick
 * decisions, and whole-system tick throughput per refresh mechanism.
 * These guard the simulation speed that the experiment harnesses
 * depend on.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "controller/queues.hh"
#include "controller/scheduler.hh"
#include "dram/address.hh"
#include "refresh/darp.hh"
#include "refresh/registry.hh"
#include "sim/system.hh"
#include "workload/benchmark.hh"

using namespace dsarp;

namespace {

void
BM_AddressDecode(benchmark::State &state)
{
    MemOrg org;
    AddressMap map(org);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(addr));
        addr = (addr + 8191 * 64) % map.capacityBytes();
    }
}
BENCHMARK(BM_AddressDecode);

void
BM_AddressRoundTrip(benchmark::State &state)
{
    MemOrg org;
    AddressMap map(org);
    Addr addr = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.encode(map.decode(addr)));
        addr = (addr + 12345 * 64) % map.capacityBytes();
    }
}
BENCHMARK(BM_AddressRoundTrip);

/** Time FrFcfs::pick on @p queue at a frozen tick with no bank
 *  blocked; the benchmark fails unless every call issues nothing. */
void
timePick(benchmark::State &state, const RequestQueue &queue,
         const Channel &channel, Tick now)
{
    const std::uint64_t no_block = 0;
    if (FrFcfs::pick(queue, channel, now, no_block, 8).valid) {
        state.SkipWithError("a queued request is issuable");
        return;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(now);
        benchmark::DoNotOptimize(
            FrFcfs::pick(queue, channel, now, no_block, 8));
    }
}

void
BM_FrFcfsPickFullQueue(benchmark::State &state)
{
    // A full 64-entry queue while both ranks sit in an all-bank
    // refresh, so no ACT is legal and the pick must reject all 16
    // banks. Without SARP the refresh holds each bank's ACT window, so
    // every bank is rejected on its own state, not per request.
    MemConfig cfg;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    Channel channel(&cfg, &timing);
    Command ref;
    ref.type = CommandType::kRefAb;
    for (RankId r = 0; r < 2; ++r) {
        ref.rank = r;
        channel.issue(ref, 0);
    }
    RequestQueue queue(64, 2, 8);
    for (int i = 0; i < 64; ++i) {
        Request req;
        req.id = i;
        req.loc.rank = i % 2;
        req.loc.bank = (i / 2) % 8;
        req.loc.row = 100 + i;
        queue.push(req);
    }
    timePick(state, queue, channel, 1);
}
BENCHMARK(BM_FrFcfsPickFullQueue);

void
BM_FrFcfsPickWriteDrain(benchmark::State &state)
{
    // The common slow pick: a write drain with nothing issuable. 48
    // writes spread over all 16 banks. Per rank, two rows are open but
    // inside tRCD, so their queued hits cannot issue a column command
    // yet (nor a PRE, inside tRAS); the six closed banks were
    // precharged recently, so each is still inside tRC or tRP and
    // cannot activate. Offsets are DDR3-1333 cycles before the pick.
    struct Plan
    {
        int act;  ///< ACT this many cycles before the pick.
        int pre;  ///< PRE this many cycles before it; 0 stays open.
    };
    static constexpr Plan kPlan[8] = {
        {60, 7}, {56, 5}, {52, 3}, {48, 1},  // Closed, inside tRP.
        {32, 8}, {28, 4},                    // Closed, inside tRC.
        {8, 0},  {4, 0},                     // Open, inside tRCD.
    };
    MemConfig cfg;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    Channel channel(&cfg, &timing);
    const Tick now = 100;
    std::vector<std::pair<Tick, Command>> cmds;
    for (RankId r = 0; r < 2; ++r) {
        for (BankId b = 0; b < 8; ++b) {
            Command cmd;
            cmd.type = CommandType::kAct;
            cmd.rank = r;
            cmd.bank = b;
            cmd.row = 100 + b;
            cmds.emplace_back(now - kPlan[b].act, cmd);
            if (kPlan[b].pre) {
                cmd.type = CommandType::kPre;
                cmds.emplace_back(now - kPlan[b].pre, cmd);
            }
        }
    }
    std::stable_sort(cmds.begin(), cmds.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &[tick, cmd] : cmds)
        channel.issue(cmd, tick);

    // Three writes per bank: two hits on the bank's ACT row (open on
    // the two open banks) and one to another row.
    RequestQueue queue(64, 2, 8);
    for (int i = 0; i < 48; ++i) {
        Request req;
        req.id = i;
        req.isWrite = true;
        req.loc.rank = i % 2;
        req.loc.bank = (i / 2) % 8;
        req.loc.row = i < 32 ? 100 + req.loc.bank : 200 + i;
        queue.push(req);
    }
    timePick(state, queue, channel, now);
}
BENCHMARK(BM_FrFcfsPickWriteDrain);

void
BM_FrFcfsPickEmptyQueue(benchmark::State &state)
{
    // A pick on an empty queue, frequent on lightly loaded channels.
    MemConfig cfg;
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    const Channel channel(&cfg, &timing);
    const RequestQueue queue(64, 2, 8);
    timePick(state, queue, channel, 1);
}
BENCHMARK(BM_FrFcfsPickEmptyQueue);

/**
 * The controller state a refresh policy reads, without a controller:
 * real read/write queues and a real channel, the drain flag set by
 * hand, so a decision can be timed on a frozen state.
 */
class FrozenView : public ControllerView
{
  public:
    FrozenView(const MemConfig *cfg, const TimingParams *timing)
        : channel_(cfg, timing),
          reads_(64, cfg->org.ranksPerChannel, cfg->org.banksPerRank),
          writes_(64, cfg->org.ranksPerChannel, cfg->org.banksPerRank)
    {}

    int
    pendingDemands(RankId r, BankId b) const override
    {
        return reads_.bankCount(r, b) + writes_.bankCount(r, b);
    }
    std::uint64_t
    demandBanks() const override
    {
        return reads_.busyBanks() | writes_.busyBanks();
    }
    bool inWritebackMode() const override { return writeback_; }
    Tick lastDemandActivity(RankId) const override { return 0; }
    const Channel &dram() const override { return channel_; }
    Rng &schedulerRng() override { return rng_; }

    Channel channel_;
    RequestQueue reads_;
    RequestQueue writes_;
    bool writeback_ = false;

  private:
    Rng rng_{1};
};

/** Time one tick's refresh decisions: urgent() then, as on a tick
 *  that issued nothing, opportunistic(). */
void
timeDecisions(benchmark::State &state, RefreshScheduler &policy, Tick now)
{
    std::vector<RefreshRequest> urgent;
    urgent.reserve(8);
    RefreshRequest opp;
    for (auto _ : state) {
        urgent.clear();
        benchmark::DoNotOptimize(now);
        policy.urgent(now, urgent);
        benchmark::DoNotOptimize(policy.opportunistic(now, opp));
        benchmark::DoNotOptimize(urgent.data());
        benchmark::ClobberMemory();
    }
}

void
BM_RefreshDecision_DarpIdle(benchmark::State &state)
{
    // An idle channel: nothing queued, nothing due, every bank holding
    // pull-in credit, but each rank has a REFpb in flight, so no
    // pull-in is legal and the probe rejects every candidate bank.
    MemConfig cfg;
    cfg.policy = "DARP";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    FrozenView view(&cfg, &timing);
    DarpScheduler darp(&cfg, &timing, &view);
    for (RankId r = 0; r < 2; ++r) {
        Command ref;
        ref.type = CommandType::kRefPb;
        ref.rank = r;
        ref.bank = 7;
        view.channel_.issue(ref, 0);
    }
    darp.tick(1);
    timeDecisions(state, darp, 1);
}
BENCHMARK(BM_RefreshDecision_DarpIdle);

void
BM_RefreshDecision_DarpWriteDrain(benchmark::State &state)
{
    // A write drain: 44 writes over all 16 banks, three per bank but
    // one on bank 5 of each rank, every bank closed and refreshable,
    // so the write-refresh choice weighs every bank's demand (bank 5
    // wins) and the idle pull-in finds none.
    MemConfig cfg;
    cfg.policy = "DARP";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    FrozenView view(&cfg, &timing);
    DarpScheduler darp(&cfg, &timing, &view);
    for (int i = 0; i < 48; ++i) {
        Request req;
        req.id = i;
        req.isWrite = true;
        req.loc.rank = i % 2;
        req.loc.bank = (i / 2) % 8;
        if (i < 16 || req.loc.bank != 5)
            view.writes_.push(req);
    }
    view.writeback_ = true;
    darp.tick(1);
    timeDecisions(state, darp, 1);
}
BENCHMARK(BM_RefreshDecision_DarpWriteDrain);

void
BM_RefreshDecision_SameBank(benchmark::State &state)
{
    // DDR5 REFsb on the canonical 2 x 32-bank channel (16 slices):
    // reads queued in the even bank groups, and each rank busy with a
    // slice refresh, so no pull-in of an odd group is legal.
    MemConfig cfg;
    cfg.dramSpec = "DDR5-4800";
    cfg.org.banksPerRank = 32;
    cfg.policy = "REFsb";
    RefreshPolicyRegistry::instance().resolve(cfg);
    cfg.finalize();
    const TimingParams timing = TimingParams::forConfig(cfg);
    FrozenView view(&cfg, &timing);
    DarpScheduler refsb(&cfg, &timing, &view);
    for (int i = 0; i < 32; ++i) {
        Request req;
        req.id = i;
        req.loc.rank = i % 2;
        req.loc.bank = (i / 2) % 4 * 8 + (i / 8) % 4;
        view.reads_.push(req);
    }
    for (RankId r = 0; r < 2; ++r) {
        Command ref;
        ref.type = CommandType::kRefSb;
        ref.rank = r;
        ref.bank = 7;
        view.channel_.issue(ref, 0);
    }
    refsb.tick(1);
    timeDecisions(state, refsb, 1);
}
BENCHMARK(BM_RefreshDecision_SameBank);

void
SystemTicks(benchmark::State &state, const char *policy)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.mem.density = Density::k32Gb;
    cfg.mem.policy = policy;
    std::vector<int> mix;
    for (int c = 0; c < 8; ++c)
        mix.push_back(intensiveBenchmarks()[c % 11]);
    System sys(cfg, mix);
    sys.run(5000);  // Warm the queues.
    for (auto _ : state)
        sys.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}

void
BM_SystemTicks_NoRef(benchmark::State &state)
{
    SystemTicks(state, "NoREF");
}
BENCHMARK(BM_SystemTicks_NoRef);

void
BM_SystemTicks_RefAb(benchmark::State &state)
{
    SystemTicks(state, "REFab");
}
BENCHMARK(BM_SystemTicks_RefAb);

void
BM_SystemTicks_RefPb(benchmark::State &state)
{
    SystemTicks(state, "REFpb");
}
BENCHMARK(BM_SystemTicks_RefPb);

void
BM_SystemTicks_Darp(benchmark::State &state)
{
    SystemTicks(state, "DARP");
}
BENCHMARK(BM_SystemTicks_Darp);

void
BM_SystemTicks_Dsarp(benchmark::State &state)
{
    SystemTicks(state, "DSARP");
}
BENCHMARK(BM_SystemTicks_Dsarp);

} // namespace

BENCHMARK_MAIN();
