/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot paths:
 * address decode, FR-FCFS picks, and whole-system tick throughput per
 * refresh mechanism. These guard the simulation speed that the
 * experiment harnesses depend on.
 */

#include <benchmark/benchmark.h>

#include "controller/scheduler.hh"
#include "dram/address.hh"
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

/** Time FrFcfs::pick on @p queue at a frozen tick; the benchmark
 *  fails unless every call issues nothing. */
void
timePick(benchmark::State &state, const RequestQueue &queue,
         const Channel &channel, Tick now)
{
    const std::vector<std::uint8_t> no_bank(16, 0);
    const std::vector<std::uint8_t> no_rank(2, 0);
    if (FrFcfs::pick(queue, channel, now, no_bank, no_rank, 8).valid) {
        state.SkipWithError("a queued request is issuable");
        return;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(now);
        benchmark::DoNotOptimize(
            FrFcfs::pick(queue, channel, now, no_bank, no_rank, 8));
    }
}

void
BM_FrFcfsPickFullQueue(benchmark::State &state)
{
    // The worst-case full scan: both ranks sit in an all-bank refresh,
    // so no ACT is legal, and a refreshing bank stays eligible for
    // younger requests, so the pick tests every one of the 64 entries.
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

void
SystemTicks(benchmark::State &state, RefreshMode mode, bool sarp)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.mem.density = Density::k32Gb;
    cfg.mem.refresh = mode;
    cfg.mem.sarp = sarp;
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
    SystemTicks(state, RefreshMode::kNoRefresh, false);
}
BENCHMARK(BM_SystemTicks_NoRef);

void
BM_SystemTicks_RefAb(benchmark::State &state)
{
    SystemTicks(state, RefreshMode::kAllBank, false);
}
BENCHMARK(BM_SystemTicks_RefAb);

void
BM_SystemTicks_RefPb(benchmark::State &state)
{
    SystemTicks(state, RefreshMode::kPerBank, false);
}
BENCHMARK(BM_SystemTicks_RefPb);

void
BM_SystemTicks_Dsarp(benchmark::State &state)
{
    SystemTicks(state, RefreshMode::kDarp, true);
}
BENCHMARK(BM_SystemTicks_Dsarp);

} // namespace

BENCHMARK_MAIN();
