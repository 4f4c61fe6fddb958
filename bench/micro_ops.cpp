// google-benchmark micro suite: costs of the cooperative primitives, chunk
// kernels and traversal building blocks in the simulator.  These measure
// *simulator* speed (host nanoseconds), useful for keeping the simulation
// itself fast; the modeled-GPU numbers come from the bench_runner campaigns
// and the table_* benches.  The metrics / flight-recorder / lease A/B arms
// are timed by the micro_ops and persist_overhead campaigns.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "baseline/mc_skiplist.h"
#include "common/random.h"
#include "harness/rig.h"
#include "simt/team.h"

namespace {

using namespace gfsl;

void BM_Ballot(benchmark::State& state) {
  simt::Team team(32, 0, 1);
  simt::LaneVec<bool> p(false);
  p[13] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(team.ballot(p));
  }
}
BENCHMARK(BM_Ballot);

void BM_Shfl(benchmark::State& state) {
  simt::Team team(32, 0, 1);
  simt::LaneVec<std::uint64_t> v;
  for (int i = 0; i < 32; ++i) v[i] = static_cast<std::uint64_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(team.shfl(v, 17));
  }
}
BENCHMARK(BM_Shfl);

struct GfslBench {
  GfslBench(int team_size, Key prefill, const harness::Attach& attach = {})
      : rig({.team_size = team_size, .pool_chunks = 1u << 16}, attach),
        team(team_size, 0, 1) {
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 1; k <= prefill; ++k) pairs.emplace_back(k * 2, k);
    rig->bulk_load(pairs);
  }
  harness::Rig rig;
  simt::Team team;
};

void BM_GfslContains(benchmark::State& state) {
  GfslBench b(static_cast<int>(state.range(0)), 10'000);
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.rig->contains(b.team, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_GfslContains)->Arg(16)->Arg(32);

void BM_GfslInsertErase(benchmark::State& state) {
  GfslBench b(32, 10'000);
  Key k = 50'001;
  for (auto _ : state) {
    b.rig->insert(b.team, k, 0);
    b.rig->erase(b.team, k);
    ++k;
  }
}
BENCHMARK(BM_GfslInsertErase);

// A/B partners with epoch reclamation attached: every op pins/unpins an
// epoch slot, traversal reads verify generation stamps, and erase-side
// merges retire chunks to limbo.  The delta against the detached loops is
// the fault-free EBR overhead (DESIGN.md §9 budgets it within noise for
// reads and a few percent for updates).
void BM_GfslInsertEraseWithEpochs(benchmark::State& state) {
  GfslBench b(32, 10'000, harness::Attach{.epochs = true});
  Key k = 50'001;
  for (auto _ : state) {
    b.rig->insert(b.team, k, 0);
    b.rig->erase(b.team, k);
    ++k;
  }
}
BENCHMARK(BM_GfslInsertEraseWithEpochs);

void BM_GfslContainsWithEpochs(benchmark::State& state) {
  GfslBench b(static_cast<int>(state.range(0)), 10'000,
              harness::Attach{.epochs = true});
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.rig->contains(b.team, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_GfslContainsWithEpochs)->Arg(16)->Arg(32);

void BM_GfslContainsNoAccounting(benchmark::State& state) {
  GfslBench b(32, 10'000);
  b.rig.mem().set_accounting(false);
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.rig->contains(b.team, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_GfslContainsNoAccounting);

void BM_McContains(benchmark::State& state) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 1u << 22;
  baseline::McSkiplist sl(cfg, &mem);
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 1; k <= 10'000; ++k) pairs.emplace_back(k * 2, k);
  sl.bulk_load(pairs, 1);
  baseline::McContext ctx(0);
  Key k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sl.contains(ctx, k));
    k = (k % 20'000) + 1;
  }
}
BENCHMARK(BM_McContains);

void BM_GfslScan(benchmark::State& state) {
  GfslBench b(32, 20'000);
  const auto width = static_cast<Key>(state.range(0));
  Key lo = 2;
  std::vector<std::pair<Key, Value>> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(b.rig->scan(b.team, lo, lo + width, out));
    lo = (lo % 30'000) + 2;
  }
  state.SetItemsProcessed(state.iterations() * (width / 2));
}
BENCHMARK(BM_GfslScan)->Arg(64)->Arg(1024);

void BM_GfslValidate(benchmark::State& state) {
  GfslBench b(32, static_cast<Key>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.rig->validate().ok);
  }
}
BENCHMARK(BM_GfslValidate)->Arg(1'000)->Arg(10'000);

void BM_CacheSimAccess(benchmark::State& state) {
  device::CacheSim cache;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr += 128;
  }
}
BENCHMARK(BM_CacheSimAccess);

// Teams on separate host threads reading chunks of one device at once.  With
// per-set L2 locks and per-thread counter shards, what raises the per-call
// cost from 1 to 4 threads is only the set records and ways the threads
// share; a global lock or shared counter would show as a much steeper rise.
void BM_WarpReadContended(benchmark::State& state) {
  static device::DeviceMemory mem;  // shared by every benchmark thread
  constexpr std::uint64_t kChunks = 1u << 16;  // 16 MB: most reads miss L2
  Xoshiro256ss rng(derive_seed(0xC0DE, static_cast<std::uint64_t>(
                                           state.thread_index())));
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.below(kChunks) * 256;
  std::size_t i = 0;
  for (auto _ : state) {
    mem.warp_read(addrs[i++ % addrs.size()], 256);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarpReadContended)->Threads(1)->Threads(4);

void BM_BulkLoad(benchmark::State& state) {
  const auto n = static_cast<Key>(state.range(0));
  for (auto _ : state) {
    GfslBench b(32, n);
    benchmark::DoNotOptimize(b.rig->size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BulkLoad)->Arg(1'000)->Arg(10'000);

}  // namespace
