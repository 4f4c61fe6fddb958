// Unit tests: memory pool, cache simulator, coalescing/transaction counting,
// and the per-set / per-thread-shard concurrency of the device layer.
#include <gtest/gtest.h>

#include <new>
#include <thread>
#include <vector>

#include "common/random.h"
#include "device/cache_sim.h"
#include "device/device_memory.h"
#include "device/memory_pool.h"
#include "harness/rig.h"
#include "harness/runner.h"
#include "harness/workload.h"

namespace gfsl::device {
namespace {

TEST(MemoryPool, BumpAllocationAndAddresses) {
  MemoryPool<std::uint64_t> pool(16);
  EXPECT_EQ(pool.alloc(), 0u);
  EXPECT_EQ(pool.alloc(), 1u);
  EXPECT_EQ(pool.allocated(), 2u);
  EXPECT_EQ(pool.device_address(3), 24u);
}

TEST(MemoryPool, ExhaustionReturnsNullIndex) {
  MemoryPool<int> pool(2);
  pool.alloc();
  pool.alloc();
  EXPECT_FALSE(pool.can_alloc());
  EXPECT_EQ(pool.alloc(), MemoryPool<int>::kNullIndex);
  pool.reset();
  EXPECT_TRUE(pool.can_alloc(2));
}

TEST(MemoryPool, FreeListRecyclesLifo) {
  MemoryPool<int> pool(2);
  const auto a = pool.alloc();
  const auto b = pool.alloc();
  EXPECT_EQ(pool.allocated(), 2u);
  pool.free(a);
  pool.free(b);
  EXPECT_EQ(pool.allocated(), 0u);
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_TRUE(pool.can_alloc(2));
  // LIFO: the most recently freed index comes back first; the bump
  // high-water mark never moves once indices recycle.
  EXPECT_EQ(pool.alloc(), b);
  EXPECT_EQ(pool.alloc(), a);
  EXPECT_EQ(pool.high_water(), 2u);
  EXPECT_EQ(pool.alloc(), MemoryPool<int>::kNullIndex);
}

TEST(CacheSim, HitsAfterFirstTouch) {
  CacheSim cache;
  EXPECT_FALSE(cache.access(0));   // cold miss
  EXPECT_TRUE(cache.access(0));    // hit
  EXPECT_TRUE(cache.access(64));   // same 128 B line
  EXPECT_FALSE(cache.access(128)); // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheSim, LruEvictionWithinSet) {
  CacheConfig cfg;
  cfg.capacity_bytes = 2 * 128;  // 2 lines total
  cfg.line_bytes = 128;
  cfg.associativity = 2;  // one set, 2 ways
  CacheSim cache(cfg);
  EXPECT_EQ(cache.num_sets(), 1u);
  cache.access(0 * 128);
  cache.access(1 * 128);
  cache.access(0 * 128);       // refresh line 0
  cache.access(2 * 128);       // evicts line 1 (LRU)
  EXPECT_TRUE(cache.access(0 * 128));
  EXPECT_FALSE(cache.access(1 * 128));  // was evicted
}

TEST(CacheSim, CapacityWorkingSetBehavior) {
  // A working set within capacity hits on re-scan; a 2x working set thrashes.
  CacheConfig cfg;
  cfg.capacity_bytes = 64 * 128;
  CacheSim small(cfg);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 64; ++i) small.access(static_cast<std::uint64_t>(i) * 128);
  }
  EXPECT_EQ(small.misses(), 64u);
  EXPECT_EQ(small.hits(), 64u);
}

TEST(CacheSim, InvalidateDropsEverything) {
  CacheSim cache;
  cache.access(0);
  cache.invalidate_all();
  EXPECT_FALSE(cache.access(0));
}

TEST(CacheSim, RejectsBadConfig) {
  CacheConfig cfg;
  cfg.line_bytes = 100;  // not a power of two
  EXPECT_THROW(CacheSim{cfg}, std::invalid_argument);
  cfg.line_bytes = 128;
  cfg.associativity = 0;
  EXPECT_THROW(CacheSim{cfg}, std::invalid_argument);
}

TEST(DeviceMemory, CoalescedChunkReadTransactions) {
  DeviceMemory mem;
  // A 256 B chunk read (GFSL-32) covers two 128 B lines -> 2 transactions.
  mem.warp_read(0, 256);
  auto s = mem.snapshot();
  EXPECT_EQ(s.warp_reads, 1u);
  EXPECT_EQ(s.transactions, 2u);
  EXPECT_EQ(s.dram_transactions, 2u);  // cold
  // A 128 B chunk read (GFSL-16) is a single transaction (§5.2).
  mem.reset_stats();
  mem.warp_read(512, 128);
  s = mem.snapshot();
  EXPECT_EQ(s.transactions, 1u);
}

TEST(DeviceMemory, UnalignedAccessSpansExtraLine) {
  DeviceMemory mem;
  mem.warp_read(64, 128);  // straddles two lines
  EXPECT_EQ(mem.snapshot().transactions, 2u);
}

TEST(DeviceMemory, LaneAccessesAreSingleTransactions) {
  DeviceMemory mem;
  // 32 scattered 8 B node reads (the M&C pattern) = 32 transactions...
  for (int i = 0; i < 32; ++i) {
    mem.lane_read(static_cast<std::uint64_t>(i) * 4096, 8);
  }
  auto s = mem.snapshot();
  EXPECT_EQ(s.lane_reads, 32u);
  EXPECT_EQ(s.transactions, 32u);
  // ...while the same 256 bytes in one coalesced access is 2.
  mem.reset_stats();
  mem.warp_read(1 << 20, 256);
  EXPECT_EQ(mem.snapshot().transactions, 2u);
}

TEST(DeviceMemory, L2HitClassification) {
  DeviceMemory mem;
  mem.warp_read(0, 128);
  mem.warp_read(0, 128);
  auto s = mem.snapshot();
  EXPECT_EQ(s.l2_hits, 1u);
  EXPECT_EQ(s.dram_transactions, 1u);
  EXPECT_EQ(s.bytes_moved, 256u);
}

TEST(DeviceMemory, AtomicsCountAndTouchCache) {
  DeviceMemory mem;
  mem.atomic_rmw(128);
  mem.atomic_rmw(128);
  auto s = mem.snapshot();
  EXPECT_EQ(s.atomics, 2u);
  EXPECT_EQ(s.l2_hits, 1u);
}

TEST(DeviceMemory, AccountingToggle) {
  DeviceMemory mem;
  mem.set_accounting(false);
  mem.warp_read(0, 256);
  mem.atomic_rmw(0);
  auto s = mem.snapshot();
  EXPECT_EQ(s.transactions, 0u);
  EXPECT_EQ(s.atomics, 0u);
  mem.set_accounting(true);
  mem.warp_read(0, 256);
  EXPECT_EQ(mem.snapshot().transactions, 2u);
}

TEST(DeviceMemory, StatsDiffOperator) {
  DeviceMemory mem;
  mem.warp_read(0, 256);
  const MemStats a = mem.snapshot();
  mem.warp_read(4096, 256);
  mem.atomic_rmw(0);
  const MemStats d = mem.snapshot() - a;
  EXPECT_EQ(d.warp_reads, 1u);
  EXPECT_EQ(d.atomics, 1u);
  EXPECT_EQ(d.transactions, 3u);
}

TEST(DeviceMemory, GTX970L2Geometry) {
  DeviceMemory mem;
  EXPECT_EQ(mem.cache().config().capacity_bytes, 1792ull * 1024);
  EXPECT_EQ(mem.cache().config().line_bytes, 128u);
  EXPECT_EQ(mem.cache().num_sets(), 896u);
}

// A textbook set-associative LRU with one global clock.  LRU order only
// compares stamps within a set, so CacheSim's per-set clocks must pick the
// same victims.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& cfg)
      : cfg_(cfg),
        sets_(static_cast<std::uint32_t>(cfg.capacity_bytes / cfg.line_bytes /
                                         cfg.associativity)),
        ways_(static_cast<std::size_t>(sets_) * cfg.associativity) {}

  bool access(std::uint64_t byte_addr) {
    const std::uint64_t line = byte_addr / cfg_.line_bytes;
    const std::uint64_t tag = line / sets_;
    Way* base = &ways_[(line % sets_) * cfg_.associativity];
    ++tick_;
    Way* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = tick_;
        return true;
      }
    }
    // The last empty way, else the least recently used one.
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
      if (!base[w].valid) victim = &base[w];
    }
    if (victim == nullptr) {
      victim = base;
      for (std::uint32_t w = 1; w < cfg_.associativity; ++w) {
        if (base[w].lru < victim->lru) victim = &base[w];
      }
    }
    *victim = Way{tag, tick_, true};
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  CacheConfig cfg_;
  std::uint32_t sets_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
};

TEST(CacheSim, MatchesGlobalClockReferenceLru) {
  // 200K seeded addresses over ~2x the L2's lines, with a hot region, so
  // every set sees hits, cold misses and evictions.  One invalidation in the
  // middle checks that refilling after a flush picks the same ways.
  const CacheConfig cfg;
  CacheSim cache(cfg);
  ReferenceLru ref(cfg);
  Xoshiro256ss rng(0xCAC4E);
  const std::uint64_t lines = 2 * cfg.capacity_bytes / cfg.line_bytes;
  std::vector<char> got, want;
  constexpr int kAccesses = 200'000;
  for (int i = 0; i < kAccesses; ++i) {
    if (i == kAccesses / 2) {
      cache.invalidate_all();
      ref = ReferenceLru(cfg);
    }
    const std::uint64_t line =
        rng.below(4) == 0 ? rng.below(lines / 16) : rng.below(lines);
    const std::uint64_t addr = line * cfg.line_bytes + rng.below(cfg.line_bytes);
    got.push_back(cache.access(addr) ? 1 : 0);
    want.push_back(ref.access(addr) ? 1 : 0);
  }
  ASSERT_EQ(got, want);
  std::uint64_t hits = 0;
  for (const char h : want) hits += static_cast<std::uint64_t>(h);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(kAccesses) - hits);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(cache.misses(), cfg.capacity_bytes / cfg.line_bytes);
}

TEST(DeviceMemory, ConcurrentTrafficCountsExactly) {
  // Four host threads issue known traffic on one device at once.  Each
  // thread's counts land in whatever shard its slot picks; after join the
  // snapshot must add up exactly, whatever the interleaving.
  DeviceMemory mem;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRounds = 20'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&mem, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) << 24;
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        const std::uint64_t a = base + (i % 4096) * 256;
        mem.warp_read(a, 256);        // 2 transactions
        mem.lane_write(a + 8, 8);     // 1 transaction
        mem.atomic_rmw(a);            // 1 transaction
        mem.prefetch(a + 4096, 256);  // no transaction
      }
    });
  }
  for (auto& th : pool) th.join();

  const MemStats s = mem.snapshot();
  const std::uint64_t n = kThreads * kRounds;
  EXPECT_EQ(s.warp_reads, n);
  EXPECT_EQ(s.lane_writes, n);
  EXPECT_EQ(s.atomics, n);
  EXPECT_EQ(s.prefetches, n);
  EXPECT_EQ(s.warp_writes, 0u);
  EXPECT_EQ(s.lane_reads, 0u);
  EXPECT_EQ(s.transactions, 4 * n);
  EXPECT_EQ(s.l2_hits + s.dram_transactions, s.transactions);
  EXPECT_EQ(s.bytes_moved, s.transactions * 128);
  EXPECT_EQ(mem.cache().hits() + mem.cache().misses(),
            s.transactions + 2 * n);  // prefetches touch the L2 too
  EXPECT_GT(s.l2_hits, 0u);

  mem.reset_stats();
  const MemStats z = mem.snapshot();
  EXPECT_EQ(z.transactions, 0u);
  EXPECT_EQ(z.warp_reads + z.lane_writes + z.atomics + z.prefetches, 0u);
}

MemStats deterministic_four_team_run() {
  constexpr int kTeams = 4;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 5,
                             kTeams);
  harness::Rig rig({.team_size = 8, .pool_chunks = 1u << 12}, {}, &sched);
  const auto wl = harness::make_workload(harness::kMix_20_20_60, 4096, 2000, 3);
  rig->bulk_load(harness::generate_prefill(wl));
  harness::RunConfig rc;
  rc.num_workers = kTeams;
  rc.scheduler = &sched;
  return harness::run_gfsl(rig.gfsl(), harness::generate_ops(wl), rc,
                           rig.mem())
      .kernel.mem;
}

TEST(DeviceMemory, DeterministicFourTeamRunReplaysExactly) {
  // Under the Deterministic scheduler four teams on four host threads still
  // interleave one step at a time, so the sharded counters and per-set L2
  // must sum to the same figures on every replay.
  const MemStats a = deterministic_four_team_run();
  const MemStats b = deterministic_four_team_run();
  EXPECT_GT(a.transactions, 0u);
  EXPECT_EQ(a.warp_reads, b.warp_reads);
  EXPECT_EQ(a.warp_writes, b.warp_writes);
  EXPECT_EQ(a.lane_reads, b.lane_reads);
  EXPECT_EQ(a.lane_writes, b.lane_writes);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.prefetches, b.prefetches);
}

}  // namespace
}  // namespace gfsl::device
