// Concurrency stress tests: multiple teams on OS threads hammering one
// structure.  Checks per-key result consistency (keys partitioned by team),
// global accounting (inserts − deletes == final size), and post-quiescence
// structural validity.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
#include "device/device_memory.h"

namespace gfsl::core {
namespace {

using simt::Team;

std::unique_ptr<Gfsl> make_list(device::DeviceMemory& mem, int team_size,
                                std::uint32_t pool = 1u << 17) {
  GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = pool;
  return std::make_unique<Gfsl>(cfg, &mem);
}

TEST(GfslConcurrent, DisjointKeyRangesStayConsistent) {
  device::DeviceMemory mem;
  auto sl = make_list(mem, 32);
  constexpr int kTeams = 4;
  constexpr int kOpsEach = 4'000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<std::set<Key>> finals(kTeams);

  for (int t = 0; t < kTeams; ++t) {
    threads.emplace_back([&, t] {
      Team team(32, t, 1234);
      Xoshiro256ss rng(derive_seed(55, static_cast<std::uint64_t>(t)));
      std::set<Key> mine;
      const Key base = static_cast<Key>(1 + t * 10'000'000);
      for (int i = 0; i < kOpsEach; ++i) {
        const Key k = base + static_cast<Key>(rng.below(300));
        switch (rng.below(3)) {
          case 0:
            if (sl->insert(team, k, k) != mine.insert(k).second) ++failures;
            break;
          case 1:
            if (sl->erase(team, k) != (mine.erase(k) > 0)) ++failures;
            break;
          default:
            if (sl->contains(team, k) != (mine.count(k) > 0)) ++failures;
            break;
        }
      }
      finals[static_cast<std::size_t>(t)] = std::move(mine);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-quiescence: exact global contents and structural invariants.
  std::set<Key> expected;
  for (const auto& s : finals) expected.insert(s.begin(), s.end());
  const auto got = sl->collect();
  ASSERT_EQ(got.size(), expected.size());
  auto it = expected.begin();
  for (std::size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, *it);
  }
  const auto rep = sl->validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(GfslConcurrent, OverlappingKeysAccounting) {
  device::DeviceMemory mem;
  auto sl = make_list(mem, 32);
  constexpr int kTeams = 4;
  constexpr int kOpsEach = 3'000;
  std::atomic<std::int64_t> net_inserted{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < kTeams; ++t) {
    threads.emplace_back([&, t] {
      Team team(32, t, 777);
      Xoshiro256ss rng(derive_seed(99, static_cast<std::uint64_t>(t)));
      std::int64_t net = 0;
      for (int i = 0; i < kOpsEach; ++i) {
        // Hot key range shared by all teams: real contention on chunks.
        const Key k = static_cast<Key>(1 + rng.below(150));
        if (rng.below(2) == 0) {
          if (sl->insert(team, k, t)) ++net;
        } else {
          if (sl->erase(team, k)) --net;
        }
      }
      net_inserted.fetch_add(net);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(static_cast<std::int64_t>(sl->size()), net_inserted.load());
  const auto rep = sl->validate(/*strict=*/false);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(GfslConcurrent, ReadersNeverMissStableKeys) {
  // Keys 1..N are inserted up front and never removed; writers churn a
  // disjoint range.  Lock-free readers must see every stable key, always.
  device::DeviceMemory mem;
  auto sl = make_list(mem, 16);
  constexpr Key kStable = 400;
  {
    Team boot(16, 99, 1);
    for (Key k = 1; k <= kStable; ++k) ASSERT_TRUE(sl->insert(boot, k, k));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};

  std::thread writer([&] {
    Team team(16, 0, 2);
    Xoshiro256ss rng(8);
    // Churn keys adjacent to the stable range so splits/merges constantly
    // move chunks the readers traverse through.
    for (int i = 0; i < 12'000; ++i) {
      const Key k = kStable + 1 + static_cast<Key>(rng.below(300));
      if (rng.below(2) == 0) {
        sl->insert(team, k, 0);
      } else {
        sl->erase(team, k);
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Team team(16, 10 + r, 3);
      Xoshiro256ss rng(derive_seed(6, static_cast<std::uint64_t>(r)));
      while (!stop.load(std::memory_order_acquire)) {
        const Key k = static_cast<Key>(1 + rng.below(kStable));
        if (!sl->contains(team, k)) ++misses;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0);
  EXPECT_TRUE(sl->validate(/*strict=*/false).ok);
}

TEST(GfslConcurrent, ConcurrentInsertOnlyThenExactContents) {
  device::DeviceMemory mem;
  auto sl = make_list(mem, 32);
  constexpr int kTeams = 4;
  constexpr Key kPerTeam = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTeams; ++t) {
    threads.emplace_back([&, t] {
      Team team(32, t, 10);
      // Interleaved key spaces (k % kTeams == t) so teams constantly insert
      // into the same chunks.
      for (Key i = 0; i < kPerTeam; ++i) {
        const Key k = 1 + i * kTeams + static_cast<Key>(t);
        ASSERT_TRUE(sl->insert(team, k, k));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sl->size(), static_cast<std::uint64_t>(kTeams) * kPerTeam);
  const auto got = sl->collect();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, static_cast<Key>(i + 1));  // dense 1..N
    ASSERT_EQ(got[i].second, got[i].first);
  }
  EXPECT_TRUE(sl->validate(/*strict=*/false).ok);
}

TEST(GfslConcurrent, ConcurrentDeleteOnlyDrainsExactly) {
  device::DeviceMemory mem;
  auto sl = make_list(mem, 32);
  constexpr Key kTotal = 6'000;
  {
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 1; k <= kTotal; ++k) pairs.emplace_back(k, 0);
    sl->bulk_load(pairs);
  }
  constexpr int kTeams = 4;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> deleted{0};
  for (int t = 0; t < kTeams; ++t) {
    threads.emplace_back([&, t] {
      Team team(32, t, 20);
      std::uint64_t mine = 0;
      for (Key k = 1 + static_cast<Key>(t); k <= kTotal; k += kTeams) {
        if (sl->erase(team, k)) ++mine;
      }
      deleted.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(deleted.load(), kTotal);
  EXPECT_EQ(sl->size(), 0u);
  EXPECT_TRUE(sl->validate(/*strict=*/false).ok);
}

TEST(GfslConcurrent, MixedTeamsContendOnSameKey) {
  // All teams fight over a handful of keys; every successful insert of key k
  // must be matched by exactly one successful delete before the next insert
  // can succeed.  Net count per key is 0 or 1 at the end.
  device::DeviceMemory mem;
  auto sl = make_list(mem, 32);
  constexpr int kTeams = 4;
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> net{0};
  for (int t = 0; t < kTeams; ++t) {
    threads.emplace_back([&, t] {
      Team team(32, t, 30);
      Xoshiro256ss rng(derive_seed(44, static_cast<std::uint64_t>(t)));
      std::int64_t mine = 0;
      for (int i = 0; i < 4'000; ++i) {
        const Key k = static_cast<Key>(1 + rng.below(5));  // 5 hot keys
        if (rng.below(2) == 0) {
          if (sl->insert(team, k, t)) ++mine;
        } else {
          if (sl->erase(team, k)) --mine;
        }
      }
      net.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(static_cast<std::int64_t>(sl->size()), net.load());
  EXPECT_LE(sl->size(), 5u);
  EXPECT_TRUE(sl->validate(/*strict=*/false).ok);
}

TEST(GfslConcurrent, ReaderNeverMissesAKeyShiftedUnderIt) {
  // One bottom chunk {-inf, 1, 2, 100}: inserting and erasing 50 shifts 100
  // one slot right and back, neither splitting nor merging.  A reader that
  // loads the erase shift's old slot (still 50) and then its new neighbour
  // (already cleared) would miss 100; the device reads a chunk at one
  // instant, and read_chunk's seqlock must give the host the same view.
  // Without it about half the runs of this loop miss 100.
  device::DeviceMemory mem;
  auto sl = make_list(mem, 8, 1u << 10);
  Team setup(8, 0, 1);
  for (const Key k : {1u, 2u, 100u}) ASSERT_TRUE(sl->insert(setup, k, k));

  std::atomic<bool> done{false};
  std::atomic<int> misses{0};
  std::thread reader([&] {
    Team team(8, 1, 2);
    while (!done.load(std::memory_order_relaxed)) {
      if (!sl->contains(team, 100)) misses.fetch_add(1);
    }
  });
  Team writer(8, 0, 3);
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(sl->insert(writer, 50, 50));
    ASSERT_TRUE(sl->erase(writer, 50));
  }
  done = true;
  reader.join();
  EXPECT_EQ(misses.load(), 0);
  EXPECT_TRUE(sl->validate().ok);
}

}  // namespace
}  // namespace gfsl::core
