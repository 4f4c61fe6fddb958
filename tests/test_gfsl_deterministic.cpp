// Deterministic-interleaving tests: replay seeded schedules through the
// StepScheduler so split/merge/traversal races are exercised reproducibly,
// plus reader failure injection.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "sched/step_scheduler.h"

namespace gfsl::core {
namespace {

using sched::StepScheduler;
using simt::Team;

struct DetRunResult {
  std::set<Key> contents;
  bool valid = false;
  std::string error;
};

// Two teams churn overlapping keys under a seeded deterministic schedule.
DetRunResult run_schedule(std::uint64_t sched_seed) {
  device::DeviceMemory mem;
  StepScheduler sched(StepScheduler::Mode::Deterministic, sched_seed, 2);
  GfslConfig cfg;
  cfg.team_size = 8;  // small chunks: many splits/merges in few ops
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, &sched);

  std::vector<std::thread> threads;
  std::vector<std::set<Key>> mine(2);
  std::atomic<int> inconsistencies{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 5);
      Xoshiro256ss rng(derive_seed(71, static_cast<std::uint64_t>(t)));
      sched.enter(t);
      for (int i = 0; i < 150; ++i) {
        // Per-team key space so per-key semantics are checkable.
        const Key k = static_cast<Key>(1 + t * 1'000 + rng.below(40));
        if (rng.below(2) == 0) {
          if (sl.insert(team, k, 0) != mine[static_cast<std::size_t>(t)].insert(k).second) {
            ++inconsistencies;
          }
        } else {
          if (sl.erase(team, k) !=
              (mine[static_cast<std::size_t>(t)].erase(k) > 0)) {
            ++inconsistencies;
          }
        }
      }
      sched.leave(t);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(inconsistencies.load(), 0);

  DetRunResult r;
  const auto rep = sl.validate(/*strict=*/false);
  r.valid = rep.ok;
  r.error = rep.error;
  for (const auto& [k, v] : sl.collect()) r.contents.insert(k);

  std::set<Key> expected;
  for (const auto& s : mine) expected.insert(s.begin(), s.end());
  EXPECT_EQ(r.contents, expected);
  return r;
}

TEST(GfslDeterministic, SeedSweepKeepsInvariants) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto r = run_schedule(seed);
    EXPECT_TRUE(r.valid) << "seed " << seed << ": " << r.error;
  }
}

TEST(GfslDeterministic, SameSeedSameFinalState) {
  const auto a = run_schedule(424242);
  const auto b = run_schedule(424242);
  EXPECT_EQ(a.contents, b.contents);
  EXPECT_TRUE(a.valid) << a.error;
}

TEST(GfslDeterministic, KilledReaderLeavesStructureIntact) {
  // A lock-free Contains holds no locks; killing it mid-traversal must not
  // perturb the structure or block the writer.
  device::DeviceMemory mem;
  StepScheduler sched(StepScheduler::Mode::Deterministic, 9, 2);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, &sched);

  std::atomic<bool> reader_killed{false};
  sched.kill_at(/*id=*/1, /*step=*/200);

  std::thread writer([&] {
    Team team(8, 0, 1);
    sched.enter(0);
    for (Key k = 1; k <= 120; ++k) {
      ASSERT_TRUE(sl.insert(team, k, k));
    }
    sched.leave(0);
  });
  std::thread reader([&] {
    Team team(8, 1, 2);
    sched.enter(1);
    try {
      for (int i = 0; i < 100'000; ++i) {
        sl.contains(team, static_cast<Key>(1 + (i % 200)));
      }
      sched.leave(1);
    } catch (const sched::TeamKilled&) {
      reader_killed = true;  // abandoned mid-operation, locks untouched
    }
  });
  writer.join();
  reader.join();
  EXPECT_TRUE(reader_killed.load());

  const auto rep = sl.validate();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(sl.size(), 120u);
  // A fresh team can still do everything (no lock was leaked).
  Team after(8, 0, 3);
  EXPECT_TRUE(sl.contains(after, 60));
  EXPECT_TRUE(sl.insert(after, 500, 0));
  EXPECT_TRUE(sl.erase(after, 500));
}

TEST(GfslDeterministic, WriterAndReaderInterleaved) {
  // The reader observes a monotonically growing key sequence: once it has
  // seen key k (inserted in ascending order), k must never disappear.
  device::DeviceMemory mem;
  StepScheduler sched(StepScheduler::Mode::Deterministic, 31, 2);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, &sched);

  constexpr Key kMax = 100;
  std::atomic<Key> watermark{0};  // highest key surely inserted
  std::atomic<int> violations{0};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    Team team(8, 0, 1);
    sched.enter(0);
    for (Key k = 1; k <= kMax; ++k) {
      ASSERT_TRUE(sl.insert(team, k, 0));
      watermark.store(k, std::memory_order_release);
    }
    done = true;
    sched.leave(0);
  });
  std::thread reader([&] {
    Team team(8, 1, 2);
    sched.enter(1);
    Xoshiro256ss rng(3);
    while (!done.load(std::memory_order_acquire)) {
      const Key w = watermark.load(std::memory_order_acquire);
      if (w == 0) {
        sl.contains(team, 1);  // keep yielding so the writer advances
        continue;
      }
      const Key k = static_cast<Key>(1 + rng.below(w));
      if (!sl.contains(team, k)) ++violations;
    }
    sched.leave(1);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_TRUE(sl.validate().ok);
}

TEST(GfslDeterministic, RaisedSplitKeyNeverOutlivesItsBottomCopy) {
  // A level-0 split that puts the new key in the old half raises the fresh
  // chunk's first key, which the inserter's bottom lock does not cover.
  // Were the fresh chunk unlocked before the raise, an erase of that key
  // could probe the upper levels first and leave the raised copy with no
  // key below it; its down pointer then overshoots every search in
  // [key, next key), which restarts forever.  Three teams churn one shared
  // key range; with the fresh chunk released early, seeds 26, 44 and 47
  // strand a key.  The watchdog turns a livelock into a failure.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    device::DeviceMemory mem;
    StepScheduler sched(StepScheduler::Mode::Deterministic, seed, 3);
    sched.kill_all_at(1'000'000);  // a clean run takes under 7,000 steps
    GfslConfig cfg;
    cfg.team_size = 8;
    cfg.pool_chunks = 1u << 12;
    Gfsl sl(cfg, &mem, &sched);

    std::atomic<int> hung{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        Team team(8, t, 5 + seed);
        Xoshiro256ss rng(derive_seed(seed, static_cast<std::uint64_t>(t)));
        sched.enter(t);
        try {
          for (int i = 0; i < 150; ++i) {
            const Key k = static_cast<Key>(1 + rng.below(32));
            if (rng.below(2) == 0) {
              sl.insert(team, k, k);
            } else {
              sl.erase(team, k);
            }
          }
          sched.leave(t);
        } catch (const sched::TeamKilled&) {
          ++hung;
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(hung.load(), 0) << "seed " << seed << ": livelock";
    const auto rep = sl.validate(/*strict=*/true);
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
  }
}

}  // namespace
}  // namespace gfsl::core
