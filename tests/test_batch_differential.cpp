// Differential tests for the batch execution engine (DESIGN.md §10): every
// batch is replayed against a std::map oracle (tests/oracle.h) and both the
// element-wise outcomes and the final structure (via scan() and collect())
// must match — across randomized mixed batches, duplicate-key batches,
// batches spanning split/merge boundaries, and multi-team batched runs with
// and without epoch reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/gfsl.h"
#include "core/snapshot.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "harness/runner.h"
#include "oracle.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using gfsl::testing::MapOracle;
using gfsl::testing::SnapshotOracle;
using simt::Team;

Value value_of(Key k) { return static_cast<Value>(k * 31 + 7); }

/// One random op biased i:d:c = ins_pct : del_pct : rest.
Op random_op(Xoshiro256ss& rng, std::uint64_t key_range, int ins_pct,
             int del_pct) {
  const Key k = static_cast<Key>(1 + rng.below(key_range));
  const auto roll = static_cast<int>(rng.below(100));
  OpKind kind = OpKind::Contains;
  if (roll < ins_pct) {
    kind = OpKind::Insert;
  } else if (roll < ins_pct + del_pct) {
    kind = OpKind::Delete;
  }
  return Op{kind, k, kind == OpKind::Insert ? value_of(k) : Value{0}, 0};
}

std::vector<Op> random_batch(Xoshiro256ss& rng, std::size_t n,
                             std::uint64_t key_range, int ins_pct,
                             int del_pct) {
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops.push_back(random_op(rng, key_range, ins_pct, del_pct));
  }
  return ops;
}

/// Element-wise outcome check: every op executed and matches the oracle.
void expect_outcomes_match(const BatchResult& got,
                           const std::vector<std::uint8_t>& want,
                           const std::vector<Op>& ops) {
  ASSERT_EQ(got.outcomes.size(), want.size());
  EXPECT_FALSE(got.out_of_memory);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.outcomes[i], want[i])
        << "op " << i << " kind " << static_cast<int>(ops[i].kind) << " key "
        << ops[i].key;
  }
}

/// Final-structure check via the lock-free scan() — the ISSUE's acceptance
/// path — plus the quiescent collect() for value equality.
void expect_structure_matches(Gfsl& sl, Team& team, const MapOracle& oracle) {
  std::vector<std::pair<Key, Value>> scanned;
  sl.scan(team, MIN_USER_KEY, MAX_USER_KEY, scanned);
  EXPECT_EQ(scanned, oracle.collect());
  EXPECT_EQ(sl.collect(), oracle.collect());
  const auto rep = sl.validate(false);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(BatchDifferential, EmptyStructureMixedBatch) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem);
  Team team(sl.team_size(), 0, /*seed=*/42);
  MapOracle oracle;

  Xoshiro256ss rng(7);
  const auto ops = random_batch(rng, 300, 64, 30, 30);
  const BatchResult br = run_batch(sl, team, ops);
  expect_outcomes_match(br, oracle.apply_batch(ops), ops);
  expect_structure_matches(sl, team, oracle);
  EXPECT_EQ(br.stats.ops, ops.size());
}

TEST(BatchDifferential, RandomMixedBatchesMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    device::DeviceMemory mem;
    GfslConfig cfg;
    cfg.pool_chunks = 1u << 13;
    Gfsl sl(cfg, &mem);
    Team team(sl.team_size(), 0, seed);
    MapOracle oracle;

    // Prefill half the range, mirrored into the oracle.
    std::vector<std::pair<Key, Value>> prefill;
    for (Key k = 1; k <= 2048; k += 2) prefill.emplace_back(k, value_of(k));
    sl.bulk_load(prefill);
    oracle.preload(prefill);

    Xoshiro256ss rng(seed);
    for (int batch = 0; batch < 4; ++batch) {
      const auto ops = random_batch(rng, 512, 2048, 25, 25);
      const BatchResult br = run_batch(sl, team, ops);
      expect_outcomes_match(br, oracle.apply_batch(ops), ops);
    }
    expect_structure_matches(sl, team, oracle);
  }
}

TEST(BatchDifferential, DuplicateKeyHeavyBatches) {
  // Range 16 with 256 ops per batch: every key appears ~16 times per batch,
  // so per-key submission order is exercised hard.
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 10;
  Gfsl sl(cfg, &mem);
  Team team(sl.team_size(), 0, 3);
  MapOracle oracle;

  Xoshiro256ss rng(11);
  for (int batch = 0; batch < 6; ++batch) {
    const auto ops = random_batch(rng, 256, 16, 35, 35);
    const BatchResult br = run_batch(sl, team, ops);
    expect_outcomes_match(br, oracle.apply_batch(ops), ops);
  }
  expect_structure_matches(sl, team, oracle);
}

TEST(BatchDifferential, AllOpsOnOneKey) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.pool_chunks = 256;
  Gfsl sl(cfg, &mem);
  Team team(sl.team_size(), 0, 5);
  MapOracle oracle;

  const Key k = 1000;
  std::vector<Op> ops;
  Xoshiro256ss rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto roll = static_cast<int>(rng.below(3));
    const OpKind kind = roll == 0   ? OpKind::Insert
                        : roll == 1 ? OpKind::Delete
                                    : OpKind::Contains;
    ops.push_back(Op{kind, k, value_of(k), 0});
  }
  const BatchResult br = run_batch(sl, team, ops);
  expect_outcomes_match(br, oracle.apply_batch(ops), ops);
  expect_structure_matches(sl, team, oracle);
}

TEST(BatchDifferential, SubmissionOrderPreservedWithinKey) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.pool_chunks = 256;
  Gfsl sl(cfg, &mem);
  Team team(sl.team_size(), 0, 9);

  const Key k = 77;
  const std::vector<Op> ops{
      Op{OpKind::Contains, k, 0, 0},          // false: absent
      Op{OpKind::Insert, k, value_of(k), 0},  // true
      Op{OpKind::Insert, k, 999, 0},          // false: duplicate
      Op{OpKind::Contains, k, 0, 0},          // true
      Op{OpKind::Delete, k, 0, 0},            // true
      Op{OpKind::Delete, k, 0, 0},            // false: already gone
      Op{OpKind::Contains, k, 0, 0},          // false
      Op{OpKind::Insert, k, value_of(k), 0},  // true again
  };
  const BatchResult br = run_batch(sl, team, ops);
  const std::vector<std::uint8_t> want{0, 1, 0, 1, 1, 0, 0, 1};
  ASSERT_EQ(br.outcomes, want);
  // The first insert's value won; the duplicate's 999 must not have landed.
  const auto pairs = sl.collect();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(k, value_of(k)));
}

TEST(BatchDifferential, BatchesSpanningSplitMergeBoundaries) {
  // team_size 8 (6 data slots): a dense prefill then erase-heavy batches
  // drive chunks below the merge threshold constantly, and insert bursts
  // split them back — every shard crosses structural mutations.
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem);
  Team team(sl.team_size(), 0, 17);
  MapOracle oracle;

  std::vector<std::pair<Key, Value>> prefill;
  for (Key k = 1; k <= 600; ++k) prefill.emplace_back(k, value_of(k));
  sl.bulk_load(prefill);
  oracle.preload(prefill);

  Xoshiro256ss rng(17);
  for (int batch = 0; batch < 8; ++batch) {
    // Alternate erase-heavy and insert-heavy batches.
    const int ins = (batch % 2 == 0) ? 10 : 60;
    const int del = (batch % 2 == 0) ? 60 : 10;
    const auto ops = random_batch(rng, 384, 600, ins, del);
    const BatchResult br = run_batch(sl, team, ops, /*target_shard_ops=*/32);
    expect_outcomes_match(br, oracle.apply_batch(ops), ops);
  }
  expect_structure_matches(sl, team, oracle);
}

TEST(BatchDifferential, MultiTeamBatchedRunnerMatchesOracle) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 13;
  Gfsl sl(cfg, &mem);
  MapOracle oracle;

  std::vector<std::pair<Key, Value>> prefill;
  for (Key k = 2; k <= 4096; k += 4) prefill.emplace_back(k, value_of(k));
  sl.bulk_load(prefill);
  oracle.preload(prefill);

  Xoshiro256ss rng(23);
  const auto ops = random_batch(rng, 4096, 4096, 25, 25);

  harness::RunConfig rc;
  rc.num_workers = 4;
  rc.seed = 23;
  harness::BatchRunOptions bo;
  bo.batch_size = 1024;
  BatchResult br;
  const auto rr = harness::run_gfsl_batched(sl, ops, rc, mem, bo, &br);
  EXPECT_FALSE(rr.out_of_memory);

  expect_outcomes_match(br, oracle.apply_batch(ops), ops);
  Team team(sl.team_size(), 0, 1);
  expect_structure_matches(sl, team, oracle);
  EXPECT_EQ(br.stats.shard_sizes.size(), br.stats.shards);
}

TEST(BatchDifferential, MultiTeamChurnWithEpochsMatchesOracle) {
  device::DeviceMemory mem;
  device::EpochManager ep;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);
  MapOracle oracle;

  Xoshiro256ss rng(29);
  const auto ops = random_batch(rng, 6144, 512, 45, 45);

  harness::RunConfig rc;
  rc.num_workers = 4;
  rc.seed = 29;
  harness::BatchRunOptions bo;
  bo.batch_size = 1024;
  BatchResult br;
  const auto rr = harness::run_gfsl_batched(sl, ops, rc, mem, bo, &br);
  EXPECT_FALSE(rr.out_of_memory);

  expect_outcomes_match(br, oracle.apply_batch(ops), ops);
  Team team(sl.team_size(), 0, 1);
  expect_structure_matches(sl, team, oracle);
  // Pin-per-shard accounting actually happened.
  EXPECT_GT(br.stats.epoch_pins, 0u);
}

TEST(BatchDifferential, SingleTeamWithEpochsReclaims) {
  // Churny single-team batches under an EpochManager: outcomes must still
  // match the oracle, and the per-shard pins (with mid-shard refreshes) must
  // not prevent chunks from being recycled.
  device::DeviceMemory mem;
  device::EpochManager ep;
  GfslConfig cfg;
  cfg.team_size = 8;  // small chunks => constant merge/split churn
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep);
  Team team(sl.team_size(), 0, 31);
  MapOracle oracle;

  Xoshiro256ss rng(31);
  for (int batch = 0; batch < 12; ++batch) {
    const auto ops = random_batch(rng, 512, 512, 45, 45);
    const BatchResult br = run_batch(sl, team, ops);
    expect_outcomes_match(br, oracle.apply_batch(ops), ops);
    EXPECT_GT(br.stats.epoch_pins, 0u);
  }
  expect_structure_matches(sl, team, oracle);
  EXPECT_GT(sl.chunks_reclaimed(), 0u);
}

// --- MVCC snapshot differentials (DESIGN.md §13) ---------------------------
// A SnapshotOracle freezes the reference map the instant Gfsl::snapshot() is
// taken; however much batch or per-op traffic lands afterwards, scan_at over
// that snapshot must keep reproducing the frozen state exactly.

TEST(BatchDifferential, SnapshotsStayFrozenAcrossBatches) {
  device::DeviceMemory mem;
  device::EpochManager ep;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 12;
  SnapshotManager snaps(cfg.pool_chunks);
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep, nullptr, &snaps);
  Team team(sl.team_size(), 0, 41);
  MapOracle oracle;

  std::vector<std::pair<Key, Value>> prefill;
  for (Key k = 1; k <= 1024; k += 2) prefill.emplace_back(k, value_of(k));
  sl.bulk_load(prefill);
  oracle.preload(prefill);

  // One snapshot + frozen oracle per batch boundary; every batch of churn
  // must leave ALL earlier snapshots intact.
  std::vector<Snapshot> snapshots;
  std::vector<SnapshotOracle> frozen;
  Xoshiro256ss rng(41);
  for (int batch = 0; batch < 6; ++batch) {
    snapshots.push_back(sl.snapshot());
    frozen.emplace_back(oracle);
    const auto ops = random_batch(rng, 512, 1024, 35, 35);
    const BatchResult br = run_batch(sl, team, ops);
    expect_outcomes_match(br, oracle.apply_batch(ops), ops);
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      std::vector<std::pair<Key, Value>> got;
      ASSERT_EQ(sl.scan_at(team, snapshots[i], MIN_USER_KEY, MAX_USER_KEY, got),
                ScanAtStatus::kOk);
      EXPECT_EQ(got, frozen[i].expected_range(MIN_USER_KEY, MAX_USER_KEY))
          << "snapshot " << i << " drifted after batch " << batch;
      // Subrange + limit shapes must agree with the same frozen state.
      std::vector<std::pair<Key, Value>> sub;
      ASSERT_EQ(sl.scan_at(team, snapshots[i], 100, 400, sub, /*limit=*/37),
                ScanAtStatus::kOk);
      EXPECT_EQ(sub, frozen[i].expected_range(100, 400, 37));
    }
  }
  for (auto& s : snapshots) sl.release_snapshot(s);
  expect_structure_matches(sl, team, oracle);
  // A released snapshot is refused, not served stale data.
  std::vector<std::pair<Key, Value>> got;
  EXPECT_EQ(sl.scan_at(team, snapshots[0], MIN_USER_KEY, MAX_USER_KEY, got),
            ScanAtStatus::kSnapshotExpired);
}

TEST(BatchDifferential, SnapshotSeesNoneOrAllOfEachBatch) {
  // Batches commit under ONE revision: a scanner thread racing run_batch may
  // observe the structure only at batch boundaries.  Precompute every
  // boundary state; each concurrent scan_at harvest must equal one of them.
  device::DeviceMemory mem;
  device::EpochManager ep;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 12;
  SnapshotManager snaps(cfg.pool_chunks);
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep, nullptr, &snaps);
  MapOracle oracle;

  std::vector<std::pair<Key, Value>> prefill;
  for (Key k = 1; k <= 512; k += 2) prefill.emplace_back(k, value_of(k));
  sl.bulk_load(prefill);
  oracle.preload(prefill);

  constexpr int kBatches = 10;
  Xoshiro256ss rng(43);
  std::vector<std::vector<Op>> batches;
  std::vector<std::vector<std::pair<Key, Value>>> boundary;
  boundary.push_back(oracle.collect());
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(random_batch(rng, 384, 512, 40, 40));
    (void)oracle.apply_batch(batches.back());
    boundary.push_back(oracle.collect());
  }

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::string torn;  // first mismatch, diffed against the nearest boundary
  std::thread scanner([&] {
    Team stm(sl.team_size(), 1, 47);
    while (!done.load(std::memory_order_acquire)) {
      started.store(true, std::memory_order_release);
      Snapshot s = sl.snapshot();
      std::vector<std::pair<Key, Value>> got;
      if (sl.scan_at(stm, s, MIN_USER_KEY, MAX_USER_KEY, got) ==
          ScanAtStatus::kOk) {
        ++scans;
        bool hit = false;
        for (const auto& st : boundary) {
          if (got == st) {
            hit = true;
            break;
          }
        }
        if (!hit && mismatches.fetch_add(1) == 0) {
          // Postmortem: diff against the boundary with the fewest
          // symmetric differences so the failure names the torn keys.
          std::size_t best = SIZE_MAX, bi = 0;
          for (std::size_t i = 0; i < boundary.size(); ++i) {
            std::map<Key, Value> bm(boundary[i].begin(), boundary[i].end());
            std::size_t d = 0;
            for (const auto& [k, v] : got) {
              const auto it = bm.find(k);
              if (it == bm.end() || it->second != v) ++d;
            }
            std::map<Key, Value> gm(got.begin(), got.end());
            for (const auto& [k, v] : boundary[i]) {
              if (gm.find(k) == gm.end()) ++d;
            }
            if (d < best) {
              best = d;
              bi = i;
            }
          }
          std::ostringstream os;
          os << "snapshot rev " << s.rev << " harvested " << got.size()
             << " pairs; nearest boundary " << bi << " (size "
             << boundary[bi].size() << ", " << best << " diffs):";
          std::map<Key, Value> bm(boundary[bi].begin(), boundary[bi].end());
          std::map<Key, Value> gm(got.begin(), got.end());
          int shown = 0;
          for (const auto& [k, v] : gm) {
            const auto it = bm.find(k);
            if (it == bm.end()) {
              os << " extra<" << k << "," << v << ">";
            } else if (it->second != v) {
              os << " val<" << k << ":" << v << "!=" << it->second << ">";
            } else {
              continue;
            }
            if (++shown == 12) break;
          }
          for (const auto& [k, v] : bm) {
            if (gm.find(k) == gm.end()) {
              os << " missing<" << k << "," << v << ">";
              if (++shown == 24) break;
            }
          }
          torn = os.str();
        }
      }
      sl.release_snapshot(s);
    }
  });

  // The batches start only once the first scan has, so at least one scan
  // races them even when the scanner thread is slow to be scheduled.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  Team team(sl.team_size(), 0, 43);
  for (const auto& ops : batches) {
    const BatchResult br = run_batch(sl, team, ops);
    EXPECT_FALSE(br.out_of_memory);
  }
  done.store(true, std::memory_order_release);
  scanner.join();

  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u) << torn;
  expect_structure_matches(sl, team, oracle);
}

TEST(BatchDifferential, SnapshotFrozenUnderConcurrentPerOpChurn) {
  // Freeze a snapshot at a quiescent point, then hammer the structure with
  // concurrent per-op insert/erase workers while a scanner keeps comparing
  // scan_at against the frozen oracle.
  device::DeviceMemory mem;
  device::EpochManager ep;
  GfslConfig cfg;
  cfg.pool_chunks = 1u << 13;
  SnapshotManager snaps(cfg.pool_chunks);
  Gfsl sl(cfg, &mem, nullptr, nullptr, &ep, nullptr, &snaps);

  std::vector<std::pair<Key, Value>> prefill;
  for (Key k = 1; k <= 2048; k += 2) prefill.emplace_back(k, value_of(k));
  sl.bulk_load(prefill);

  Snapshot s = sl.snapshot();
  const SnapshotOracle frozen(sl.collect());

  constexpr int kWorkers = 3;
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Team team(sl.team_size(), w, 100 + static_cast<std::uint64_t>(w));
      Xoshiro256ss rng(200 + static_cast<std::uint64_t>(w));
      while (!done.load(std::memory_order_acquire)) {
        const Key k = static_cast<Key>(1 + rng.below(2048));
        if (rng.below(2) == 0) {
          sl.insert(team, k, value_of(k) + 1);
        } else {
          sl.erase(team, k);
        }
      }
    });
  }

  Team stm(sl.team_size(), kWorkers, 57);
  Xoshiro256ss srng(57);
  // Don't start comparing until the workers have actually mutated something,
  // or a heavily loaded machine lets all scans finish against an untouched
  // structure.
  while (snaps.records_created() == 0) std::this_thread::yield();
  std::string drift;  // first mismatch; asserted after the workers join
  for (std::uint64_t ok_scans = 0; ok_scans < 200 && drift.empty();
       ++ok_scans) {
    const Key lo = static_cast<Key>(1 + srng.below(2048));
    const Key hi = static_cast<Key>(std::min<std::uint64_t>(lo + 256, 2048));
    std::vector<std::pair<Key, Value>> got;
    const ScanAtStatus st = sl.scan_at(stm, s, lo, hi, got);
    if (st != ScanAtStatus::kOk) {
      drift = "scan_at status " + std::to_string(static_cast<int>(st));
    } else if (got != frozen.expected_range(lo, hi)) {
      drift = "snapshot drifted under churn in [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "]: got " +
              std::to_string(got.size()) + " pairs, want " +
              std::to_string(frozen.expected_range(lo, hi).size());
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  EXPECT_TRUE(drift.empty()) << drift;
  sl.release_snapshot(s);

  const auto rep = sl.validate(false);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(snaps.records_created(), 0u);
}

}  // namespace
}  // namespace gfsl::core
