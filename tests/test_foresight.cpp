// Foresight hint index (core/foresight.{h,cpp}; DESIGN.md §14): differential
// oracle equivalence of the attached vs detached paths, the per-consult
// hit/fallback accounting invariant, staleness-adversarial churn (merge
// zombies, recycled-chunk generation bumps, compact invalidation) between
// hint publication and use, the fresh-hint traversal bound, and the A/B
// determinism contract — a Gfsl constructed *without* a ForesightIndex runs
// the seed code path, and attaching one must not change any operation's
// result or the final contents.  Hinted updates must keep a real upper path:
// an update that touches an upper level descends for it on demand, so an
// armed index never reads more per op than the detached classic path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/foresight.h"
#include "core/gfsl.h"
#include "core/inspect.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::core {
namespace {

using gfsl::testing::MapOracle;
using simt::Team;

using Pairs = std::vector<std::pair<Key, Value>>;

Value value_of(Key k) { return static_cast<Value>(k * 31 + 7); }

Pairs ascending_pairs(Key first, Key last) {
  Pairs p;
  for (Key k = first; k <= last; ++k) p.emplace_back(k, value_of(k));
  return p;
}

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

bool apply_op(Gfsl& sl, Team& team, const Op& op) {
  switch (op.kind) {
    case OpKind::Insert:
      return sl.insert(team, op.key, op.value);
    case OpKind::Delete:
      return sl.erase(team, op.key);
    case OpKind::Contains:
      return sl.contains(team, op.key);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Differential oracle: attached and detached runs replay the same per-op
// stream and must agree with each other and with the std::map oracle on
// every single result and on the final contents.

TEST(ForesightDifferential, AttachedDetachedAndOracleAgree) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    device::DeviceMemory mem_a, mem_d;
    device::EpochManager epochs_a, epochs_d;
    // stride 1 / tiny threshold: every split/merge/recycle soon republishes,
    // so the stream constantly flips between hinted and fallback starts.
    ForesightIndex foresight(1u << 12, /*stride=*/1, /*rebuild_threshold=*/8);
    GfslConfig cfg;
    cfg.team_size = 8;
    cfg.pool_chunks = 1u << 12;
    Gfsl attached(cfg, &mem_a, nullptr, nullptr, &epochs_a, nullptr, nullptr,
                  &foresight);
    Gfsl detached(cfg, &mem_d, nullptr, nullptr, &epochs_d);
    MapOracle oracle;
    Team team_a(8, 0, 5);
    Team team_d(8, 0, 5);

    Xoshiro256ss rng(derive_seed(0xF5, seed));
    for (int i = 0; i < 1500; ++i) {
      const Op op = random_op(rng, /*key_range=*/160, /*ins=*/35, /*del=*/35);
      const bool want = oracle.apply(op);
      ASSERT_EQ(apply_op(attached, team_a, op), want)
          << "seed " << seed << " op " << i << " kind "
          << static_cast<int>(op.kind) << " key " << op.key
          << ": attached arm diverged from the oracle";
      ASSERT_EQ(apply_op(detached, team_d, op), want)
          << "seed " << seed << " op " << i << ": detached arm diverged";
    }

    // find() goes through the same hinted start; sweep the whole key space.
    const auto& state = oracle.state();
    for (Key k = 1; k <= 160; ++k) {
      const auto it = state.find(k);
      const std::optional<Value> got = attached.find(team_a, k);
      ASSERT_EQ(got.has_value(), it != state.end()) << "find(" << k << ")";
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second);
      }
    }

    EXPECT_EQ(attached.collect(), oracle.collect());
    EXPECT_EQ(detached.collect(), oracle.collect());
    const auto rep_a = attached.validate(/*strict=*/true);
    EXPECT_TRUE(rep_a.ok) << rep_a.error;
    const auto rep_d = detached.validate(/*strict=*/true);
    EXPECT_TRUE(rep_d.ok) << rep_d.error;
  }
}

// ---------------------------------------------------------------------------
// Accounting invariant: every consult records exactly one of hit/fallback,
// so hits + fallbacks == lookups and stale hints are a subset of fallbacks.

TEST(ForesightAccounting, StaticStructureEveryLookupIsAHit) {
  device::DeviceMemory mem;
  ForesightIndex foresight(1u << 12);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 2000));
  sl.foresight_prime(team);
  ASSERT_EQ(foresight.rebuilds(), 1u);
  ASSERT_GT(foresight.entries(), 0u);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  constexpr std::uint64_t kLookups = 600;
  Xoshiro256ss rng(0xACC1);
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(2500));  // hits and misses
    EXPECT_EQ(sl.contains(team, k), k <= 2000);
  }
  team.set_metrics(nullptr);

  const std::uint64_t hits = shard.counter(obs::kForesightHits);
  const std::uint64_t falls = shard.counter(obs::kForesightFallbacks);
  EXPECT_EQ(hits + falls, kLookups)
      << "a consult recorded neither or both of hit/fallback";
  EXPECT_EQ(hits, kLookups) << "published, static structure: no fallbacks";
  EXPECT_EQ(shard.counter(obs::kForesightStaleHints), 0u);
}

TEST(ForesightAccounting, ChurnKeepsHitPlusFallbackCoveringEveryConsult) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12, /*stride=*/1, /*rebuild_threshold=*/8);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  Xoshiro256ss rng(0xACC2);
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    apply_op(sl, team, random_op(rng, 128, 40, 40));
  }
  team.set_metrics(nullptr);

  const std::uint64_t hits = shard.counter(obs::kForesightHits);
  const std::uint64_t falls = shard.counter(obs::kForesightFallbacks);
  const std::uint64_t stale = shard.counter(obs::kForesightStaleHints);
  // Staleness restarts re-consult, so consults >= ops; the invariant is that
  // the two verdicts partition the consults and staleness implies fallback.
  EXPECT_GE(hits + falls, static_cast<std::uint64_t>(kOps));
  EXPECT_LE(stale, falls) << "a stale hint must always take the fallback";
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

// ---------------------------------------------------------------------------
// Staleness-adversarial: structural churn between a hint's publication and
// its consultation.  Correctness must never depend on hint freshness.

// Huge threshold and no invalidation: the primed table stays published (and
// increasingly wrong) across the churn, so consults keep dereferencing hints
// whose chunks were merged away or recycled since publication.
constexpr std::uint64_t kNeverRepublish = 1'000'000'000;

TEST(ForesightStaleness, MergeZombiesFallBackWithoutWrongAnswers) {
  device::DeviceMemory mem;
  // No EpochManager: merged-away chunks stay zombie with their published
  // generation intact — the gen-consistent-zombie shape, which validation
  // must reject (§9 ABA argument) even though the stamp matches.
  ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 1200));
  sl.foresight_prime(team);
  const std::uint64_t published = foresight.rebuilds();
  ASSERT_EQ(published, 1u);

  // Merge wave through [400, 800]: the hints into that region now name
  // zombies (or chunks whose coverage moved right underneath them).
  for (Key k = 400; k <= 800; ++k) ASSERT_TRUE(sl.erase(team, k));

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (Key k = 350; k <= 850; ++k) {
    EXPECT_EQ(sl.contains(team, k), k < 400 || k > 800) << "key " << k;
  }
  team.set_metrics(nullptr);

  EXPECT_EQ(foresight.rebuilds(), published) << "table republished mid-test";
  const std::uint64_t stale = shard.counter(obs::kForesightStaleHints);
  const std::uint64_t falls = shard.counter(obs::kForesightFallbacks);
  EXPECT_GT(stale, 0u) << "churned hints never went stale — test is inert";
  EXPECT_LE(stale, falls);
  EXPECT_EQ(shard.counter(obs::kForesightHits) + falls,
            static_cast<std::uint64_t>(850 - 350 + 1));
}

TEST(ForesightStaleness, RecycledChunkGenerationBumpFallsBack) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 1200));
  sl.foresight_prime(team);
  ASSERT_EQ(foresight.rebuilds(), 1u);

  // Drain a region, then churn elsewhere until the epoch machinery has
  // demonstrably recycled chunks: the drained region's hints now carry
  // generation stamps the arena has since bumped.
  obs::MetricsShard churn_shard;
  team.set_metrics(&churn_shard);
  for (Key k = 200; k <= 900; ++k) ASSERT_TRUE(sl.erase(team, k));
  Xoshiro256ss rng(0x9E4);
  for (int i = 0; i < 4000 &&
                  churn_shard.counter(obs::kChunkReclaims) == 0;
       ++i) {
    const Key k = static_cast<Key>(1000 + rng.below(4000));
    if (rng.below(2) == 0) {
      sl.insert(team, k, value_of(k));
    } else {
      sl.erase(team, k);
    }
  }
  team.set_metrics(nullptr);
  ASSERT_GT(churn_shard.counter(obs::kChunkReclaims), 0u)
      << "no chunk was recycled — the generation-bump path never ran";

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (Key k = 150; k <= 950; ++k) {
    EXPECT_EQ(sl.contains(team, k), k < 200 || k > 900) << "key " << k;
  }
  team.set_metrics(nullptr);

  EXPECT_EQ(foresight.rebuilds(), 1u) << "table republished mid-test";
  EXPECT_GT(shard.counter(obs::kForesightStaleHints), 0u);
  EXPECT_LE(shard.counter(obs::kForesightStaleHints),
            shard.counter(obs::kForesightFallbacks));
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ForesightStaleness, CompactInvalidatesAndTheNextOpRepublishes) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 800));
  sl.foresight_prime(team);
  ASSERT_EQ(foresight.rebuilds(), 1u);

  // Quiescent structural replacement: every published ref is garbage, so
  // compact must unpublish (rebuild_due again) rather than leave a table
  // whose gen-consistent entries point into a rebuilt pool.
  sl.compact();
  ASSERT_TRUE(foresight.rebuild_due());

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (Key k = 1; k <= 200; ++k) {
    EXPECT_TRUE(sl.contains(team, k)) << "key " << k;
  }
  team.set_metrics(nullptr);

  // The first consult after the invalidate republishes under its epoch pin;
  // later consults run hinted against the fresh table.
  EXPECT_EQ(foresight.rebuilds(), 2u);
  EXPECT_EQ(shard.counter(obs::kForesightRebuilds), 1u);
  EXPECT_GT(shard.counter(obs::kForesightHits), 0u);
  EXPECT_EQ(sl.collect(), ascending_pairs(1, 800));
}

// ---------------------------------------------------------------------------
// Fresh hints: a hinted lookup lands at-or-left within a stride of the
// enclosing chunk, so chunks read per traversal stays <= 2 (vs height+1 for
// the classic descent).

TEST(ForesightFreshness, FreshHintsReadAtMostTwoChunksPerTraversal) {
  device::DeviceMemory mem;
  ForesightIndex foresight(1u << 14);  // default stride 2
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 14;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 6000));
  sl.foresight_prime(team);

  obs::MetricsShard shard;
  team.set_metrics(&shard);
  Xoshiro256ss rng(0xF2E5);
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(1 + rng.below(6000));
    ASSERT_TRUE(sl.contains(team, k));
  }
  team.set_metrics(nullptr);

  // Nothing fell back (the prime published before any traffic), so the
  // traversal counters measure the hinted path alone: one validated jump
  // plus at most one lateral step at stride 2.
  ASSERT_EQ(shard.counter(obs::kForesightFallbacks), 0u);
  EXPECT_LE(sl.avg_chunks_per_traversal(), 2.0);
  EXPECT_GT(sl.avg_chunks_per_traversal(), 0.0);
}

// ---------------------------------------------------------------------------
// Hinted updates keep their upper path.  A hinted search records only the
// bottom chunk; an erase that hits, or an insert whose split raises, must
// descend for real per-level starts instead of walking each upper level
// from its head chunk.

// Live (non-zombie) user keys stored in `level`, ascending.
std::vector<Key> keys_at_level(const Gfsl& sl, int level) {
  std::vector<Key> out;
  for (const ChunkView& ch : GfslInspector(sl).level_chain(level, nullptr)) {
    if (ch.lock == kZombie) continue;
    for (const KV kv : ch.data) {
      if (kv_key(kv) != KEY_NEG_INF) out.push_back(kv_key(kv));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool at_any_level(const Gfsl& sl, Key k) {
  for (int l = 0; l < Gfsl::kMaxLevels; ++l) {
    const std::vector<Key> keys = keys_at_level(sl, l);
    if (std::binary_search(keys.begin(), keys.end(), k)) return true;
    if (keys.empty() && l > 0) break;
  }
  return false;
}

// Device reads per op of one seeded single-team 20/20/60 stream over a
// half-prefilled key range, with the index armed or detached.
double update_mix_reads_per_op(bool armed) {
  constexpr std::uint64_t kRange = 12'000;
  constexpr int kOps = 4'000;
  device::DeviceMemory mem;
  std::unique_ptr<ForesightIndex> foresight;
  if (armed) foresight = std::make_unique<ForesightIndex>(1u << 14);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 14;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr,
          foresight.get());
  Team team(8, 0, 5);

  Pairs prefill;
  for (Key k = 2; k <= static_cast<Key>(kRange); k += 2) {
    prefill.emplace_back(k, value_of(k));
  }
  sl.bulk_load(prefill);
  sl.foresight_prime(team);  // no-op when detached
  EXPECT_GE(sl.validate(/*strict=*/true).height, 3)
      << "too shallow for upper-level walks to cost anything";

  mem.reset_stats();
  Xoshiro256ss rng(0xC11F);
  for (int i = 0; i < kOps; ++i) {
    apply_op(sl, team, random_op(rng, kRange, /*ins=*/20, /*del=*/20));
  }
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
  return static_cast<double>(mem.snapshot().reads()) / kOps;
}

TEST(ForesightUpperPath, ArmedUpdateMixReadsNoMoreThanDetached) {
  const double detached = update_mix_reads_per_op(/*armed=*/false);
  const double armed = update_mix_reads_per_op(/*armed=*/true);
  EXPECT_GT(detached, 0.0);
  EXPECT_LE(armed, detached)
      << "hinted updates walk upper levels from their heads (the foresight "
         "cliff): armed "
      << armed << " reads/op vs detached " << detached;
}

TEST(ForesightUpperPath, HintedEraseOfRaisedKeyLeavesItAtNoLevel) {
  device::DeviceMemory mem;
  ForesightIndex foresight(1u << 12);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  sl.bulk_load(ascending_pairs(1, 3000));
  sl.foresight_prime(team);
  const std::vector<Key> raised = keys_at_level(sl, 2);
  ASSERT_GE(raised.size(), 4u) << "no keys raised to level 2";

  // Every other level-2 key: far enough apart that no erase's merge
  // zombifies the chunk the next erase's hint names.
  std::vector<Key> victims;
  for (std::size_t i = 0; i < raised.size(); i += 2) {
    victims.push_back(raised[i]);
  }
  obs::MetricsShard shard;
  team.set_metrics(&shard);
  for (const Key k : victims) ASSERT_TRUE(sl.erase(team, k)) << "key " << k;
  team.set_metrics(nullptr);
  EXPECT_EQ(shard.counter(obs::kForesightHits), victims.size())
      << "some erase fell back to the classic descent — test is inert";

  for (const Key k : victims) {
    EXPECT_FALSE(at_any_level(sl, k)) << "key " << k << " survived somewhere";
  }
  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
  Pairs want = ascending_pairs(1, 3000);
  want.erase(std::remove_if(want.begin(), want.end(),
                            [&](const std::pair<Key, Value>& p) {
                              return std::binary_search(
                                  victims.begin(), victims.end(), p.first);
                            }),
             want.end());
  EXPECT_EQ(sl.collect(), want);
}

TEST(ForesightUpperPath, HintedSplitInsertLandsRaisedKeyInLevelOne) {
  device::DeviceMemory mem;
  ForesightIndex foresight(1u << 12);
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;  // p_chunk = 1: every split raises
  Gfsl sl(cfg, &mem, nullptr, nullptr, nullptr, nullptr, nullptr, &foresight);
  Team team(8, 0, 5);

  Pairs even;
  for (Key k = 2; k <= 4000; k += 2) even.emplace_back(k, value_of(k));
  sl.bulk_load(even);
  sl.foresight_prime(team);

  // Fill the gaps of one region one key at a time; bulk-loaded chunks are
  // 3/4 full, so every few inserts split a bottom chunk and raise.
  int splits = 0;
  obs::MetricsShard shard;
  team.set_metrics(&shard);
  int inserts = 0;
  for (Key k = 1001; k <= 1201; k += 2, ++inserts) {
    const std::vector<Key> before = keys_at_level(sl, 1);
    ASSERT_TRUE(sl.insert(team, k, value_of(k))) << "key " << k;
    const std::vector<Key> after = keys_at_level(sl, 1);
    std::vector<Key> added;
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(added));
    if (added.empty()) continue;
    ++splits;
    // keyForNextLevel at level 0 raises max(k, first key of the new chunk).
    ASSERT_EQ(added.size(), 1u) << "key " << k;
    EXPECT_GE(added[0], k);
    EXPECT_TRUE(sl.contains(team, added[0])) << "raised key not at level 0";
  }
  team.set_metrics(nullptr);
  EXPECT_GT(splits, 10) << "no split raised a key — test is inert";
  // One consult per insert plus one per raised-key contains() check.
  EXPECT_EQ(shard.counter(obs::kForesightHits),
            static_cast<std::uint64_t>(inserts + splits))
      << "some op fell back to the classic descent — test is inert";

  const auto rep = sl.validate(/*strict=*/true);
  EXPECT_TRUE(rep.ok) << rep.error;
}

// Two scheduled teams race a hinted erase of each key against the key's
// other updates.  Team 1 appends ascending keys past the prefill — each is
// the structure's maximum, so a split raises the inserted key itself, under
// its own bottom lock — and erases each victim two appends later.  Team 0
// retries a hinted erase of each victim until it wins or team 1 has erased
// it.  So team 0's bottom walk can find the victim while team 1 is still
// raising it (the fill, which runs after team 0 gets the bottom lock, must
// see the new upper levels), or team 1 can erase the victim between team
// 0's walk and its lock.  Team 0 also runs hinted inserts into the prefill,
// whose splits raise and fill concurrently.  Every interleaving must erase
// each victim exactly once, lose no insert, and leave no victim at any
// level.
TEST(ForesightUpperPath, ScheduledRaceBetweenHintedWalkAndFill) {
  constexpr Key kPrefillMax = 200;
  constexpr int kKeys = 48;
  std::vector<std::uint64_t> wins(2);  // erases won per team, all seeds
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    device::DeviceMemory mem;
    device::EpochManager epochs;
    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                               seed, 2);
    ForesightIndex foresight(1u << 12, /*stride=*/1, kNeverRepublish);
    GfslConfig cfg;
    cfg.team_size = 8;
    cfg.pool_chunks = 1u << 12;  // p_chunk = 1: every split raises
    Gfsl sl(cfg, &mem, &sched, nullptr, &epochs, nullptr, nullptr,
            &foresight);

    Pairs prefill;
    for (Key k = 4; k <= kPrefillMax; k += 4) {
      prefill.emplace_back(k, value_of(k));
    }
    sl.bulk_load(prefill);
    {
      Team primer(8, 0, 5);  // not yet entered: runs unscheduled
      sl.foresight_prime(primer);
    }

    std::vector<Key> victims;  // team 1 inserts, both teams erase
    std::vector<Key> kept;     // team 1 inserts between victims
    std::vector<Key> gaps;     // team 0 inserts into the prefill
    for (int i = 0; i < kKeys; ++i) {
      victims.push_back(kPrefillMax + 10 + 3 * i);
      kept.push_back(kPrefillMax + 11 + 3 * i);
      gaps.push_back(1 + 4 * i);
    }
    const auto n = static_cast<std::size_t>(kKeys);
    std::vector<std::vector<bool>> erased(2, std::vector<bool>(n));
    std::vector<bool> victim_ok(n), kept_ok(n), gap_ok(n);
    std::atomic<int> t1_erased_upto{-1};  // highest victim team 1 erased
    std::uint64_t hits0 = 0;

    std::thread t1([&] {
      Team team(8, 1, 6);
      sched.enter(1);
      auto erase_victim = [&](int j) {
        erased[1][static_cast<std::size_t>(j)] = sl.erase(team, victims[j]);
        t1_erased_upto.store(j);
      };
      for (int i = 0; i < kKeys; ++i) {
        const auto u = static_cast<std::size_t>(i);
        victim_ok[u] = sl.insert(team, victims[u], value_of(victims[u]));
        kept_ok[u] = sl.insert(team, kept[u], value_of(kept[u]));
        if (i >= 2) erase_victim(i - 2);
      }
      erase_victim(kKeys - 2);
      erase_victim(kKeys - 1);
      sched.leave(1);
    });
    std::thread t0([&] {
      Team team(8, 0, 5);
      obs::MetricsShard shard;
      team.set_metrics(&shard);
      sched.enter(0);
      for (int i = 0; i < kKeys; ++i) {
        const auto u = static_cast<std::size_t>(i);
        bool ok = false;
        do {
          ok = sl.erase(team, victims[u]);
        } while (!ok && t1_erased_upto.load() < i);
        erased[0][u] = ok;
        gap_ok[u] = sl.insert(team, gaps[u], value_of(gaps[u]));
      }
      sched.leave(0);
      team.set_metrics(nullptr);
      hits0 = shard.counter(obs::kForesightHits);
    });
    t0.join();
    t1.join();

    EXPECT_GT(hits0, 0u) << "seed " << seed << ": nothing ran hinted";
    std::map<Key, Value> want(prefill.begin(), prefill.end());
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_TRUE(victim_ok[u]) << "seed " << seed << " key " << victims[u];
      EXPECT_TRUE(kept_ok[u]) << "seed " << seed << " key " << kept[u];
      EXPECT_TRUE(gap_ok[u]) << "seed " << seed << " key " << gaps[u];
      EXPECT_NE(erased[0][u], erased[1][u])
          << "seed " << seed << ": key " << victims[u]
          << " must be erased exactly once";
      EXPECT_FALSE(at_any_level(sl, victims[u]))
          << "seed " << seed << ": key " << victims[u] << " survived";
      ++wins[erased[0][u] ? 0 : 1];
      want[kept[u]] = value_of(kept[u]);
      want[gaps[u]] = value_of(gaps[u]);
    }
    EXPECT_EQ(sl.collect(), Pairs(want.begin(), want.end()))
        << "seed " << seed;
    const auto rep = sl.validate(/*strict=*/true);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": " << rep.error;
  }
  // Both teams won erases: the race went both ways across the seeds.
  EXPECT_GT(wins[0], 0u);
  EXPECT_GT(wins[1], 0u);
}

// ---------------------------------------------------------------------------
// A/B determinism: the detached path is the seed path, and the attached path
// is reproducible under a fixed deterministic schedule.

struct AbRun {
  std::vector<bool> results;  // per-op return values, in program order
  Pairs contents;
  bool valid = false;
  std::string error;
};

// Two teams churn *disjoint* key spaces under the same seeded deterministic
// schedule (mirrors test_snapshot.cpp's A/B harness).  Per-team key spaces
// make every op's result a function of that team's own program order alone,
// so the result vectors and final contents must be identical across the two
// arms even though attaching the index changes traversal shapes — a hinted
// jump skips the upper descent's yield points — and can shift which team
// performs the lazy rebuild walk.
AbRun run_ab(std::uint64_t sched_seed, bool with_foresight) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             sched_seed, 2);
  std::unique_ptr<ForesightIndex> foresight;
  if (with_foresight) {
    foresight = std::make_unique<ForesightIndex>(1u << 12, /*stride=*/1,
                                                 /*rebuild_threshold=*/16);
  }
  GfslConfig cfg;
  cfg.team_size = 8;
  cfg.pool_chunks = 1u << 12;
  Gfsl sl(cfg, &mem, &sched, nullptr, &epochs, nullptr, nullptr,
          foresight.get());

  std::vector<std::vector<bool>> per_team(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Team team(8, t, 5);
      Xoshiro256ss rng(derive_seed(83, static_cast<std::uint64_t>(t)));
      auto& out = per_team[static_cast<std::size_t>(t)];
      sched.enter(t);
      for (int i = 0; i < 200; ++i) {
        const Key k = static_cast<Key>(1 + t * 1'000 + rng.below(64));
        switch (rng.below(3)) {
          case 0:
            out.push_back(sl.insert(team, k, k));
            break;
          case 1:
            out.push_back(sl.erase(team, k));
            break;
          default:
            out.push_back(sl.contains(team, k));
            break;
        }
      }
      sched.leave(t);
    });
  }
  for (auto& th : threads) th.join();

  AbRun r;
  for (const auto& v : per_team) {
    r.results.insert(r.results.end(), v.begin(), v.end());
  }
  r.contents = sl.collect();
  const auto rep = sl.validate(/*strict=*/false);
  r.valid = rep.ok;
  r.error = rep.error;
  return r;
}

TEST(ForesightABDeterminism, AttachedIndexChangesNoResultOrContents) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const AbRun detached = run_ab(seed, /*with_foresight=*/false);
    const AbRun attached = run_ab(seed, /*with_foresight=*/true);
    ASSERT_TRUE(detached.valid) << "seed " << seed << ": " << detached.error;
    ASSERT_TRUE(attached.valid) << "seed " << seed << ": " << attached.error;
    EXPECT_EQ(detached.results, attached.results)
        << "seed " << seed
        << ": an op returned differently with foresight armed";
    EXPECT_EQ(detached.contents, attached.contents)
        << "seed " << seed << ": final contents diverged with foresight armed";
  }
}

TEST(ForesightABDeterminism, DetachedPathIsReproducible) {
  const AbRun a = run_ab(13, /*with_foresight=*/false);
  const AbRun b = run_ab(13, /*with_foresight=*/false);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.contents, b.contents);
}

TEST(ForesightABDeterminism, AttachedPathIsReproducible) {
  // Fixed seed, foresight armed twice: hint consults, rebuild timing and all
  // fallbacks replay identically under the deterministic schedule.
  const AbRun a = run_ab(13, /*with_foresight=*/true);
  const AbRun b = run_ab(13, /*with_foresight=*/true);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.contents, b.contents);
}

}  // namespace
}  // namespace gfsl::core
