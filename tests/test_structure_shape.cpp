// Shape statistics + direct checks of the thesis's quantitative claims about
// the structure GFSL converges to (Chapter 3, §4.2.2, §5.2).
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "core/gfsl.h"
#include "core/shape.h"
#include "device/device_memory.h"

namespace gfsl::core {
namespace {

using simt::Team;

std::unique_ptr<Gfsl> grown_list(device::DeviceMemory& mem, int team_size,
                                 Key keys, std::uint64_t seed) {
  GfslConfig cfg;
  cfg.team_size = team_size;
  cfg.pool_chunks = 1u << 17;
  cfg.p_chunk = 1.0;
  auto sl = std::make_unique<Gfsl>(cfg, &mem);
  Team team(team_size, 0, seed);
  // Random insertion order so splits shape the structure organically.
  Xoshiro256ss rng(seed);
  std::vector<Key> ks(keys);
  for (Key i = 0; i < keys; ++i) ks[i] = i + 1;
  for (std::size_t i = ks.size(); i > 1; --i) {
    std::swap(ks[i - 1], ks[rng.below(i)]);
  }
  for (const Key k : ks) sl->insert(team, k, k);
  return sl;
}

TEST(Shape, EmptyStructure) {
  device::DeviceMemory mem;
  GfslConfig cfg;
  Gfsl sl(cfg, &mem);
  const auto s = measure_shape(sl);
  EXPECT_EQ(s.height, 0);
  EXPECT_EQ(s.total_keys, 0u);
  EXPECT_EQ(s.zombie_chunks, 0u);
  EXPECT_DOUBLE_EQ(s.zombie_fraction(), 0.0);
}

TEST(Shape, CountsMatchCollect) {
  device::DeviceMemory mem;
  auto sl = grown_list(mem, 32, 3'000, 7);
  const auto s = measure_shape(*sl);
  EXPECT_EQ(s.total_keys, sl->size());
  EXPECT_EQ(s.height, sl->current_height());
  EXPECT_GT(s.live_chunks, 0u);
}

TEST(Shape, ThesisClaim_Chunk32HoldsAbout20Keys) {
  // §4.2.2: "chunks of size 32, which hold an average of 20 keys".
  // Split-in-half dynamics keep live chunks between DSIZE/2 (15) and DSIZE
  // (30); random growth settles the mean around 20.
  device::DeviceMemory mem;
  auto sl = grown_list(mem, 32, 20'000, 11);
  const auto s = measure_shape(*sl);
  EXPECT_GE(s.avg_keys_per_chunk, 16.0);
  EXPECT_LE(s.avg_keys_per_chunk, 24.0);
}

TEST(Shape, ThesisClaim_Chunk16HoldsAbout10Keys) {
  // §4.2.2: "chunks of size 16 hold an average of 10 keys".
  device::DeviceMemory mem;
  auto sl = grown_list(mem, 16, 20'000, 13);
  const auto s = measure_shape(*sl);
  EXPECT_GE(s.avg_keys_per_chunk, 8.0);
  EXPECT_LE(s.avg_keys_per_chunk, 12.0);
}

TEST(Shape, ThesisClaim_Gfsl16HasMoreLevels) {
  // §5.2: "GFSL-16 contains 25% more levels on average than GFSL-32".
  device::DeviceMemory mem16, mem32;
  auto sl16 = grown_list(mem16, 16, 30'000, 17);
  auto sl32 = grown_list(mem32, 32, 30'000, 17);
  const int h16 = measure_shape(*sl16).height;
  const int h32 = measure_shape(*sl32).height;
  EXPECT_GT(h16, h32);
}

TEST(Shape, FanoutTracksChunkFill) {
  // With p_chunk = 1 one key is raised per split, so the level-0/level-1 key
  // ratio approximates the average chunk fill (§3: "the factor between
  // levels [is] tied to the number of entries in a chunk").
  device::DeviceMemory mem;
  auto sl = grown_list(mem, 32, 20'000, 19);
  const auto s = measure_shape(*sl);
  EXPECT_GT(s.fanout, s.avg_keys_per_chunk * 0.5);
  EXPECT_LT(s.fanout, s.avg_keys_per_chunk * 2.0);
}

TEST(Shape, ZombieFractionGrowsWithDeletesAndResetsOnCompact) {
  device::DeviceMemory mem;
  auto sl = grown_list(mem, 32, 5'000, 23);
  Team team(32, 1, 2);
  for (Key k = 1; k <= 4'500; ++k) sl->erase(team, k);
  const auto before = measure_shape(*sl);
  EXPECT_GT(before.zombie_fraction(), 0.0);
  sl->compact();
  const auto after = measure_shape(*sl);
  EXPECT_DOUBLE_EQ(after.zombie_fraction(), 0.0);
  EXPECT_EQ(after.total_keys, before.total_keys);
}

TEST(Shape, LowPChunkFlattensTheStructure) {
  // §5.2: lowering p_chunk lengthens lateral walks without much height
  // impact — in the limit p_chunk = 0 the structure is one long level.
  device::DeviceMemory mem0, mem1;
  GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 15;
  cfg.p_chunk = 0.0;
  Gfsl flat(cfg, &mem0);
  cfg.p_chunk = 1.0;
  Gfsl tall(cfg, &mem1);
  Team team(16, 0, 3);
  for (Key k = 1; k <= 4'000; ++k) {
    flat.insert(team, k, 0);
    tall.insert(team, k, 0);
  }
  EXPECT_EQ(measure_shape(flat).height, 0);
  EXPECT_GE(measure_shape(tall).height, 2);
}

TEST(Shape, PerLevelFillWithinSplitMergeBand) {
  device::DeviceMemory mem;
  auto sl = grown_list(mem, 32, 10'000, 29);
  const auto s = measure_shape(*sl);
  const double dsize = 30.0;
  for (int l = 0; l <= s.height; ++l) {
    const auto& ls = s.levels[static_cast<std::size_t>(l)];
    if (ls.live_chunks < 3) continue;  // head/last chunks skew tiny levels
    EXPECT_LE(ls.max_fill, dsize) << "level " << l;
    // Live interior chunks sit between the merge floor and capacity.
    EXPECT_GE(ls.avg_fill, dsize / 3.0) << "level " << l;
  }
}

TEST(Shape, BulkLoadHonorsPChunk) {
  // A bulk load raises each chunk's first key with probability p_chunk, as a
  // split would: p_chunk = 0 builds one flat level, p_chunk = 1 raises
  // exactly one key per chunk.
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 1; k <= 20'000; ++k) pairs.emplace_back(k, k);
  const auto load = [&](double p_chunk) {
    device::DeviceMemory mem;
    GfslConfig cfg;
    cfg.team_size = 32;
    cfg.pool_chunks = 1u << 15;
    cfg.p_chunk = p_chunk;
    Gfsl sl(cfg, &mem);
    sl.bulk_load(pairs);
    EXPECT_TRUE(sl.validate().ok) << "p_chunk " << p_chunk;
    std::vector<std::uint64_t> keys;
    for (const auto& ls : measure_shape(sl).levels) {
      if (ls.keys > 0) keys.push_back(ls.keys);
    }
    return keys;
  };
  // Chunks filled to 22 of 30 slots: 910 bottom chunks, 42 above, then 2.
  EXPECT_EQ(load(1.0), (std::vector<std::uint64_t>{20'000, 910, 42, 2}));
  EXPECT_EQ(load(0.0), (std::vector<std::uint64_t>{20'000}));
  // The raise draw is a function of the key, so a rebuild is reproducible.
  const auto half = load(0.5);
  EXPECT_EQ(half, load(0.5));
  ASSERT_GE(half.size(), 2u);
  EXPECT_GT(half[1], 910u * 35 / 100);
  EXPECT_LT(half[1], 910u * 65 / 100);
}

}  // namespace
}  // namespace gfsl::core
