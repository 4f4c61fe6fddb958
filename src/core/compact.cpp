// Between-kernel compaction — the memory-reclamation scheme the thesis
// sketches as future work (§4.1: "A possible reclamation scheme would be to
// compact the structure between kernel launches").
//
// Runs host-side at quiescence: collects the live bottom-level pairs, resets
// the pool, and rebuilds a dense structure with every chunk filled to a
// target factor and each chunk's first key raised with probability p_chunk,
// as a split would raise it (§3); at p_chunk = 1 exactly one key per chunk.
// All zombie and stale chunks are reclaimed.
#include "core/gfsl.h"

#include <algorithm>
#include <new>

#include "common/random.h"

namespace gfsl::core {

namespace {

/// The raise coin of a rebuilt chunk: a pure function of its first key and
/// its level (no RNG state), so a rebuild is reproducible and each level
/// draws independently of the one below.
bool rebuild_raises(Key first_key, int level, double p_chunk) {
  SplitMix64 draw(static_cast<std::uint64_t>(first_key) << 8 |
                  static_cast<std::uint64_t>(level));
  return static_cast<double>(draw.next() >> 11) * 0x1.0p-53 < p_chunk;
}

}  // namespace

void Gfsl::compact() {
  const auto pairs = collect();  // sorted: the bottom level is ordered
  if (epochs_ == nullptr) {
    bulk_load(pairs);  // legacy: wholesale arena reset
    return;
  }
  // With reclamation active, compaction and steady-state recycling share one
  // code path: every in-use index — live, zombie, limbo'd or leaked — goes
  // through arena_.recycle() (bumping its generation stamp so any parked
  // reader still holding it restarts), the limbo lists are emptied (their
  // indices are covered by the sweep; draining them twice would double-free),
  // and the rebuild allocates back through the free-list.
  std::vector<ChunkRef> limbo;
  epochs_->drain_all(&limbo);
  const std::uint32_t hw = arena_.high_water();
  for (std::uint32_t ref = 0; ref < hw; ++ref) {
    if ((arena_.generation(static_cast<ChunkRef>(ref)) & 1u) == 0) {
      arena_.recycle(static_cast<ChunkRef>(ref));
    }
  }
  rebuild(pairs);
}

void Gfsl::bulk_load(const std::vector<std::pair<Key, Value>>& pairs) {
  arena_.reset();
  rebuild(pairs);
}

void Gfsl::rebuild(const std::vector<std::pair<Key, Value>>& pairs) {
  // Rebuild is quiescent: version history cannot survive it (chunk refs are
  // reassigned wholesale), so the whole version store resets — every open
  // snapshot is expired via the store-generation bump and the rebuilt keys
  // act as insert_rev 0 (visible to every future snapshot).  Record indices
  // still parked in epoch ticket limbo are discarded, not freed: reset()
  // rebuilds the record free-list wholesale, so freeing them later would
  // double-free.
  if (snaps_ != nullptr) {
    if (epochs_ != nullptr) {
      std::vector<RecIdx> discard;
      epochs_->drain_all_tickets(&discard);
    }
    snaps_->reset();
  }
  // Chunk refs are reassigned wholesale: every published hint is garbage.
  // Unpublish now; the first operation after the rebuild republishes.
  if (foresight_ != nullptr) foresight_->invalidate_all();
  // Recreate the per-level head chunks exactly as construction does.
  ChunkRef below = NULL_CHUNK;
  for (int level = 0; level < max_levels(); ++level) {
    const ChunkRef ch = arena_.alloc_locked();
    if (ch == NULL_CHUNK) throw std::bad_alloc();
    set_chunk_level(ch, level);
    const Value down = (level == 0) ? Value{0} : static_cast<Value>(below);
    arena_.entry(ch, 0).store(make_kv(KEY_NEG_INF, down),
                              std::memory_order_relaxed);
    arena_.entry(ch, arena_.lock_slot())
        .store(make_lock_entry(kUnlocked), std::memory_order_release);
    head_[static_cast<std::size_t>(level)].store(ch, std::memory_order_relaxed);
    level_chunks_[static_cast<std::size_t>(level)].store(
        0, std::memory_order_relaxed);
    below = ch;
  }

  // Fill to 3/4 so the rebuilt chunks absorb inserts without immediate
  // splits and deletes without immediate merges.
  const int fill = std::max(1, arena_.dsize() * 3 / 4);

  // Entries to place at the current level; values are user values at level 0
  // and chunk references above.
  std::vector<std::pair<Key, Value>> current;
  current.reserve(pairs.size());
  for (const auto& [k, v] : pairs) current.emplace_back(k, v);

  for (int level = 0; level < max_levels(); ++level) {
    ChunkRef tail = head_[static_cast<std::size_t>(level)].load(
        std::memory_order_relaxed);
    std::vector<std::pair<Key, Value>> raised;
    std::int64_t made = 0;

    for (std::size_t at = 0; at < current.size(); at += fill) {
      const std::size_t n = std::min<std::size_t>(fill, current.size() - at);
      const ChunkRef ch = arena_.alloc_locked();
      if (ch == NULL_CHUNK) throw std::bad_alloc();
      set_chunk_level(ch, level);
      for (std::size_t i = 0; i < n; ++i) {
        arena_.entry(ch, static_cast<int>(i))
            .store(make_kv(current[at + i].first, current[at + i].second),
                   std::memory_order_relaxed);
      }
      const bool is_final = (at + n >= current.size());
      const Key max_key = is_final ? KEY_INF : current[at + n - 1].first;
      arena_.entry(ch, arena_.next_slot())
          .store(make_next_entry(max_key, NULL_CHUNK),
                 std::memory_order_relaxed);
      arena_.entry(ch, arena_.lock_slot())
          .store(make_lock_entry(kUnlocked), std::memory_order_relaxed);

      // Link after the tail.  Every data chunk is created with its final max
      // already in place; only the head chunk starts with the inf max of a
      // last chunk and must drop to its own largest key (-inf) when a data
      // chunk is linked after it.
      const KV tail_next = arena_.entry(tail, arena_.next_slot())
                               .load(std::memory_order_relaxed);
      const Key tail_max = (next_entry_max(tail_next) == KEY_INF)
                               ? KEY_NEG_INF
                               : next_entry_max(tail_next);
      arena_.entry(tail, arena_.next_slot())
          .store(make_next_entry(tail_max, ch), std::memory_order_relaxed);

      if (cfg_.p_chunk >= 1.0 ||
          rebuild_raises(current[at].first, level, cfg_.p_chunk)) {
        raised.emplace_back(current[at].first, static_cast<Value>(ch));
      }
      tail = ch;
      ++made;
    }

    level_chunks_[static_cast<std::size_t>(level)].store(
        made, std::memory_order_relaxed);
    if (raised.size() <= 1 || level + 1 >= max_levels()) break;
    current = std::move(raised);
  }

  // Every chunk above was published unlocked by direct stores, not through
  // unlock(): give the rebuilt structure its integrity baseline.
  reseal_all();
}

}  // namespace gfsl::core
