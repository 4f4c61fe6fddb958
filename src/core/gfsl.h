// GFSL — the GPU-Friendly Skiplist (the paper's contribution, Chapters 3-4).
//
// GFSL is a fine-grained lock-based skiplist made of levels of chunked linked
// lists.  A *team* of N lanes executes each operation cooperatively: every
// lane reads one chunk entry, the team ballots on the comparison results and
// decides the next traversal step together.  Contains is lock-free; Insert
// and Delete lock the affected chunks (bottom-level lock held for the whole
// operation, upper-level locks taken lock-update-unlock, §4.2.2/§4.2.3).
//
// A key is raised to level i+1 only when a chunk split occurs in level i,
// with probability p_chunk (§3), which ties the level fan-out to the chunk
// capacity instead of to individual keys.
//
// Execution/measurement context: all global-memory traffic flows through a
// device::DeviceMemory (coalescing + L2 model) and, optionally, every memory
// step is a sched::StepScheduler yield point so tests can replay exact
// interleavings.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/batch.h"
#include "core/chunk.h"
#include "core/foresight.h"
#include "core/integrity.h"
#include "core/intent.h"
#include "core/snapshot.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "sched/lease.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::core {

struct GfslConfig {
  /// Team size == chunk entry count N.  The paper evaluates 16 (128 B chunks,
  /// one transaction) and 32 (256 B chunks, two transactions); 8 is supported
  /// for tests.
  int team_size = 32;
  /// Total chunks in the device memory pool.
  std::uint32_t pool_chunks = 1u << 20;
  /// Probability that a split raises a key to the next level (§3, §5.2:
  /// "p_chunk ≈ 1 ... gave the best results in all operation mixtures").
  /// bulk_load and compact raise each rebuilt chunk's first key with it too.
  double p_chunk = 1.0;
};

/// Result of a quiescent structural check (no concurrent teams may run).
struct ValidationReport {
  bool ok = true;
  std::string error;             // first violated invariant, if any
  int height = 0;                // levels in use above the bottom
  std::uint64_t bottom_keys = 0; // user keys in the bottom level
  std::uint64_t live_chunks = 0;
  std::uint64_t zombie_chunks = 0;
  std::uint64_t data_entries = 0;  // occupied data slots in live chunks —
                                   // the occupancy gauge's numerator
  std::uint64_t limbo_chunks = 0;  // retired, awaiting their grace period
  std::uint64_t free_chunks = 0;   // recycled onto the arena free-list
};

/// Result of Gfsl::recover() — the whole-process restart pass.
struct RecoveryReport {
  bool ok = true;
  std::string error;          // first failure, if any
  int locks_released = 0;     // dead-owned locks the medic sweep released
  int intents_repaired = 0;   // claimable intents found published at attach
  std::uint64_t chunks_freed = 0;    // indices moved to the rebuilt free-list
  std::uint64_t stale_keys_scrubbed = 0;  // upper-level keys with no home below
  std::uint64_t chunks_unlinked = 0;      // upper chunks emptied by the scrub
  std::uint64_t generations_repaired = 0;  // reachable odd stamps bumped even
  ValidationReport validation;  // the strict post-recovery check
};

/// Exact key range a quarantine lost: every key in (lo_exclusive,
/// hi_inclusive] that was resident in the damaged chunk is gone from the
/// structure.  Reported instead of a silent wrong answer.
struct LostRange {
  ChunkRef ref = NULL_CHUNK;
  Key lo_exclusive = KEY_NEG_INF;
  Key hi_inclusive = KEY_NEG_INF;
};

/// Result of one Gfsl::scrub_pass() (scrub.cpp; DESIGN.md §15).
struct ScrubReport {
  std::uint64_t chunks_scanned = 0;   // sealed chunks visited
  std::uint64_t mismatches = 0;       // seal failures confirmed under lock
  std::uint64_t repaired = 0;         // damaged chunks rebuilt in place
  std::uint64_t quarantined = 0;      // damaged chunks zombified/evacuated
  std::uint64_t skipped_busy = 0;     // suspects left for a later pass (lock contention)
  std::vector<LostRange> lost;        // blast radii of irreparable damage
};

class Gfsl {
 public:
  static constexpr int kMaxLevels = 32;  // hard bound; runtime bound = team size

  /// `mem` must outlive the structure; `scheduler` may be null (free-running).
  /// `leases` may be null: then locks are anonymous (seed semantics, zero
  /// overhead).  With a LeaseTable attached, every lock acquisition stamps
  /// the holder's lease word, every destructive span publishes an intent
  /// descriptor, and a team that spins on a lock whose owner's lease expired
  /// repairs the half-done mutation and steals the lock (crash tolerance).
  /// `epochs` may be null: then unlinked zombies leak until compact() — the
  /// paper's semantics, bit-identical to the seed.  With an EpochManager
  /// attached every operation pins an epoch, unlinked zombies are retired to
  /// limbo, and their indices are recycled through the arena free-list after
  /// a grace period (DESIGN.md §9) — churn workloads run in bounded memory.
  /// `region` may be null: no byte of persistence machinery runs (seed
  /// semantics).  With a device::PersistRegion attached (which requires a
  /// LeaseTable), every durable word — chunk slots, generation stamps,
  /// free-list, level heads, intents, leases — lives in the mapped file and
  /// every durable transition crosses a persist point (DESIGN.md §12).  A
  /// *fresh* region builds the usual empty structure; an *attached* region
  /// adopts the stored image and the caller MUST run recover() before any
  /// operation.
  /// `snaps` may be null: no versioning, bit-identical to the seed.  With a
  /// SnapshotManager attached every bottom-level mutation commits under a
  /// revision and stamps version records, snapshot()/scan_at() serve
  /// point-in-time-consistent range scans, and the version chains are GC'd
  /// down to the min-snapshot watermark (DESIGN.md §13).
  /// `foresight` may be null: every operation descends from the head (seed
  /// semantics, bit-identical).  With a ForesightIndex attached, per-op
  /// contains/find/insert/erase consult the published hint table and jump
  /// straight to a validated bottom-level chunk, falling back to the classic
  /// descent on any generation mismatch or zombie hit; an erase that hits
  /// or an insert that raises descends for its upper levels on demand
  /// (DESIGN.md §14).  The table is rebuilt lazily, under the
  /// consulting operation's epoch pin, once enough split/merge/recycle
  /// events have accumulated.
  /// `integrity` may be null: no seal is ever computed or checked
  /// (bit-identical to the seed).  With an IntegritySidecar attached every
  /// lock release restamps the chunk's data-slot checksum, checked reads
  /// verify it on their cold path, and scrub_pass() detects, repairs or
  /// quarantines damaged chunks online (DESIGN.md §15).
  Gfsl(const GfslConfig& cfg, device::DeviceMemory* mem,
       sched::StepScheduler* scheduler = nullptr,
       sched::LeaseTable* leases = nullptr,
       device::EpochManager* epochs = nullptr,
       device::PersistRegion* region = nullptr,
       SnapshotManager* snaps = nullptr,
       ForesightIndex* foresight = nullptr,
       IntegritySidecar* integrity = nullptr);

  Gfsl(const Gfsl&) = delete;
  Gfsl& operator=(const Gfsl&) = delete;

  // --- Operations (each executed cooperatively by `team`) -------------------

  /// Lock-free membership test (§4.2.1).
  bool contains(simt::Team& team, Key k);

  /// Lock-free lookup returning the value stored with `k`.
  std::optional<Value> find(simt::Team& team, Key k);

  /// Insert <k, v>; false if `k` is already present (§4.2.2).
  bool insert(simt::Team& team, Key k, Value v);

  /// Remove `k`; false if not present (§4.2.3).  Never fails on pool
  /// exhaustion: if an underfull-chunk merge cannot allocate its receiver
  /// split, the removal completes merge-free and tolerates the underfull
  /// chunk — an erase is all-or-nothing, never partially applied.
  bool erase(simt::Team& team, Key k);

  /// Lock-free cooperative range scan (extension): append up to `limit`
  /// pairs with keys in [lo, hi] to `out`, in ascending key order.  The
  /// chunked layout makes this a sequence of coalesced chunk reads — the
  /// ordered-scan operation key-value stores need from their memtables.
  ///
  /// Consistency contract (best-effort / "legacy" scan): the result is NOT a
  /// point-in-time snapshot.  Each visited chunk is internally consistent
  /// (seqlock-checked read), and any key present in [lo, hi] for the *whole*
  /// scan is returned, but keys inserted or erased concurrently may or may
  /// not appear, a concurrent split/merge can restart the scan from `lo`,
  /// and two keys in the result may never have coexisted.  For a consistent
  /// cut use snapshot() + scan_at(), which resolves every key as-of one
  /// revision and never restarts mid-range.
  std::size_t scan(simt::Team& team, Key lo, Key hi,
                   std::vector<std::pair<Key, Value>>& out,
                   std::size_t limit = SIZE_MAX);

  // --- MVCC snapshots (snapshot.cpp; DESIGN.md §13) -------------------------

  /// Take a snapshot at the newest stable revision.  Never blocks; O(1).
  /// Returns a closed handle when no SnapshotManager is attached.  The
  /// caller must release_snapshot() — an unreleased snapshot pins version
  /// records (GC watermark) until the lagging-snapshot policy expires it.
  Snapshot snapshot();
  void release_snapshot(Snapshot& s);

  /// Consistent ordered range scan as-of `s`: append up to `limit` pairs
  /// with keys in [lo, hi] resolved at revision s.rev, ascending.  Never
  /// restarts from `lo` — concurrent splits/merges only cause a bounded
  /// re-descend to the current position (keys only move forward between
  /// chunks, so the monotone key watermark never misses one).  Returns
  /// kSnapshotExpired without touching `out`'s tail when `s` was released,
  /// expired by the lagging-snapshot policy, or invalidated by a store
  /// generation bump (compact / bulk_load / record-arena overflow).
  ScanAtStatus scan_at(simt::Team& team, const Snapshot& s, Key lo, Key hi,
                       std::vector<std::pair<Key, Value>>& out,
                       std::size_t limit = SIZE_MAX);

  SnapshotManager* snapshots() const { return snaps_; }

  // --- Batch execution (batch.cpp; DESIGN.md §10) ---------------------------
  // Cursor-carrying variants of contains/insert/erase for key-sorted shard
  // execution.  Keys must be presented to one cursor in ascending order
  // (batch_search falls back to a cold descent — and re-warms — otherwise).
  // Semantics are identical to the per-op API.

  bool contains_batch(simt::Team& team, Key k, BatchCursor& cur);
  bool insert_batch(simt::Team& team, Key k, Value v, BatchCursor& cur);
  bool erase_batch(simt::Team& team, Key k, BatchCursor& cur);

  /// Execute ops[order[begin..end)] — one key-range shard of a planned batch
  /// (sched::plan_shards) — with a single epoch pin for the whole shard
  /// (refreshed every kBatchPinRefresh ops so a long shard cannot stall
  /// reclamation) and a warm descent cursor.  Outcomes land in
  /// `outcomes[order[i]]` as BatchOpStatus codes; pool exhaustion marks the
  /// op kSkipped and continues.  `observer`, when non-null, brackets every
  /// op (crash-sweep history logging).  A scheduler kill (TeamKilled)
  /// propagates after a silent unpin.  `batch_rev`, when non-zero, is the
  /// whole-batch revision (SnapshotManager::begin_commit on a batch slot
  /// held by the caller across every shard): all mutations of the batch
  /// stamp it, so snapshots see none or all of the batch.
  ShardExecStats execute_shard(simt::Team& team, const Op* ops,
                               const std::uint32_t* order, std::uint32_t begin,
                               std::uint32_t end, std::uint8_t* outcomes,
                               BatchOpObserver* observer = nullptr,
                               Rev batch_rev = 0);

  // --- Configuration & quiescent introspection ------------------------------

  const GfslConfig& config() const { return cfg_; }
  int team_size() const { return cfg_.team_size; }
  int max_levels() const { return cfg_.team_size; }

  /// Highest level currently in use (0 = only the bottom level).
  int current_height() const;

  std::uint32_t chunks_allocated() const { return arena_.allocated(); }
  std::int64_t chunks_in_level(int level) const {
    return level_chunks_[static_cast<std::size_t>(level)].load(
        std::memory_order_relaxed);
  }

  /// Quiescent: collect all <key, value> pairs in the bottom level, sorted.
  std::vector<std::pair<Key, Value>> collect() const;

  /// Quiescent: number of user keys in the structure.
  std::uint64_t size() const;

  /// Quiescent structural validation.  `strict` additionally requires every
  /// upper-level key to exist in the level below (holds after sequential
  /// histories; concurrent deletes may legally leave stale upper keys).
  ValidationReport validate(bool strict = true) const;

  /// Between-kernel compaction (the thesis's future-work reclamation scheme,
  /// §4.1): rebuilds the structure densely into the start of the pool,
  /// discarding zombies and reclaiming all chunk memory.  Quiescent only.
  void compact();

  /// Host-side bulk construction from sorted, distinct pairs (the untimed
  /// initial-structure setup of §5.1).  Replaces the current contents.  Each
  /// chunk's first key is raised with probability p_chunk, drawn from a hash
  /// of the key and level.  Quiescent only.
  void bulk_load(const std::vector<std::pair<Key, Value>>& sorted_pairs);

 private:
  /// bulk_load minus the arena reset: build a dense structure from whatever
  /// the arena can allocate.  compact() with an EpochManager recycles every
  /// in-use chunk first and rebuilds through the free-list, so generation
  /// stamps survive (a reset would forget which indices parked readers may
  /// still compare against).
  void rebuild(const std::vector<std::pair<Key, Value>>& sorted_pairs);

 public:

  /// Average number of chunks read per traversal since construction — the
  /// §5.2 metric ("between structure-height+1 and structure-height+2").
  double avg_chunks_per_traversal() const;

  /// Quiescent: render the structure level by level for debugging
  /// (chunk refs, lock states, key ranges, down pointers).
  void dump(std::ostream& os) const;

  const ChunkArena& arena() const { return arena_; }
  sched::LeaseTable* leases() const { return leases_; }
  device::EpochManager* epochs() const { return epochs_; }
  device::PersistRegion* region() const { return region_; }
  ForesightIndex* foresight() const { return foresight_; }
  IntegritySidecar* integrity() const { return integrity_; }

  // --- Integrity scrub (scrub.cpp; DESIGN.md §15) ---------------------------

  /// One online scrub pass under an epoch pin (modeled on reclaim_pass):
  /// walk up to `max_chunks` in-use sealed chunks (0 = the whole arena),
  /// re-verify each suspect or visited seal under try_lock — where the
  /// unlocked-implies-sealed invariant is exact — and resolve every
  /// confirmed mismatch: repair in place (upper chunks rebuild from the
  /// level below; bottom chunks restore from the version-record chain iff
  /// the restored image re-hashes to the stored seal) or quarantine
  /// (zombify + unseal + lazy unlink through the §9 retire machinery) with
  /// an exact blast-radius entry in the report.  A chunk that fails its
  /// seal again after a prior repair (a stuck-at cell) is quarantined, not
  /// re-repaired.  No-op without an attached sidecar.
  ScrubReport scrub_pass(simt::Team& team, std::uint32_t max_chunks = 0);

  /// Quiescent full restamp: seal every unlocked in-use chunk, unseal free
  /// and zombie ones.  Run after any offline rewrite (construction,
  /// bulk_load, compact, recover).  No-op without a sidecar.
  void reseal_all();

  /// Build and publish the foresight hint table now (quiescent; e.g. right
  /// after bulk_load) so measured traffic starts hinted instead of paying
  /// the lazy first rebuild mid-run.  No-op when no index is attached.
  void foresight_prime(simt::Team& team);

  /// Whole-process restart recovery (persist_recovery.cpp; DESIGN.md §12).
  /// Quiescent, offline: call on a structure constructed over an *attached*
  /// PersistRegion before serving any operation.  Marks every persisted
  /// lease crashed, replays the §8 intent repairs against the expired
  /// leases, releases every dead lock, scrubs upper-level keys whose bottom
  /// home vanished, rebuilds the tagged free-list from the generation
  /// stamps (live/zombie/limbo/free classification per validate()'s rules —
  /// an odd-generation chunk is always free, never live), rebuilds the
  /// per-level chunk gauges, resets the lease table to its canonical state
  /// and finishes with a *strict* validate().  Idempotent: a second run — or
  /// a re-run after a recoverer was itself killed mid-repair — converges to
  /// the bit-identical image.
  RecoveryReport recover();

  /// Chunks recycled into the arena free-list since construction.
  std::uint64_t chunks_reclaimed() const {
    return chunks_reclaimed_.load(std::memory_order_relaxed);
  }

  /// Medic sweep (recovery.cpp): repair every published intent and release
  /// every chunk lock whose owner's lease has expired.  Run after a crash
  /// campaign, before quiescent validation; survivors recover organically,
  /// this catches locks nobody happened to spin on.  Returns the number of
  /// locks released.
  int recover_all_expired(simt::Team& team);

 private:
  // ---- cooperative building blocks (gfsl.cpp) ----
  simt::LaneVec<KV> read_chunk(simt::Team& team, ChunkRef ref);
  /// A chunk reference paired with the generation stamp sampled when the
  /// reference was acquired (guard_ref).  Checked reads validate against
  /// this sample, so a recycle — or a completed recycle+reuse, which
  /// restores a consistent even stamp — between acquisition and read is
  /// detected, not just a recycle that lands mid-read.
  struct Guarded {
    ChunkRef ref = NULL_CHUNK;
    std::uint32_t gen = 0;
  };
  /// Sample `ref`'s generation at acquisition time.  Call it where the ref
  /// value is extracted from its (already validated) source chunk, with no
  /// yield point in between; with no EpochManager stamps never change and
  /// the load is skipped.
  Guarded guard_ref(ChunkRef ref) const {
    return {ref, (epochs_ != nullptr && ref != NULL_CHUNK)
                     ? arena_.generation(ref, std::memory_order_acquire)
                     : 0u};
  }
  /// read_chunk plus generation-stamp validation (seqlock read) against the
  /// acquisition-time sample in `g`.  With an EpochManager attached,
  /// `*stale` is set when the chunk was recycled (or recycled and reused)
  /// at any point since guard_ref sampled it — the caller must restart its
  /// traversal; detached, stamps never change and this is read_chunk.
  simt::LaneVec<KV> read_chunk_checked(simt::Team& team, Guarded g,
                                       bool* stale);
  void sync_point(simt::Team& team);
  bool is_zombie(simt::Team& team, const simt::LaneVec<KV>& kv);
  bool is_locked_or_zombie(simt::Team& team, const simt::LaneVec<KV>& kv);
  ChunkRef ptr_from_tid(simt::Team& team, int lane, const simt::LaneVec<KV>& kv);
  Key max_of(simt::Team& team, const simt::LaneVec<KV>& kv);
  ChunkRef next_of(simt::Team& team, const simt::LaneVec<KV>& kv);
  int num_nonempty(simt::Team& team, const simt::LaneVec<KV>& kv);
  bool chunk_contains(simt::Team& team, const simt::LaneVec<KV>& kv, Key k);
  bool chunk_not_enclosing(simt::Team& team, const simt::LaneVec<KV>& kv, Key k);

  int height_coop(simt::Team& team);
  ChunkRef head_of(simt::Team& team, int level);

  bool try_lock(simt::Team& team, ChunkRef ref);
  void unlock(simt::Team& team, ChunkRef ref);
  void mark_zombie(simt::Team& team, ChunkRef ref);
  /// Telemetry: a traversal ran into zombie `ref` and had to skip it.
  void note_zombie(simt::Team& team, ChunkRef ref);
  ChunkRef find_and_lock_enclosing(simt::Team& team, ChunkRef start, Key k);
  /// Lock the next non-zombie chunk after `locked` (whose lock we hold),
  /// unlinking zombies on the way; NULL_CHUNK if `locked` is last in level.
  ChunkRef lock_next_chunk(simt::Team& team, ChunkRef locked);

  void write_entry(simt::Team& team, ChunkRef ref, int slot, KV v);
  void atomic_entry_write(simt::Team& team, ChunkRef ref, int slot, KV v);

  void bump_level(int level, std::int64_t delta);

  // ---- traversal (search.cpp) ----
  static constexpr int kNone = -1;
  int tid_for_next_step(simt::Team& team, Key k, const simt::LaneVec<KV>& kv);
  int tid_with_equal_key(simt::Team& team, Key k, const simt::LaneVec<KV>& kv);
  Guarded search_down(simt::Team& team, Key k);
  bool search_lateral(simt::Team& team, Key k, Guarded start, Value* out_value,
                      bool* stale = nullptr);

  struct SlowSearchResult {
    bool found = false;
    /// A validated foresight hint replaced the upper descent: only lane 0
    /// of `path` is recorded, lanes 1.. are head defaults.  A commit half
    /// that must touch an upper level calls fill_upper_path first.
    bool hinted = false;
    simt::LaneVec<ChunkRef> path;  // lane l: chunk in level l to start from
  };
  SlowSearchResult search_slow(simt::Team& team, Key k);
  /// Point every path lane at its level's head chunk (the headPtrAtHeight
  /// lockstep read).
  void reset_path(simt::Team& team, simt::LaneVec<ChunkRef>& path);
  /// searchSlow's upper-level descent from `cur` in level `height`: records
  /// path[height..1] (and, with a cursor, the cursor's entries for those
  /// levels), unlinks zombies lazily without blocking, and sets `*bottom` to
  /// the level-0 chunk the last down step reached.  False: restart from the
  /// head (stale read, or a backtrack with no predecessor).
  bool descend_upper(simt::Team& team, Key k, int height, Guarded cur,
                     simt::LaneVec<ChunkRef>& path, Guarded* bottom,
                     std::uint64_t& reads, BatchCursor* cursor = nullptr);
  /// searchSlow's bottom-level lateral walk from `cur`: sets r.path[0] to
  /// k's enclosing chunk and r.found.  False: restart from the head.
  bool walk_bottom(simt::Team& team, Key k, Guarded cur, SlowSearchResult& r,
                   std::uint64_t& reads, BatchCursor* cursor = nullptr);
  /// Lazy fill for a hinted result: run the upper descent for k, recording
  /// path[1..] and keeping lane 0.  Clears `hinted`.
  void fill_upper_path(simt::Team& team, Key k, SlowSearchResult& sr);

  /// Exact-key lateral search at any level; returns {found, chunk reached}.
  std::pair<bool, ChunkRef> find_lateral(simt::Team& team, Key k, ChunkRef start);

  /// searchDown that stops when reaching `target_level` (Algorithm 4.10).
  ChunkRef search_down_to_level(simt::Team& team, int target_level, Key k);

  /// Follow next pointers from a zombie to the first non-zombie chunk.
  /// When `skipped` is non-null the intermediate zombies are appended to it
  /// (the retire list of a successful unlink).  When `stale` is non-null the
  /// chain is walked with generation-checked reads; on a stamp mismatch
  /// `*stale` is set and NULL_CHUNK returned — the caller must restart.
  ChunkRef first_non_zombie(simt::Team& team, const simt::LaneVec<KV>& kv,
                            std::vector<ChunkRef>* skipped = nullptr,
                            bool* stale = nullptr);
  /// Lazily unlink zombies between prev and `first_nz` (searchSlow, §4.2.2).
  void redirect_to_remove_zombie(simt::Team& team, ChunkRef prev,
                                 ChunkRef first_nz);

  // ---- foresight hint index (foresight.cpp; DESIGN.md §14) ----
  /// Hinted start for k's bottom-level lateral walk: consult the published
  /// hint table and validate the result (generation-consistent AND
  /// non-zombie on the first checked read) under the caller's epoch pin.
  /// Exactly one of {kForesightHits, kForesightFallbacks} is recorded per
  /// call, so hits + fallbacks always equals the number of consults.  False
  /// (= take the classic head descent) when detached, unpublished, no hint
  /// covers k, or validation failed — a stale hint is never followed.
  bool foresight_start(simt::Team& team, Key k, Guarded* out);
  /// Republish the hint table when due (never published, invalidated, or
  /// past the dirty-event threshold): claim the single-writer flag, walk the
  /// bottom level under the caller's epoch pin sampling one live chunk per
  /// stride, and atomically swap the double-buffered table.  Abandons on any
  /// stale read or scheduler kill — lookups keep missing until a later
  /// rebuild succeeds.
  void foresight_maybe_rebuild(simt::Team& team);

  // ---- batch engine (batch.cpp; DESIGN.md §10) ----
  /// Ops executed under one shard pin before it is dropped and re-taken.
  /// Bounds how long a shard can hold back the global epoch: without the
  /// refresh a 4096-op shard would pin one epoch for its whole run and no
  /// retired chunk anywhere could complete its grace period.
  static constexpr std::uint32_t kBatchPinRefresh = 64;

  /// search_slow with a warm start: descend from the lowest cursor level
  /// still covering k instead of from the head, and refresh the cursor's
  /// entries along the way.  Returns the same path/found result as
  /// search_slow; any staleness or backtrack-without-prev goes cold
  /// (cursor invalidated, full restart from the head).
  SlowSearchResult batch_search(simt::Team& team, Key k, BatchCursor& cur);

  // ---- insert (insert.cpp) ----
  enum class InsertStatus { kInserted, kDuplicate, kNoMemory };
  bool insert_impl(simt::Team& team, Key k, Value v);
  /// The post-search half of insert_impl: commit <k, v> through the recorded
  /// path (bottom lock, raise loop).  Shared verbatim between the per-op and
  /// batch entry points so their step sequences cannot drift.  A hinted
  /// `sr` gets its upper path filled only when the bottom insert splits and
  /// raises.  Throws bad_alloc on bottom-level pool exhaustion (structure
  /// untouched).
  bool insert_committed(simt::Team& team, Key k, Value v,
                        SlowSearchResult& sr);
  /// Insert into `level` at or right of `enc` (locked on return).  A split
  /// may raise a key other than `k` (at level 0, the fresh chunk's first
  /// key); `*raise_guard` then names that key's chunk, which stays locked
  /// until the caller's raise is done.
  InsertStatus insert_to_level(simt::Team& team, int level, ChunkRef& enc,
                               Key& k, Value v, bool& raise,
                               ChunkRef* raise_guard);
  void execute_insert(simt::Team& team, ChunkRef ref,
                      const simt::LaneVec<KV>& kv, Key k, Value v);

  // ---- split & merge (split_merge.cpp) ----
  struct MovedKeys {
    simt::LaneVec<Key> keys;  // ascending; lane i holds the i-th moved key
    int count = 0;
    ChunkRef moved_to = NULL_CHUNK;
    bool ok = true;  // false: the split's allocation failed, nothing happened
  };
  struct SplitOutcome {
    ChunkRef locked;   // chunk (old or new) containing k; still locked
    ChunkRef fresh;    // the newly allocated chunk; NULL_CHUNK = OOM, in
                       // which case `locked` is the untouched input chunk
    Key raised_key;    // key to raise if the coin flip says so
    bool raise = false;  // the coin flip
    // Still locked when a raise will carry a key that is not in `locked`
    // (level 0, k in the old half); NULL_CHUNK otherwise.
    ChunkRef raise_guard = NULL_CHUNK;
    MovedKeys moved;
  };
  SplitOutcome split_insert(simt::Team& team, ChunkRef split_ref, Key k,
                            Value v, int level);
  /// Split `next_ref` (locked) during a merge; no key inserted.  Returns the
  /// keys moved into the fresh chunk for down-pointer repair.
  MovedKeys split_remove(simt::Team& team, ChunkRef next_ref, int level);
  void execute_remove_merge(simt::Team& team, const simt::LaneVec<KV>& enc_kv,
                            ChunkRef enc_ref, ChunkRef next_ref, Key k);

  // ---- erase (erase.cpp) ----
  bool erase_impl(simt::Team& team, Key k);
  /// The post-search half of erase_impl: lock the bottom enclosing chunk,
  /// re-check containment, peel k out of the upper levels top-down, then
  /// remove it from the bottom.  Shared between the per-op and batch entry
  /// points.  A hinted `sr` gets its upper path filled under the bottom
  /// lock.  False when k vanished between search and lock.
  bool erase_committed(simt::Team& team, Key k, SlowSearchResult& sr);
  /// Remove k from the locked chunk `enc_ref`, merging if underfull.
  /// Releases (or zombifies) every lock it holds either way.  Returns false
  /// only when an *upper-level* merge-path split ran out of memory — nothing
  /// was removed there.  At level 0 it always succeeds: merge-split OOM
  /// falls back to a plain removal that tolerates the underfull chunk.
  bool remove_from_chunk(simt::Team& team, Key k, ChunkRef enc_ref, int level);
  void execute_remove_no_merge(simt::Team& team, const simt::LaneVec<KV>& kv,
                               ChunkRef ref, Key k, bool is_last_chunk);
  void remove_from_last_chunk(simt::Team& team, Key k, ChunkRef ref, int level);

  // ---- down-pointer repair (update_down.cpp) ----
  void update_down_ptrs(simt::Team& team, int level, const MovedKeys& moved);

  // ---- epoch-based reclamation (reclaim.cpp; DESIGN.md §9) ----
  /// Own-limbo depth at which an operation exit runs a reclaim pass.
  static constexpr std::size_t kReclaimBatch = 64;

  /// RAII pin for the calling team's epoch slot.  The *normal* path must
  /// call exit() — a yield point that also runs epoch maintenance (advance
  /// attempt + reclaim pass when limbo is deep).  The destructor only does
  /// a silent, non-yielding unpin: it runs during unwind (TeamKilled,
  /// bad_alloc), where a yield could either terminate the process or
  /// swallow a kill whose lease was already marked crashed.
  class EpochScope {
   public:
    EpochScope(Gfsl& g, simt::Team& team) : g_(g), team_(team) {
      if (g_.epochs_ != nullptr && !g_.epochs_->pinned(team_.id())) {
        g_.epochs_->pin(team_.id());
        top_ = true;
      }
    }
    void exit() {
      if (top_) {
        top_ = false;
        g_.epoch_exit(team_);
      }
    }
    ~EpochScope() {
      if (top_) g_.epochs_->unpin(team_.id());
    }
    EpochScope(const EpochScope&) = delete;
    EpochScope& operator=(const EpochScope&) = delete;

   private:
    Gfsl& g_;
    simt::Team& team_;
    bool top_ = false;
  };

  /// Normal-path epoch exit: one yield point (the epoch announcement), a
  /// reclaim pass when this team's limbo is deep, unpin, advance attempt.
  void epoch_exit(simt::Team& team);

  /// Retire an unlinked zombie into the caller's limbo list.  Must be
  /// called exactly once per unlink, by the unlinking team (the unlink
  /// point is unique: a predecessor's held lock or a won head-swing CAS).
  /// Without an EpochManager this is a no-op — zombies leak, seed-style.
  void retire_chunk(simt::Team& team, ChunkRef ref);

  /// Drain this team's reclaim candidates, scan the upper levels for stale
  /// down-pointer references into them (repairing any found by swinging the
  /// entry to the level-below head), recycle the unreferenced candidates
  /// and requeue the rest.  Returns the number recycled.
  std::size_t reclaim_pass(simt::Team& team);

  /// arena_.alloc_locked with an emergency reclaim attempt on exhaustion.
  /// Returns NULL_CHUNK when the pool is truly out of memory.
  ChunkRef alloc_chunk(simt::Team& team);

  // ---- crash tolerance (recovery.cpp) ----
  /// Spin cap before a waiter falls back to a fresh lateral walk.
  static constexpr int kSpinFallback = 64;

  /// This team's lease word; 0 when no LeaseTable is attached (legacy).
  std::uint32_t lease_word(simt::Team& team) const {
    return leases_ == nullptr ? 0u : leases_->word(team.id());
  }
  IntentSlot* intent_of(int team_id) {
    if (intents_ == nullptr || team_id < 0 ||
        team_id >= sched::LeaseTable::kMaxTeams) {
      return nullptr;
    }
    return intents_ + team_id;
  }
  void publish_intent(simt::Team& team, IntentKind kind, Key k, ChunkRef a,
                      ChunkRef b = NULL_CHUNK, ChunkRef fresh = NULL_CHUNK);
  void clear_intent(simt::Team& team);

  /// One bounded-spin round: a scheduler yield under seeded schedules, an
  /// exponentially growing pause loop when free-running.
  void backoff(simt::Team& team, int round);

  /// Called by a spinner that found `ref` locked (lock entry `lock_kv`).
  /// If the owner's lease expired, repair its published intent and/or steal
  /// the lock.  Returns true when the lock was (probably) freed and the
  /// caller should retry immediately instead of backing off.
  bool maybe_recover(simt::Team& team, ChunkRef ref, KV lock_kv);

  /// True iff `ref`'s lock entry is exactly (kLocked, owner_word) — the
  /// owner-precise guard that scopes every repair and release to the dead
  /// generation that published the intent.
  bool locked_by(ChunkRef ref, std::uint32_t owner_word) const;
  /// CAS-release `ref` if its lock is still exactly (kLocked, owner_word)
  /// and that lease has expired.
  bool release_if_owned(simt::Team& team, ChunkRef ref,
                        std::uint32_t owner_word);
  /// Claim and execute a dead team's intent; false if another (live)
  /// recoverer got there first.  Each repair returns true for roll-forward,
  /// false for roll-back.
  bool recover_intent(simt::Team& team, IntentSlot& slot, std::uint32_t iw);
  bool repair_insert_shift(simt::Team& team, ChunkRef ref, Key k);
  bool repair_erase_shift(simt::Team& team, ChunkRef ref, Key k);
  bool repair_split(simt::Team& team, ChunkRef ref, ChunkRef fresh);
  bool repair_merge(simt::Team& team, ChunkRef enc_ref, ChunkRef next_ref,
                    Key k, std::uint32_t owner);
  /// Resume/undo a partial shift: collapse the single adjacent duplicated
  /// entry by shifting everything right of it one slot left.
  void dedup_shift(simt::Team& team, ChunkRef ref);

  // ---- MVCC versioning (snapshot.cpp; DESIGN.md §13) ----
  /// Chunks visited between scan_at pin refreshes (same rationale as
  /// kBatchPinRefresh: a long scan must not stall reclamation).
  static constexpr std::uint32_t kScanPinRefresh = 64;
  /// Chain length at which a record op opportunistically prunes its chunk's
  /// chain down to the GC watermark.
  static constexpr std::size_t kRecordPruneLen = 8;

  /// The revision a mutating team stamps records with.  Owned commits
  /// (per-op path) begin/end a revision on the team's commit slot; a batch
  /// context (execute_shard) pre-installs the whole-batch revision instead.
  struct CommitCtx {
    Rev rev = 0;
    bool own = false;  // true: this op ran begin_commit and must end it
  };

  /// Scoped per-op revision: on entry, if a SnapshotManager is attached and
  /// no batch revision is installed for this slot, begin_commit; on exit,
  /// end_commit.  No yield points on either edge.  Detached: no-op.
  class CommitScope {
   public:
    CommitScope(Gfsl& g, simt::Team& team) : g_(g) {
      if (g_.snaps_ == nullptr) return;
      slot_ = SnapshotManager::commit_slot(team.id());
      CommitCtx& ctx = g_.commit_ctx_[static_cast<std::size_t>(slot_)];
      if (ctx.rev == 0) {
        ctx = {g_.snaps_->begin_commit(slot_), true};
        own_ = true;
      }
    }
    ~CommitScope() {
      if (own_) {
        g_.commit_ctx_[static_cast<std::size_t>(slot_)] = {};
        g_.snaps_->end_commit(slot_);
      }
    }
    CommitScope(const CommitScope&) = delete;
    CommitScope& operator=(const CommitScope&) = delete;

   private:
    Gfsl& g_;
    int slot_ = 0;
    bool own_ = false;
  };

  /// The installed revision for this team's ops; 0 when detached or when no
  /// CommitScope/batch context is active (e.g. a medic repairing outside an
  /// op — recover_intent opens its own scope).
  Rev commit_rev(simt::Team& team) const {
    if (snaps_ == nullptr) return 0;
    return commit_ctx_[static_cast<std::size_t>(
                           SnapshotManager::commit_slot(team.id()))]
        .rev;
  }

  /// Only bottom-level (level 0) chunks carry version chains; upper levels
  /// are index-only and never stamped.
  bool is_bottom(ChunkRef ref) const {
    return chunk_level_ != nullptr && chunk_level_[ref] == 0;
  }
  void set_chunk_level(ChunkRef ref, int level) {
    if (chunk_level_ != nullptr && ref != NULL_CHUNK) {
      chunk_level_[ref] = static_cast<std::uint8_t>(level);
    }
  }

  /// Stamp a live version record for an insert of <k, v> into bottom chunk
  /// `ref`.  Idempotent: skipped when k already has a live record (crash
  /// repair re-executing a half-done insert keeps the original revision).
  void stamp_insert(simt::Team& team, ChunkRef ref, Key k, Value v);
  /// Stamp k's record in bottom chunk `ref` with this op's erase revision.
  void stamp_erase(simt::Team& team, ChunkRef ref, Key k, Value v_hint);
  /// Copy version records for keys in (lo_excl, hi_incl] moving from `from`
  /// to `to` (split/merge key movement); levels above the bottom are a no-op.
  void copy_version_records(simt::Team& team, ChunkRef from, ChunkRef to,
                            Key lo_excl, Key hi_incl, int level);
  /// Opportunistic chain GC at record-op sites: when `ref`'s chain exceeds
  /// kRecordPruneLen, prune it to the watermark under the held chunk lock,
  /// routing freed records through the epoch ticket limbo.
  void maybe_prune_records(simt::Team& team, ChunkRef ref);
  /// Detach `ref`'s whole chain when the chunk is recycled (reclaim pass /
  /// recovery free-list rebuild).
  void purge_version_records(ChunkRef ref);

  // ---- durable persistence (persist_recovery.cpp; DESIGN.md §12) ----
  /// One persist point: a durable transition just published.  Detached this
  /// is a single pointer test — no fence, no yield, no model traffic — so
  /// the fault-free run is bit-identical to the seed.
  void persist_point() {
    if (region_ != nullptr) region_->barrier();
  }

  /// The medic id recover() runs its repairs under (the last id, outside
  /// every harness's worker range).
  static constexpr int kRecoveryMedicId = sched::LeaseTable::kMaxTeams - 1;

  /// Scrub pass of recover(): drop every upper-level key that no longer
  /// exists in the level below and re-home surviving down pointers whose
  /// target chunk is gone; unlink upper chunks the scrub emptied.  Returns
  /// through the report fields.
  void scrub_upper_levels(RecoveryReport& rep);

  // ---- integrity scrub internals (scrub.cpp; DESIGN.md §15) ----
  /// Stamp `ref`'s seal for its current contents (call sites: every lock
  /// release, with the lock still held).  One pointer test when detached.
  void stamp_seal(simt::Team& team, ChunkRef ref) {
    if (integrity_ != nullptr) {
      integrity_->stamp(ref, arena_.generation(ref, std::memory_order_relaxed),
                        arena_.entries(ref), arena_.dsize());
      team.metric(obs::kCorruptionSealsStamped);
    }
  }
  /// Verify + resolve one chunk: re-check its seal under try_lock and
  /// repair/quarantine on confirmed damage.  Returns false only when the
  /// chunk was busy (suspect flag left set for a later pass).  `rep` may be
  /// null (inline read-path resolution).
  bool scrub_chunk(simt::Team& team, ChunkRef ref, ScrubReport* rep);
  /// Rebuild a damaged upper-level chunk (lock held) from the level below:
  /// keep entries whose key exists below, re-home unverifiable down
  /// pointers, drop the rest.  True unless the chunk must be quarantined.
  bool repair_upper_chunk(simt::Team& team, ChunkRef ref, int level);
  /// Restore a damaged bottom chunk (lock held) from its version-record
  /// chain; succeeds iff the restored slots re-hash to the stored seal.
  bool repair_bottom_chunk(simt::Team& team, ChunkRef ref);
  /// The first non-zombie chunk of `level`'s chain: the one holding the -inf
  /// sentinel.  head_[level] itself may name a zombie that a merge left
  /// behind and no traversal has swung past yet.
  ChunkRef live_head(int level);
  /// Quarantine `ref` (lock held): compute the blast radius, zombify (or,
  /// for a level's live head, evacuate in place), unseal, report.
  void quarantine_chunk(simt::Team& team, ChunkRef ref, int level,
                        ScrubReport* rep);

  // ---- data ----
  GfslConfig cfg_;
  device::DeviceMemory* mem_;
  sched::StepScheduler* sched_;
  sched::LeaseTable* leases_;
  device::EpochManager* epochs_;
  device::PersistRegion* region_;
  SnapshotManager* snaps_;
  ForesightIndex* foresight_;
  IntegritySidecar* integrity_;
  /// Level of every allocated chunk (versioning only stamps level 0);
  /// allocated iff snaps_ != nullptr.  Written under the chunk's lock (or
  /// quiescently); racing readers only ever see it for refs they hold.
  std::unique_ptr<std::uint8_t[]> chunk_level_;
  /// Installed commit revision per commit slot (team ids + batch overflow).
  /// A slot is only touched by its owning team (or the single batch driver),
  /// so plain values suffice.
  std::unique_ptr<CommitCtx[]> commit_ctx_;
  std::unique_ptr<IntentSlot[]> intents_own_;  // backing when not region-mapped
  IntentSlot* intents_;  // one per team id; null w/o leases
  ChunkArena arena_;
  /// Per-chunk write sequence (a seqlock).  A device team loads a chunk in
  /// one coalesced access, so it sees the chunk as of one instant; host
  /// lanes load entries one by one, and a writer's entry store can land
  /// between two of them.  A torn image breaks the shift protocols' "every
  /// key present at every instant" argument: a reader that loads slot i-1
  /// before and slot i after a removal shifts both misses the key moving
  /// between them.  write_entry (always under the chunk's lock, so one
  /// writer per chunk) makes the sequence odd around its store; read_chunk
  /// retries until it saw one even value before and after its loads.
  /// Host-side only: no device traffic, step or yield is modeled.
  std::unique_ptr<std::atomic<std::uint32_t>[]> write_seq_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(arena_.capacity());
  std::atomic<std::uint64_t> chunks_reclaimed_{0};
  std::uint64_t head_device_base_;  // synthetic address of the head array
  std::array<std::atomic<ChunkRef>, kMaxLevels> head_own_;
  std::atomic<ChunkRef>* head_;  // head_own_ or the region's head section
  std::array<std::atomic<std::int64_t>, kMaxLevels> level_chunks_;
  std::atomic<std::uint64_t> traversals_{0};
  std::atomic<std::uint64_t> traversal_chunk_reads_{0};

  friend class GfslInspector;  // white-box test access
};

}  // namespace gfsl::core
