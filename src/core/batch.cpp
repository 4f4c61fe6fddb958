// Batch execution engine (DESIGN.md §10): cursor-carrying operation variants
// plus the per-shard driver.  A team executing a key-sorted shard descends
// from its previous search's path instead of from the head (amortized
// descent), and pins its epoch once per shard instead of once per op.
//
// batch_search is search_slow (Algorithm 4.6) with a warm start.  The reuse
// argument: a chunk's key coverage only ever extends leftward (merges grow a
// successor's range toward smaller keys; removing a chunk's max shrinks it
// from the right) and keys only migrate rightward (insert shifts, splits,
// merges), so a chunk that once enclosed key k' stays at-or-left of the
// chunk enclosing any k >= k' for as long as it lives.  A cached max can
// therefore only be an over-estimate, which the ordinary lateral walk
// corrects — never a wrong skip.  Recycling voids the argument, so every
// cursor entry carries its acquisition-time generation stamp and the cursor
// never outlives the epoch pin it was built under (execute_shard invalidates
// it at every pin refresh; any stale read goes cold).
#include "core/batch.h"

#include <stdexcept>

#include "core/gfsl.h"
#include "sched/batch_dispatch.h"

namespace gfsl::core {

using simt::Team;

Gfsl::SlowSearchResult Gfsl::batch_search(Team& team, Key k,
                                          BatchCursor& cur) {
  // The cursor contract is ascending keys; an out-of-order key would start
  // at a chunk possibly *right* of its enclosing chunk, so go cold instead.
  if (cur.warm() && k < cur.last_key) cur.invalidate();

  std::uint64_t reads = 0;
  bool use_cursor = cur.warm();
  bool counted = false;
  for (;;) {
    SlowSearchResult r;
    reset_path(team, r.path);

    // Warm start: the lowest cached level whose max still covers k.  Levels
    // above it keep their cursor chunks as path entries — each was on a
    // previous descent's path for a key <= k, which is exactly the "k is
    // laterally reachable from here" invariant the commit halves need.
    int start_level = -1;
    if (use_cursor) {
      for (int l = 0; l <= cur.height; ++l) {
        const BatchCursor::Entry& e = cur.levels[static_cast<std::size_t>(l)];
        if (e.ref != NULL_CHUNK && k <= e.max) {
          start_level = l;
          break;
        }
      }
    }

    // The sorted cursor is the batch path's only accelerator: a cold start
    // descends from the head (never from a foresight hint), so it records
    // every level and the next ascending key can reuse all of them.
    int height;
    int descent_top;
    Guarded start;
    if (start_level >= 0) {
      for (int l = start_level + 1; l <= cur.height; ++l) {
        const ChunkRef c = cur.levels[static_cast<std::size_t>(l)].ref;
        if (c != NULL_CHUNK) r.path[l] = c;
      }
      height = start_level;
      descent_top = cur.height;
      const BatchCursor::Entry& e =
          cur.levels[static_cast<std::size_t>(start_level)];
      start = Guarded{e.ref, e.gen};
      if (!counted) {
        counted = true;
        ++cur.reuses;
        team.metric(obs::kBatchDescentReuses);
      }
    } else {
      height = height_coop(team);
      descent_top = height;
      start = guard_ref(head_of(team, height));
      if (!counted) {
        counted = true;
        ++cur.fulls;
        team.metric(obs::kBatchFullDescents);
      }
    }

    // Any staleness or backtrack-without-prev goes cold: the cursor is
    // dropped and the search restarts from the head.
    Guarded bottom;
    if (!descend_upper(team, k, height, start, r.path, &bottom, reads, &cur) ||
        !walk_bottom(team, k, bottom, r, reads, &cur)) {
      use_cursor = false;
      cur.invalidate();
      continue;
    }
    cur.height = descent_top;
    cur.last_key = k;
    traversal_chunk_reads_.fetch_add(reads, std::memory_order_relaxed);
    traversals_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
}

bool Gfsl::contains_batch(Team& team, Key k, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kContainsOp, k);
  EpochScope epoch(*this, team);
  const SlowSearchResult sr = batch_search(team, k, cur);
  epoch.exit();
  scope.set_result(sr.found);
  return sr.found;
}

bool Gfsl::insert_batch(Team& team, Key k, Value v, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kInsertOp, k);
  // The commit half walks the recorded path with unchecked reads, which is
  // only sound while nothing recorded into the cursor can be recycled.  An
  // enclosing pin (execute_shard) guarantees that; without one, each op's
  // own pin is the protection boundary, so warm reuse must be forfeited.
  if (epochs_ != nullptr && !epochs_->pinned(team.id())) cur.invalidate();
  EpochScope epoch(*this, team);
  bool ok;
  {
    SlowSearchResult sr = batch_search(team, k, cur);
    if (sr.found) {
      ok = false;
    } else {
      ok = insert_committed(team, k, v, sr);
    }
  }
  epoch.exit();
  scope.set_result(ok);
  return ok;
}

bool Gfsl::erase_batch(Team& team, Key k, BatchCursor& cur) {
  if (k < MIN_USER_KEY || k > MAX_USER_KEY) {
    throw std::invalid_argument("key outside the user key range");
  }
  simt::OpScope scope(team, obs::kEraseOp, k);
  if (epochs_ != nullptr && !epochs_->pinned(team.id())) cur.invalidate();
  EpochScope epoch(*this, team);
  bool ok;
  {
    SlowSearchResult sr = batch_search(team, k, cur);
    if (!sr.found) {
      ok = false;
    } else {
      ok = erase_committed(team, k, sr);
    }
  }
  epoch.exit();
  scope.set_result(ok);
  return ok;
}

ShardExecStats Gfsl::execute_shard(Team& team, const Op* ops,
                                   const std::uint32_t* order,
                                   std::uint32_t begin, std::uint32_t end,
                                   std::uint8_t* outcomes,
                                   BatchOpObserver* observer, Rev batch_rev) {
  ShardExecStats ex;
  BatchCursor cur;
  // Install the whole-batch revision for this team's ops: the per-op
  // CommitScopes see a non-zero context and stamp `batch_rev` instead of
  // allocating their own.  The caller keeps the batch's commit slot
  // registered across every shard, so no snapshot can land between two
  // shards of one batch.  Restored even on a kill (the repair stamps under
  // its own scope).
  struct BatchRevGuard {
    Gfsl& g;
    int slot;
    bool set = false;
    ~BatchRevGuard() {
      if (set) g.commit_ctx_[static_cast<std::size_t>(slot)] = {};
    }
  } rev_guard{*this, 0};
  if (snaps_ != nullptr && batch_rev != 0) {
    rev_guard.slot = SnapshotManager::commit_slot(team.id());
    CommitCtx& ctx = commit_ctx_[static_cast<std::size_t>(rev_guard.slot)];
    if (ctx.rev == 0) {
      ctx = {batch_rev, false};
      rev_guard.set = true;
    }
  }
  // Pin once per shard, not once per op (the batch engine's reclamation
  // contract).  The per-op EpochScopes inside the *_batch calls see the slot
  // already pinned and become no-ops.
  const bool own_pin = epochs_ != nullptr && !epochs_->pinned(team.id());
  if (own_pin) {
    epochs_->pin(team.id());
    ++ex.pins;
    team.metric(obs::kBatchEpochPins);
  }
  std::uint32_t since_refresh = 0;
  try {
    for (std::uint32_t i = begin; i < end; ++i) {
      if (own_pin && since_refresh++ >= kBatchPinRefresh) {
        // Refresh the pin so a long shard cannot hold the global epoch
        // back.  The cursor must not outlive the pin interval it was built
        // under, so it goes cold with it.
        since_refresh = 0;
        epoch_exit(team);
        cur.invalidate();
        epochs_->pin(team.id());
        ++ex.pins;
        team.metric(obs::kBatchEpochPins);
      }
      const std::uint32_t idx = order[i];
      const Op& op = ops[idx];
      if (observer != nullptr) observer->on_begin(idx, op);
      bool executed = true;
      bool r = false;
      try {
        switch (op.kind) {
          case OpKind::Insert:
            r = insert_batch(team, op.key, op.value, cur);
            break;
          case OpKind::Delete:
            r = erase_batch(team, op.key, cur);
            break;
          case OpKind::Contains:
            r = contains_batch(team, op.key, cur);
            break;
        }
      } catch (const std::bad_alloc&) {
        // Pool exhausted even after emergency reclaims.  The structure is
        // untouched by the failed op; mark it skipped and keep draining —
        // later erases may free the memory a retry would need.
        executed = false;
        ex.out_of_memory = true;
      }
      if (executed) {
        outcomes[idx] = static_cast<std::uint8_t>(r ? BatchOpStatus::kTrue
                                                    : BatchOpStatus::kFalse);
        if (r) ++ex.applied_true;
        if (observer != nullptr) observer->on_end(idx, op, r);
      } else {
        outcomes[idx] = static_cast<std::uint8_t>(BatchOpStatus::kSkipped);
        if (observer != nullptr) observer->on_skipped(idx, op);
      }
    }
  } catch (...) {
    // TeamKilled (or any other non-op failure): silent unpin, as in
    // EpochScope's destructor — a yield here could swallow the kill.
    if (own_pin && epochs_->pinned(team.id())) epochs_->unpin(team.id());
    throw;
  }
  if (own_pin) epoch_exit(team);
  ex.reuses = cur.reuses;
  ex.fulls = cur.fulls;
  team.metric(obs::kBatchShardsExecuted);
  if (team.metrics() != nullptr) {
    team.metrics()->record(obs::kBatchShardOps, end - begin);
  }
  return ex;
}

BatchCommit::BatchCommit(SnapshotManager* snaps) : snaps_(snaps) {
  if (snaps_ == nullptr) return;
  slot_ = snaps_->acquire_batch_slot();
  if (slot_ >= 0) rev_ = snaps_->begin_commit(slot_);
}

BatchCommit::~BatchCommit() {
  if (slot_ < 0) return;
  snaps_->end_commit(slot_);
  snaps_->release_batch_slot(slot_);
}

BatchResult run_batch(Gfsl& sl, Team& team, const BatchRequest& ops,
                      std::size_t target_shard_ops) {
  BatchResult res;
  res.stats.ops = ops.size();
  res.outcomes.assign(ops.size(),
                      static_cast<std::uint8_t>(BatchOpStatus::kSkipped));
  if (ops.empty()) return res;

  const sched::ShardPlan plan = sched::plan_shards(ops, 1, target_shard_ops);
  res.stats.shards = plan.shards.size();
  res.stats.shard_sizes.reserve(plan.shards.size());

  // The batch commit slot stays registered until every shard has drained.
  const BatchCommit commit(sl.snapshots());
  for (const auto& s : plan.shards) {
    res.stats.shard_sizes.push_back(s.end - s.begin);
    const ShardExecStats ex =
        sl.execute_shard(team, ops.data(), plan.order.data(), s.begin, s.end,
                         res.outcomes.data(), nullptr, commit.rev());
    res.stats.descent_reuses += ex.reuses;
    res.stats.full_descents += ex.fulls;
    res.stats.epoch_pins += ex.pins;
    res.out_of_memory = res.out_of_memory || ex.out_of_memory;
  }
  return res;
}

}  // namespace gfsl::core
