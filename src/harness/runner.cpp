#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness/workload.h"
#include "sched/batch_dispatch.h"

namespace gfsl::harness {

namespace {

using Clock = std::chrono::steady_clock;

/// Instruction-issue proxy for an M&C warp: lockstep instructions per
/// serialized hop epoch (compare + address arithmetic + branch per level
/// step, executed by the warp at the pace of its slowest lane).
constexpr std::uint64_t kMcInstrPerHop = 8;

std::pair<std::size_t, std::size_t> slice(std::size_t total, int workers,
                                          int w) {
  const std::size_t base = total / static_cast<std::size_t>(workers);
  const std::size_t extra = total % static_cast<std::size_t>(workers);
  const auto uw = static_cast<std::size_t>(w);
  const std::size_t begin = uw * base + std::min(uw, extra);
  const std::size_t len = base + (uw < extra ? 1 : 0);
  return {begin, begin + len};
}

/// SIMT-event totals (ballot/shfl/divergence rates, lock events) folded into
/// the team's shard once at the end of the launch — no hot-path cost.
void fold_team_counters(obs::MetricsShard* shard,
                        const simt::TeamCounters& c) {
  if (shard == nullptr) return;
  shard->add(obs::kInstructions, c.instructions);
  shard->add(obs::kBallots, c.ballots);
  shard->add(obs::kShfls, c.shfls);
  shard->add(obs::kDivergentBranches, c.divergent_branches);
  shard->add(obs::kLockAcquires, c.lock_acquires);
  shard->add(obs::kLockSpins, c.lock_spins);
  shard->add(obs::kRestarts, c.restarts);
}

const obs::OpIds& op_ids(OpKind kind) {
  switch (kind) {
    case OpKind::Insert: return obs::kInsertOp;
    case OpKind::Delete: return obs::kEraseOp;
    case OpKind::Contains: break;
  }
  return obs::kContainsOp;
}

/// Kernel prologue: a cold L2 when asked, and the device-stats baseline the
/// run's events are measured against.
device::MemStats begin_kernel(const RunConfig& cfg,
                              device::DeviceMemory& mem) {
  if (cfg.flush_cache_before) mem.flush_cache();
  return mem.snapshot();
}

/// Kernel epilogue for GFSL launches: a coalesced team read is one
/// serialized wait; so is each atomic.
RunResult end_kernel(const LaunchResult& lr, std::size_t n_ops,
                     device::DeviceMemory& mem,
                     const device::MemStats& before) {
  RunResult res;
  res.sim_wall_seconds = lr.seconds;
  res.out_of_memory = lr.oom_teams > 0;
  res.team_totals = lr.team_totals;
  res.kernel.ops = n_ops;
  res.kernel.mem = mem.snapshot() - before;
  res.kernel.mem_epochs = res.kernel.mem.warp_reads + res.kernel.mem.atomics;
  res.kernel.warp_steps = res.team_totals.instructions;
  res.kernel.lock_spins = res.team_totals.lock_spins;
  return res;
}

/// The per-op drivers' launch: team w runs its contiguous slice of `ops` in
/// order through apply(team, w, op), writing each result to the output
/// buffer (a private one when the caller passed none).  A killed team's
/// completed ops still count toward ops_true.
template <class Apply>
RunResult run_slices(int team_size, const std::vector<Op>& ops,
                     const RunConfig& cfg, device::DeviceMemory& mem,
                     Apply&& apply,
                     const std::function<SchedSeat(int)>& seat = {}) {
  const device::MemStats before = begin_kernel(cfg, mem);
  std::vector<std::uint8_t> own;
  std::vector<std::uint8_t>& out = cfg.results != nullptr ? *cfg.results : own;
  out.assign(ops.size(), 0);
  const LaunchResult lr = launch_teams(
      team_size, cfg,
      [&](simt::Team& team, int w) {
        const auto [begin, end] = slice(ops.size(), cfg.num_workers, w);
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = apply(team, w, ops[i]) ? 1 : 0;
        }
      },
      seat);
  RunResult res = end_kernel(lr, ops.size(), mem, before);
  res.ops_true =
      static_cast<std::uint64_t>(std::count(out.begin(), out.end(), 1));
  return res;
}

}  // namespace

LaunchResult launch_teams(
    int team_size, const RunConfig& cfg,
    const std::function<void(simt::Team& team, int w)>& body,
    const std::function<SchedSeat(int)>& seat) {
  // Shards are single-writer and rings are created before the threads
  // spawn, so attachment is race-free.
  if (cfg.metrics != nullptr && cfg.metrics->shards() < cfg.num_workers) {
    throw std::invalid_argument(
        "metrics registry needs at least one shard per worker");
  }
  if (cfg.trace != nullptr) cfg.trace->ensure(cfg.num_workers);

  const auto n = static_cast<std::size_t>(cfg.num_workers);
  std::vector<simt::TeamCounters> counters(n);
  std::atomic<int> oom_teams{0};
  LaunchResult out;
  out.killed.assign(n, 0);
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int w = 0; w < cfg.num_workers; ++w) {
      threads.emplace_back([&, w] {
        const auto uw = static_cast<std::size_t>(w);
        simt::Team team(team_size, w, cfg.seed);
        obs::MetricsShard* shard =
            cfg.metrics != nullptr ? &cfg.metrics->shard(w) : nullptr;
        team.set_metrics(shard);
        if (cfg.trace != nullptr) team.set_trace(cfg.trace->team(w));
        const SchedSeat s = seat ? seat(w) : SchedSeat{cfg.scheduler, w};
        if (s.sched != nullptr &&
            s.sched->mode() == sched::StepScheduler::Mode::RoundRobin) {
          team.set_yield_hook([s] { s.sched->yield(s.id); });
        }
        if (s.sched != nullptr) s.sched->enter(s.id);
        try {
          body(team, w);
        } catch (const std::bad_alloc&) {
          oom_teams.fetch_add(1, std::memory_order_relaxed);
        } catch (const sched::TeamKilled&) {
          out.killed[uw] = 1;
        }
        counters[uw] = team.counters();
        fold_team_counters(shard, team.counters());
        if (s.sched != nullptr && out.killed[uw] == 0) s.sched->leave(s.id);
      });
    }
    for (auto& t : threads) t.join();
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& c : counters) out.team_totals += c;
  out.oom_teams = oom_teams.load();
  return out;
}

bool apply_op(core::Gfsl& sl, simt::Team& team, const Op& op) {
  switch (op.kind) {
    case OpKind::Insert: return sl.insert(team, op.key, op.value);
    case OpKind::Delete: return sl.erase(team, op.key);
    case OpKind::Contains: break;
  }
  return sl.contains(team, op.key);
}

RunResult run_gfsl(core::Gfsl& sl, const std::vector<Op>& ops,
                   const RunConfig& cfg, device::DeviceMemory& mem) {
  return run_slices(sl.team_size(), ops, cfg, mem,
                    [&](simt::Team& team, int, const Op& op) {
                      return apply_op(sl, team, op);
                    });
}

RunResult run_gfsl_batched(core::Gfsl& sl, const std::vector<Op>& ops,
                           const RunConfig& cfg, device::DeviceMemory& mem,
                           const BatchRunOptions& opts,
                           core::BatchResult* batch_out) {
  const device::MemStats before = begin_kernel(cfg, mem);
  std::vector<std::uint8_t> outcomes(
      ops.size(), static_cast<std::uint8_t>(core::BatchOpStatus::kSkipped));
  const auto batches = batch_slices(ops.size(), opts.batch_size);
  const int workers = cfg.num_workers;

  // One kernel launch per batch, drained by every team.  The whole-batch
  // MVCC revision: the first team to reach batch b ends batch b-1's
  // BatchCommit (every shard of it has retired) and opens b's; every shard
  // stamps b's revision, so a snapshot sees none or all of the batch.
  // Commits that killed teams left open end with `launches`.  With no
  // SnapshotManager every batch runs at rev 0 and nobody claims.
  constexpr core::Rev kRevUnset = ~core::Rev{0};
  core::SnapshotManager* snaps = sl.snapshots();
  struct Batch {
    sched::ShardPlan plan;
    std::optional<sched::ShardQueue> queue;
    std::atomic<int> claimed{0};
    std::atomic<core::Rev> rev{kRevUnset};
    std::optional<core::BatchCommit> commit;
  };
  std::vector<Batch> launches(batches.size());

  // Host-side batch prep: sort + shard every launch (this is the work a GPU
  // driver would do — or a tiny sort kernel — between launches; it is timed
  // as part of the batched run so the A/B against per-op dispatch is fair).
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    Batch& bt = launches[b];
    bt.plan = sched::plan_shards(ops.data() + batches[b].first,
                                 batches[b].second - batches[b].first, workers,
                                 opts.target_shard_ops);
    bt.queue.emplace(bt.plan);
    if (snaps == nullptr) bt.rev.store(0);
  }
  const double plan_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // One thread per team for the whole run: StepScheduler::enter is not
  // re-entrant (the start barrier fires exactly once), so batches are
  // separated by a yielding spin barrier instead of join/respawn.  A team is
  // through batch b once it has arrived at b's barrier or the scheduler has
  // killed it; both are recorded while the team holds the baton, so the
  // barrier opens at the same step on every replay, and a team killed while
  // waiting is not counted twice.
  std::vector<std::atomic<std::size_t>> reached(
      static_cast<std::size_t>(workers));
  auto through = [&](std::size_t b) {
    for (int t = 0; t < workers; ++t) {
      if (reached[static_cast<std::size_t>(t)].load(
              std::memory_order_acquire) <= b &&
          (cfg.scheduler == nullptr || !cfg.scheduler->killed(t))) {
        return false;
      }
    }
    return true;
  };
  std::atomic<bool> oom{false};
  std::vector<core::ShardExecStats> team_stats(
      static_cast<std::size_t>(workers));
  std::vector<std::uint64_t> team_steals(static_cast<std::size_t>(workers), 0);
  auto wait = [&](int w) {
    if (cfg.scheduler != nullptr) {
      cfg.scheduler->yield(w);  // may throw TeamKilled
    } else {
      std::this_thread::yield();
    }
  };
  auto drain = [&](simt::Team& team, int w) {
    const auto uw = static_cast<std::size_t>(w);
    for (std::size_t b = 0; b < launches.size(); ++b) {
      Batch& bt = launches[b];
      core::Rev rev = bt.rev.load(std::memory_order_acquire);
      if (rev == kRevUnset) {
        if (bt.claimed.exchange(1, std::memory_order_acq_rel) == 0) {
          if (b > 0) launches[b - 1].commit.reset();
          rev = bt.commit.emplace(snaps).rev();
          bt.rev.store(rev, std::memory_order_release);
        } else {
          while ((rev = bt.rev.load(std::memory_order_acquire)) ==
                 kRevUnset) {
            wait(w);
          }
        }
      }
      const std::size_t off = batches[b].first;
      int s;
      bool stolen = false;
      while ((s = bt.queue->pop(w, &stolen)) >= 0) {
        const auto& sh = bt.plan.shards[static_cast<std::size_t>(s)];
        if (stolen) {
          ++team_steals[uw];
          team.metric(obs::kBatchShardsStolen);
        }
        const core::ShardExecStats ex = sl.execute_shard(
            team, ops.data() + off, bt.plan.order.data(), sh.begin, sh.end,
            outcomes.data() + off, nullptr, rev);
        core::ShardExecStats& mine = team_stats[uw];
        mine.reuses += ex.reuses;
        mine.fulls += ex.fulls;
        mine.pins += ex.pins;
        mine.applied_true += ex.applied_true;
        if (ex.out_of_memory) oom.store(true, std::memory_order_relaxed);
      }
      // Batch boundary: a launch completes before the next begins.
      reached[uw].store(b + 1, std::memory_order_release);
      while (!through(b)) wait(w);
    }
  };
  LaunchResult lr = launch_teams(sl.team_size(), cfg, drain);
  lr.seconds += plan_seconds;

  RunResult res = end_kernel(lr, ops.size(), mem, before);
  res.out_of_memory = res.out_of_memory || oom.load();
  for (const auto& st : team_stats) res.ops_true += st.applied_true;
  if (cfg.results != nullptr) {
    cfg.results->resize(ops.size());
    std::transform(outcomes.begin(), outcomes.end(), cfg.results->begin(),
                   [](std::uint8_t o) {
                     return o == static_cast<std::uint8_t>(
                                     core::BatchOpStatus::kTrue);
                   });
  }
  if (batch_out != nullptr) {
    batch_out->outcomes = std::move(outcomes);
    batch_out->out_of_memory = res.out_of_memory;
    core::BatchStats& bs = batch_out->stats;
    bs = core::BatchStats{};
    bs.ops = ops.size();
    for (const Batch& bt : launches) {
      bs.shards += bt.plan.shards.size();
      for (const auto& sh : bt.plan.shards) {
        bs.shard_sizes.push_back(sh.end - sh.begin);
      }
    }
    for (const auto& st : team_stats) {
      bs.descent_reuses += st.reuses;
      bs.full_descents += st.fulls;
      bs.epoch_pins += st.pins;
    }
    for (const std::uint64_t s : team_steals) bs.steals += s;
  }
  return res;
}

RunResult run_gfsl_paired(core::Gfsl& sl, const std::vector<Op>& ops,
                          const RunConfig& cfg, device::DeviceMemory& mem) {
  if (cfg.num_workers < 2 || cfg.num_workers % 2 != 0) {
    throw std::invalid_argument("paired execution needs an even worker count");
  }
  std::vector<std::unique_ptr<sched::StepScheduler>> warps;
  for (int p = 0; p < cfg.num_workers / 2; ++p) {
    warps.push_back(std::make_unique<sched::StepScheduler>(
        sched::StepScheduler::Mode::RoundRobin, cfg.seed, 2));
  }
  return run_slices(
      sl.team_size(), ops, cfg, mem,
      [&](simt::Team& team, int, const Op& op) {
        return apply_op(sl, team, op);
      },
      [&](int w) {
        return SchedSeat{warps[static_cast<std::size_t>(w / 2)].get(), w % 2};
      });
}

RunResult run_mc(baseline::McSkiplist& sl, const std::vector<Op>& ops,
                 const RunConfig& cfg, device::DeviceMemory& mem) {
  // One lane-stream context per team, allocated by its own thread and read
  // after the join (a killed stream's epochs still count).  M&C runs per
  // lane, so the launch's Team only carries the metrics shard.
  std::vector<std::unique_ptr<baseline::McContext>> ctxs(
      static_cast<std::size_t>(cfg.num_workers));
  RunResult res = run_slices(
      /*team_size=*/32, ops, cfg, mem,
      [&](simt::Team& team, int w, const Op& op) {
        auto& ctx = ctxs[static_cast<std::size_t>(w)];
        if (ctx == nullptr) ctx = std::make_unique<baseline::McContext>(w);
        // No OpScope in the structure: op latency is recorded here, and
        // "steps" are the context's serialized warp epochs.
        obs::MetricsShard* shard = team.metrics();
        Clock::time_point op_t0;
        std::uint64_t op_e0 = 0;
        if (shard != nullptr) {
          op_t0 = Clock::now();
          op_e0 = ctx->warp_epochs();
        }
        bool r = false;
        switch (op.kind) {
          case OpKind::Insert:
            r = sl.insert(*ctx, op.key, op.value, op.mc_height);
            break;
          case OpKind::Delete:
            r = sl.erase(*ctx, op.key);
            break;
          case OpKind::Contains:
            r = sl.contains(*ctx, op.key);
            break;
        }
        if (shard != nullptr) {
          const obs::OpIds& ids = op_ids(op.kind);
          shard->add(ids.count);
          if (r) shard->add(ids.value);
          shard->record(
              ids.wall_ns,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - op_t0)
                      .count()));
          shard->record(ids.steps, ctx->warp_epochs() - op_e0);
        }
        return r;
      });

  std::uint64_t warp_epochs = 0;
  for (const auto& ctx : ctxs) {
    if (ctx != nullptr) warp_epochs += ctx->warp_epochs();
  }
  // Divergence model: a warp of 32 independent lanes advances at its slowest
  // lane; the contexts already folded per-op hop counts into warp epochs.
  // Atomics serialize on top of that (§2.2 "Synchronization").
  res.kernel.mem_epochs = warp_epochs + res.kernel.mem.atomics;
  res.kernel.warp_steps = res.kernel.mem_epochs * kMcInstrPerHop;
  res.kernel.lock_spins = 0;  // lock-free
  return res;
}

}  // namespace gfsl::harness
