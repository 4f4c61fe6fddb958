// Concurrent kernel runner: executes an operation array against GFSL (one
// host thread per team) or M&C (one host thread per lane stream), collecting
// the event counts the cost model consumes.  Every multi-team run in the
// harness — these drivers, run_history, the churn storm and the scan_mixed
// mutators — starts its teams through launch_teams.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "baseline/mc_skiplist.h"
#include "common/types.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "sched/step_scheduler.h"
#include "simt/team.h"

namespace gfsl::harness {

struct RunConfig {
  int num_workers = 8;     // concurrent teams (GFSL) / op streams (M&C)
  std::uint64_t seed = 1;
  sched::StepScheduler* scheduler = nullptr;  // optional deterministic mode
  bool flush_cache_before = true;  // a fresh kernel starts with a cold L2
  /// Optional per-op result array — the kernel's output buffer (§5.1).
  /// Resized to ops.size(); entry i is the boolean result of ops[i].
  std::vector<std::uint8_t>* results = nullptr;
  /// Optional telemetry sinks.  Worker w writes metrics->shard(w) (the
  /// registry must have at least num_workers shards) and appends to
  /// trace->team(w); both must outlive the run.  Null = zero overhead.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
};

struct RunResult {
  model::KernelRun kernel;        // measured events for the cost model
  simt::TeamCounters team_totals; // GFSL only
  double sim_wall_seconds = 0.0;  // host time spent simulating (not modeled)
  std::uint64_t ops_true = 0;     // operations that returned true
  bool out_of_memory = false;     // pool exhausted mid-run (M&C at big ranges)
};

/// A team's seat in a StepScheduler: participant `id` of `sched` (null =
/// free running).
struct SchedSeat {
  sched::StepScheduler* sched = nullptr;
  int id = 0;
};

/// What one multi-team launch reports back.
struct LaunchResult {
  simt::TeamCounters team_totals;  // summed over every team, dead or alive
  std::vector<char> killed;        // per team: unwound by sched::TeamKilled
  int oom_teams = 0;               // teams whose body died of bad_alloc
  double seconds = 0.0;            // host wall time, spawn to join
};

/// The one multi-team kernel launch.  Spawns cfg.num_workers threads; team w
/// is simt::Team(team_size, w, cfg.seed) with metrics->shard(w) and
/// trace->team(w) attached (the registry must have a shard per team), seated
/// at seat(w) — by default participant w of cfg.scheduler — and runs
/// body(team, w).  A RoundRobin seat (the sub-warp pairing's lockstep) also
/// routes the team's spin-loop sync points through its scheduler, so a
/// spinner never starves its warp-mate.  enter() precedes the body; leave()
/// follows only a normal return (or pool exhaustion), never a kill: the
/// killed team's yield already handed the baton on, and a second grant would
/// wake a waiter early and consume the deterministic RNG.  bad_alloc and
/// sched::TeamKilled end a body; either way the team's TeamCounters are
/// folded into its shard and summed.
LaunchResult launch_teams(
    int team_size, const RunConfig& cfg,
    const std::function<void(simt::Team& team, int w)>& body,
    const std::function<SchedSeat(int)>& seat = {});

/// Execute one op through the per-op API and return its boolean result.
bool apply_op(core::Gfsl& sl, simt::Team& team, const Op& op);

/// Execute `ops` against a GFSL instance with `cfg.num_workers` teams.
RunResult run_gfsl(core::Gfsl& sl, const std::vector<Op>& ops,
                   const RunConfig& cfg, device::DeviceMemory& mem);

/// Batched execution mode (DESIGN.md §10).
struct BatchRunOptions {
  /// Ops per kernel launch; 0 = the whole op array as one batch.  Each batch
  /// is key-sorted, sharded and drained by all teams (with stealing) before
  /// the next one starts, mirroring back-to-back kernel launches.
  std::size_t batch_size = 1024;
  /// Shard granularity handed to sched::plan_shards; 0 = auto.
  std::size_t target_shard_ops = 0;
};

/// Execute `ops` in kernel-style batches: sort + shard each batch, teams pull
/// shards from a stealing work queue and carry a warm descent cursor across
/// each shard, pinning their epoch once per shard.  Semantics match
/// run_gfsl except for op interleaving: per-key submission order is
/// preserved (stable sort + shards never split a key), so outcomes are
/// deterministic for any scheduler.  `batch_out`, when non-null, receives
/// submission-ordered BatchOpStatus codes and the batch-level stats.
RunResult run_gfsl_batched(core::Gfsl& sl, const std::vector<Op>& ops,
                           const RunConfig& cfg, device::DeviceMemory& mem,
                           const BatchRunOptions& opts = {},
                           core::BatchResult* batch_out = nullptr);

/// Execute `ops` against the M&C baseline.
RunResult run_mc(baseline::McSkiplist& sl, const std::vector<Op>& ops,
                 const RunConfig& cfg, device::DeviceMemory& mem);

/// Sub-warp-teams extension (thesis Chapter 7): pairs of half-warp teams
/// share a warp under round-robin lockstep alternation, so one warp carries
/// two concurrent operations.  Spinning teams yield every iteration, which
/// is what makes the scheme deadlock-free (a spinner can never starve its
/// warp-mate).  `cfg.num_workers` must be even; `sl.team_size()` should be
/// 16 (two teams fill one 32-lane warp).
RunResult run_gfsl_paired(core::Gfsl& sl, const std::vector<Op>& ops,
                          const RunConfig& cfg, device::DeviceMemory& mem);

}  // namespace gfsl::harness
