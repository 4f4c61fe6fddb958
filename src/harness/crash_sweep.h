// Exhaustive crash-point sweep: the strongest robustness harness in the repo.
//
// One seeded multi-team run under StepScheduler::Deterministic defines a
// reference interleaving with S global yield steps.  The sweep then re-runs
// that exact schedule S times, killing the victim team at yield step
// 1, 2, ..., S — so the victim dies at *every* reachable point of the
// reference run, including inside insert-shift, erase-shift, split, merge
// and updateDownPtrs critical sections.  After each kill:
//
//   * survivors keep running: expired-lease probing (core/recovery.cpp)
//     lets them roll the victim's half-done mutation forward or back and
//     steal its locks, so they finish their own operations;
//   * a watchdog (kill_all_at) converts any livelock into TeamKilled on a
//     survivor, which the harness reports as a hang;
//   * a medic team (a fresh id outside the scheduled participant set — never
//     the victim's id, which would resurrect its lease epoch mid-history)
//     runs recover_all_expired() to release any leftover dead locks nobody
//     bumped into;
//   * validate() must pass and the recorded history must be per-key
//     linearizable, with the victim's in-flight op treated as *optional*
//     (HistoryEvent::crashed — recovery may have rolled it either way).
//
// The sweep is deterministic end to end: a failure at kill step s reproduces
// with the same (wl_seed, sched_seed, s) triple.  The run itself is
// harness::run_history (history.h) on a harness::Rig (rig.h); this file adds
// the kill schedule, the medic and the post-run checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/options.h"
#include "harness/rig.h"
#include "obs/metrics.h"

namespace gfsl::harness {

struct CrashSweepConfig {
  int workers = 3;      // scheduled teams, ids 0..workers-1
  int team_size = 8;    // chunk size = team size
  int victim = 0;       // team killed at the swept step
  std::uint64_t ops = 96;
  std::uint64_t key_range = 48;
  std::uint64_t wl_seed = 1;
  std::uint64_t sched_seed = 1;
  std::uint32_t pool_chunks = 1u << 14;
  std::uint64_t stride = 1;  // kill at every stride-th step (1 = exhaustive)
  // Watchdog step = baseline_steps * factor + slack.  Survivors still
  // running by then are livelocked; the harness reports a hang.
  std::uint64_t watchdog_factor = 8;
  std::uint64_t watchdog_slack = 4096;
  // What the structure arms (harness/rig.h).  Default: the lease table that
  // makes a kill survivable (leases = false suits only runs with no kill
  // step), and a hint table that, once switched on, rebuilds at stride 1 /
  // threshold 1 — a realistic threshold would never republish at this scale.
  //   * epochs: kills also land in retire/reclaim spans; the medic must
  //     force-quiesce the victim's pin and adopt its limbo.
  //   * snapshots: bulk-load `prefill` pairs and hold a snapshot of them
  //     across the run; every post-run scan_at() over it must return
  //     exactly the prefill (`snapshot_mismatch` otherwise).
  //   * foresight (DESIGN.md §14): a quiescent contains() over the whole key
  //     range must agree with collect() (`foresight_mismatch` otherwise).
  //   * integrity (DESIGN.md §15): a post-medic scrub_pass must report zero
  //     seal mismatches — every release the repair took restamped.
  Attach attach{.leases = true,
                .foresight_stride = 1,
                .foresight_rebuild_threshold = 1};
  std::uint64_t prefill = 24;  // bulk-loaded pairs frozen under the snapshot
  // Batched dispatch (DESIGN.md §10): the whole op array becomes ONE batch —
  // key-sorted, sharded, drained through a stealing ShardQueue — so kills
  // land inside shard execution: mid-shard with a warm cursor, between the
  // per-shard pin and its refresh, inside a stolen shard.  Survivors keep
  // pulling shards; the victim's popped-but-unfinished shard stays partially
  // executed, which the history check must absorb (crashed op = optional,
  // unexecuted ops were never logged).
  bool batched = false;
  std::size_t batch_shard_ops = 0;  // plan_shards granularity; 0 = auto
  // Non-empty: arm clockless flight-recorder rings on every team (including
  // the medic) and, when a run fails — watchdog stall, validate failure,
  // history violation — drop a gfsl-postmortem-v1 bundle into this
  // directory (which must exist).  The rings are cheap enough to keep armed
  // across a full sweep; the dump carries the repro flags in its info map.
  std::string postmortem_dir;

  bool operator==(const CrashSweepConfig&) const = default;
};

/// gfsl_fuzz's crash-mode flags -> config: --workers --team-size --ops
/// --range --victim --crash-stride --prefill --crash-seed (workload seed;
/// the schedule seed is derived from it) --with-epochs --with-snapshots
/// --with-foresight --postmortem-dir.
CrashSweepConfig crash_sweep_config(const Options& opt);

/// Every flag crash_sweep_config reads, spelled so that parsing them back
/// yields `cfg` again: the repro line a failed run prints.
std::string crash_sweep_flags(const CrashSweepConfig& cfg);

struct CrashRunResult {
  bool ok = true;
  std::string error;
  bool hang = false;           // a survivor hit the watchdog
  bool victim_killed = false;  // the kill actually landed (victim was alive)
  bool snapshot_checked = false;  // the held snapshot was scanned and matched
  std::uint64_t steps = 0;     // global yield steps the run consumed
  int locks_recovered = 0;     // dead locks released by the post-run medic
};

struct CrashSweepResult {
  bool ok = true;
  std::string error;
  std::uint64_t baseline_steps = 0;
  std::uint64_t runs = 0;
  std::uint64_t kills_landed = 0;
  std::uint64_t medic_recoveries = 0;  // sum of locks_recovered over runs
  std::uint64_t snapshot_checks = 0;   // held-snapshot scans that matched
  std::uint64_t failed_at_step = 0;    // kill step of the first failure
};

/// One run of the configured workload with the victim killed at the first
/// yield at/after `kill_step` and every team killed at/after
/// `watchdog_step` (pass UINT64_MAX for either to disable).  If `reg` is
/// non-null, teams (and the medic, shard `workers`) record into it; it must
/// have at least workers+1 shards.
CrashRunResult run_crash_at(const CrashSweepConfig& cfg,
                            std::uint64_t kill_step,
                            std::uint64_t watchdog_step,
                            obs::MetricsRegistry* reg = nullptr);

/// The full sweep: a baseline run to count yield steps, then one run per
/// kill step.  Stops at the first failing step.  If `progress` is non-null,
/// prints a coarse progress line every ~10% of the sweep.
CrashSweepResult run_crash_sweep(const CrashSweepConfig& cfg,
                                 obs::MetricsRegistry* reg = nullptr,
                                 std::FILE* progress = nullptr);

}  // namespace gfsl::harness
