// One fault-sweep driver: inject a fault at every point of a seeded run and
// demand that the structure survives each one.
//
// Every sweep is the same loop.  A baseline run (nothing injected) counts the
// injector's points P; the loop then runs points 1, 1+stride, ... <= P (or
// only point `at`), stops at the first failure, and sums one FaultTally.  A
// failing point dumps a gfsl-postmortem-v1 bundle whose info carries the
// repro line fault_sweep_flags() prints; everything is a pure function of the
// config, so that line replays the failure.  Three injectors, each of which
// only knows how to run point k and check it:
//
//   * kSchedulerKill (`gfsl_fuzz --crash-sweep`): one multi-team run under
//     StepScheduler::Deterministic has P global yield steps; point k kills
//     the victim team at step k, so it dies at every reachable point of the
//     reference run, inside insert-shift, erase-shift, split, merge and
//     updateDownPtrs critical sections included.  Survivors keep running
//     (expired-lease probing lets them roll the victim's half-done mutation
//     forward or back and steal its locks); a watchdog turns a livelock into
//     a reported hang; a medic team with a fresh id (never the victim's,
//     which would resurrect its lease epoch mid-history) releases any dead
//     lock nobody bumped into.  Then validate() must pass and the recorded
//     history must be per-key linearizable, the victim's in-flight op being
//     optional (HistoryEvent::crashed).  Armed sidecars add their checks: a
//     snapshot of the bulk-loaded prefill held across the run must scan back
//     exactly, hinted contains() must agree with collect(), and a post-medic
//     scrub must find every seal intact.
//
//   * kProcessKill (`--proc-crash-sweep`): a forked child runs the workload
//     over a fresh file-backed PersistRegion whose k-th persist barrier
//     SIGKILLs the whole process; P is the barrier count the clean baseline
//     child records in the superblock.  The parent attaches the orphaned
//     image, runs Gfsl::recover() and checks the recovered contents against
//     the child's O_APPEND operation journal: a 'B' record without its 'E'
//     is the op the kill caught (optional effect), one worker tightens the
//     check to an exact std::map replay, and with snapshots armed a fresh
//     snapshot must scan back the recovered contents.
//
//   * kFaultCell (`--corrupt-sweep`): point k is cell k of
//     section x kind x seed (DESIGN.md §15), one injected fault per run.
//     Chunk-data cells damage a sealed live chunk in memory and a scrub pass
//     must repair it or quarantine it with every missing key inside a
//     reported blast radius; durable-section cells damage a closed region
//     image and recover() must converge to the exact pre-close contents or
//     (superblock) refuse it with a typed rejection; dropped-barrier cells
//     skip persist barriers during a live run, which must stay exactly clean.
//     This injector arms what each cell needs and ignores `attach`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/options.h"
#include "harness/rig.h"
#include "obs/metrics.h"

namespace gfsl::harness {

enum class Injector { kSchedulerKill, kProcessKill, kFaultCell };

struct FaultSweepConfig {
  Injector injector = Injector::kSchedulerKill;
  std::uint64_t at = 0;  // 0: sweep; K: run only point K after the baseline
  int workers = 3;       // scheduled teams, ids 0..workers-1
  int team_size = 8;     // chunk size = team size
  std::uint64_t ops = 96;
  std::uint64_t key_range = 48;
  std::uint64_t wl_seed = 1;
  std::uint64_t sched_seed = 1;
  std::uint32_t pool_chunks = 1u << 14;
  std::uint64_t stride = 1;  // run every stride-th point (1 = exhaustive)
  // What the structure arms (harness/rig.h): the lease table that makes a
  // kill survivable, and a hint table that, once switched on, rebuilds at
  // stride 1 / threshold 1 (a realistic threshold would never republish at
  // this scale).  The process kill always arms its region and lease table.
  Attach attach{.leases = true,
                .foresight_stride = 1,
                .foresight_rebuild_threshold = 1};
  // Region, journal and corrupted images live here (must exist; a passing
  // point removes its files, a failing one leaves them for inspection).
  std::string work_dir = ".";
  // Non-empty: arm clockless flight-recorder rings and dump a
  // gfsl-postmortem-v1 bundle into this directory (which must exist) on the
  // first failure.
  std::string postmortem_dir;

  // Scheduler kill only.
  int victim = 0;  // team killed at the swept step
  std::uint64_t prefill = 24;  // bulk-loaded pairs frozen under the snapshot
  // Batched dispatch (DESIGN.md §10): the whole op array is ONE batch, so
  // kills land inside shard execution (mid-shard with a warm cursor, inside
  // a stolen shard); the victim's shard stays partially executed.
  bool batched = false;
  std::size_t batch_shard_ops = 0;  // plan_shards granularity; 0 = auto

  // FaultPlane cell only: injection seeds per (section, kind).
  std::uint64_t corrupt_seeds = 6;

  bool operator==(const FaultSweepConfig&) const = default;
};

/// gfsl_fuzz's sweep flags -> config.  The mode flag (--crash-sweep,
/// --proc-crash-sweep, --corrupt-sweep) picks the injector and its defaults;
/// then --at --workers --team-size --ops --range --pool --crash-stride
/// --postmortem-dir, the seed (--crash-seed; --seed for the corrupt sweep;
/// the schedule seed is derived from it), --with-epochs --with-snapshots
/// (kills only), --work-dir (process kill and cells), --victim --prefill
/// --with-foresight (scheduler kill) and --corrupt-seeds (cells).
FaultSweepConfig fault_sweep_config(const Options& opt);

/// Every flag fault_sweep_config reads for `cfg.injector`, mode flag first,
/// spelled so that parsing them back yields `cfg` again.
std::string fault_sweep_flags(const FaultSweepConfig& cfg);

/// What a sweep counted, summed over its points (the baseline included; only
/// the process kill's baseline counts anything).  Each injector fills its
/// own rows.
struct FaultTally {
  std::uint64_t runs = 0;
  std::uint64_t kills_landed = 0;      // the victim or the child was alive
  std::uint64_t locks_released = 0;    // by the medic or by recover()
  std::uint64_t snapshot_checks = 0;   // held-snapshot scans that matched
  std::uint64_t intents_replayed = 0;
  std::uint64_t chunks_freed = 0;      // free-list rebuild sizes
  std::uint64_t injected = 0;          // faults that changed a word
  std::uint64_t detected = 0;          // seal mismatches, typed rejections
  std::uint64_t repaired = 0;          // chunks rebuilt in place by scrub
  std::uint64_t quarantined = 0;       // chunks evacuated/zombified by scrub
  std::uint64_t keys_lost = 0;         // all inside reported blast radii
  std::uint64_t rejected_typed = 0;    // recover() refused a damaged image
  std::uint64_t recoveries = 0;        // recover() convergences verified
  std::uint64_t barriers_dropped = 0;

  FaultTally& operator+=(const FaultTally& o);
  bool operator==(const FaultTally&) const = default;
};

/// One run: point `k` (0 = the baseline, nothing injected) of a sweep whose
/// baseline counted `points`.
struct FaultPoint {
  std::string error;          // empty: the point passed
  std::uint64_t crossed = 0;  // injection points the run crossed
  FaultTally tally;
};

struct FaultSweepResult {
  bool ok = true;
  std::string error;
  std::string repro;            // fault_sweep_flags at the failing point
  std::uint64_t points = 0;     // injection points the baseline counted
  std::uint64_t failed_at = 0;  // point of the first failure (0: baseline)
  FaultTally tally;
};

/// Run point `k` alone.  k = 0 is the baseline (gfsl_fuzz's round mode runs
/// just that); the scheduler kill's watchdog needs `points` for k > 0.  If
/// `reg` is non-null, teams (and the medic, shard `workers`) record into it;
/// it must have at least workers+1 shards.
FaultPoint run_fault_point(const FaultSweepConfig& cfg, std::uint64_t k,
                           std::uint64_t points,
                           obs::MetricsRegistry* reg = nullptr);

/// The sweep: the baseline, then every stride-th point (or point `at`),
/// stopping at the first failure.  If `progress` is non-null, prints the
/// running tally every ~10% of the sweep.
FaultSweepResult run_fault_sweep(const FaultSweepConfig& cfg,
                                 obs::MetricsRegistry* reg = nullptr,
                                 std::FILE* progress = nullptr);

/// The mode flag's name without dashes, e.g. "crash-sweep".
const char* injector_mode(Injector injector);

/// The injector's rows of `t`, e.g. "510 runs over 510 steps (stride 1),
/// 510 kills landed, 31 medic recoveries, 0 snapshot checks".
std::string fault_tally_summary(const FaultSweepConfig& cfg,
                                std::uint64_t points, const FaultTally& t);

}  // namespace gfsl::harness
