// Shared experiment drivers: build a structure, prefill it per §5.1, run the
// operation array with concurrent workers, and feed the measured events
// through the GPU cost model.  Every bench binary is a thin loop over these.
#pragma once

#include <cstdint>
#include <vector>

#include "common/env.h"
#include "common/stats.h"
#include "harness/rig.h"
#include "harness/runner.h"
#include "harness/workload.h"
#include "model/cost_model.h"
#include "model/occupancy.h"

namespace gfsl::harness {

struct StructureSetup {
  int team_size = 32;        // GFSL chunk/team size
  double p_chunk = 1.0;      // GFSL raise probability
  int warps_per_block = 16;  // launch config for the occupancy model
  int num_workers = 8;       // concurrent host threads in the simulator
  std::uint64_t warmup_ops = 10'000;  // untimed cache-warming operations
  /// 0 = per-op dispatch (the seed's mode).  > 0 = kernel-style batched
  /// execution: the measured op array is cut into batches of this many ops,
  /// each key-sorted, sharded and drained by all teams (DESIGN.md §10).
  std::size_t batch_size = 0;
  /// Optional telemetry for the *measured* run (warmup stays dark).  The
  /// registry needs >= num_workers shards; after the run the structure
  /// gauges (height, live/zombie chunks, occupancy, ...) are sampled into
  /// it.  Both must outlive the measure_* call.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
  /// Non-empty: after the measured GFSL run, validate the structure and
  /// write a gfsl-postmortem-v1 bundle to this exact path (reason
  /// "on_demand" when the structure is healthy, "validate_failure"
  /// otherwise).  When no TraceSession is attached, a clockless
  /// flight-recorder session is armed for the measured run so the bundle
  /// carries per-team event tails.  GFSL only; ignored by measure_mc.
  std::string postmortem_out;
  /// Sidecars armed on the GFSL structure (harness/rig.h); GFSL only,
  /// ignored by measure_mc.  The costs the overhead campaigns measure:
  ///   * persist: back the arena with a file-backed device::PersistRegion
  ///     (its lease table comes with it), so every mutating transition of the
  ///     measured run crosses a persist barrier; the run ends with a
  ///     clean-shutdown mark.
  ///   * foresight (DESIGN.md §14): per-op point operations jump straight to
  ///     a hinted bottom chunk instead of descending from the head (batched
  ///     dispatch keeps its sorted cursor); the table is primed before the
  ///     warmup.  Hit/fallback/staleness counters land in the registry.
  ///   * integrity (DESIGN.md §15): every lock release restamps the chunk's
  ///     data-slot seal and checked reads verify it on their cold path.
  Attach attach;
  /// Arm a core::SnapshotManager (plus an EpochManager, so version chains
  /// are GC'd to the min-snapshot watermark) and run a concurrent scanner
  /// thread through snapshot() + scan_at() for the whole measured run.  The
  /// scanner's traffic lands in Measurement::snapshot_* and, when a metrics
  /// registry with > num_workers shards is attached, in shard num_workers —
  /// it does not count toward the modeled MOPS.  GFSL only.
  bool snapshot_scan = false;
  /// With integrity: run this many online scrub passes after the measured
  /// run (a medic team walking every sealed chunk) and accumulate their
  /// reports into Measurement::scrub_*.
  int scrub_passes = 0;
};

struct Measurement {
  double model_mops = 0.0;  // modeled GTX-970 throughput (the paper's metric)
  double sim_mops = 0.0;    // raw simulator throughput (informational)
  bool oom = false;         // device pool exhausted (paper: M&C at 30M+)
  model::ModelResult detail;
  model::KernelRun kernel;
  simt::TeamCounters team_totals;  // GFSL only
  double avg_chunks_per_traversal = 0.0;  // GFSL only (§5.2 p_chunk metric)
  /// Hint-table publishes over the whole launch, priming included (the
  /// priming team carries no metrics shard).  Populated when foresight is
  /// armed.
  std::uint64_t foresight_rebuilds = 0;
  core::BatchStats batch;  // populated when setup.batch_size > 0
  // Populated when setup.snapshot_scan: concurrent scan_at traffic.
  std::uint64_t snapshot_scans = 0;          // scans that completed kOk
  std::uint64_t snapshot_scan_items = 0;     // pairs harvested across them
  std::uint64_t snapshot_scans_expired = 0;  // snapshots expired mid-scan
  // Populated when integrity is armed: sidecar state at teardown plus the
  // accumulated post-run scrub results (zero passes => zeros).
  std::uint64_t sealed_chunks = 0;           // chunks carrying a valid seal
  std::uint64_t scrub_suspects = 0;          // suspect flags still pending
  std::uint64_t scrub_chunks_scanned = 0;
  std::uint64_t scrub_mismatches = 0;
  std::uint64_t scrub_repaired = 0;
  std::uint64_t scrub_quarantined = 0;
};

/// One measured GFSL launch: fresh structure + prefill + warmup + timed run.
Measurement measure_gfsl(const WorkloadConfig& wl, const StructureSetup& setup);

/// One measured M&C launch.
Measurement measure_mc(const WorkloadConfig& wl, const StructureSetup& setup);

/// One measured launch of the sub-warp-teams extension: GFSL-16 with two
/// teams per warp (thesis Chapter 7 future work).  `setup.team_size` is
/// forced to 16 and `setup.num_workers` rounded to even.
Measurement measure_gfsl_dual(const WorkloadConfig& wl,
                              const StructureSetup& setup);

/// Repeat with per-repetition seeds and summarize the modeled throughput
/// (the paper reports means of 10 runs with 95% CIs, §5.1).
struct Repeated {
  Summary mops;
  bool oom = false;
  std::vector<double> samples;  // per-repetition modeled MOPS, in run order
};
Repeated repeat_gfsl(WorkloadConfig wl, const StructureSetup& setup, int reps);
Repeated repeat_mc(WorkloadConfig wl, const StructureSetup& setup, int reps);
Repeated repeat_gfsl_dual(WorkloadConfig wl, const StructureSetup& setup,
                          int reps);

/// The paper's key-range sweep points (10K ... max_range).
std::vector<std::uint64_t> sweep_ranges(std::uint64_t max_range);

/// Quiescent post-run sampling of the structure gauges (height, chunk
/// population, zombie share, slot occupancy, epoch lag) into `reg`.  Also
/// used by external drivers (gfsl_fuzz --metrics-json) that run the
/// structure outside measure_gfsl.
void sample_structure_gauges(obs::MetricsRegistry& reg, const core::Gfsl& sl);

/// Free-running churn storm: teams 0..workers-1 each draw ops/workers 50/50
/// insert/erase ops over keys [1, range] from their own
/// Xoshiro256ss(derive_seed(seed, w)) and stop at pool exhaustion.  One
/// launch_teams launch: team w records into metrics->shard(w) and
/// trace->team(w) when given.
LaunchResult run_churn_storm(core::Gfsl& sl, int workers, std::uint64_t ops,
                             std::uint64_t range, std::uint64_t seed,
                             obs::MetricsRegistry* metrics = nullptr,
                             obs::TraceSession* trace = nullptr);

/// Device pool capacities emulating the GTX 970's 4 GB memory (§5.3: M&C
/// "runs out of memory for larger structures").
std::uint32_t gfsl_pool_chunks(const WorkloadConfig& wl, int team_size);
std::uint32_t mc_pool_slots(const WorkloadConfig& wl);

/// First-order update-contention correction.
///
/// The simulator runs ~8 concurrent workers; the modeled GPU runs thousands
/// of lanes (M&C) / hundreds of teams (GFSL), so conflict-driven retries —
/// CAS retry storms in M&C, lock waits in GFSL — are drastically
/// under-sampled in the measured events.  The correction adds the expected
/// extra work analytically: two operations conflict when both are updates
/// and their windows overlap on the same target, so the per-op conflict rate
/// is  p = C_eff * u^2 * window / targets  (C_eff = modeled ops in flight,
/// u = update fraction, targets = nodes or chunks), amplified by retry
/// feedback 1/(1-p).  M&C's optimistic window spans the whole operation;
/// GFSL holds its chunk locks for only a small fraction of one.
/// Negligible for read-mostly mixes; decisive for the §5.1 single-op-type
/// tests at small key ranges.
struct ContentionInputs {
  double structure_keys;    // average live keys during the run
  double update_fraction;   // (i + d) / 100
};
void apply_gfsl_contention(model::KernelRun& k, const model::OccupancyResult& occ,
                           const ContentionInputs& c, int team_size);
void apply_mc_contention(model::KernelRun& k, const model::OccupancyResult& occ,
                         const ContentionInputs& c);

}  // namespace gfsl::harness
