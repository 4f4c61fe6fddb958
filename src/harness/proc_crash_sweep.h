// Whole-process crash sweep: fork, SIGKILL at every persist point, recover.
//
// The in-process crash sweep (crash_sweep.h) kills one *team* and lets the
// survivors repair it.  This harness kills the *process*: a forked child
// runs a seeded deterministic workload over a fresh file-backed
// device::PersistRegion with the n-th persist barrier armed to SIGKILL the
// whole process mid-protocol.  The parent then attaches the orphaned region
// file, runs Gfsl::recover() — death certificates, intent replay, upper
// scrub, free-list rebuild, strict validate — and verifies the recovered
// contents against the child's operation journal:
//
//   * the journal is an O_APPEND file of fixed 16-byte records, one 'B'
//     (begin) record written before each operation starts and one 'E' (end)
//     record after it returns, so a single write() each — atomic under
//     O_APPEND — and the record's position in the file is its logical tick;
//   * a 'B' with no matching 'E' is the op the crash caught mid-flight: it
//     enters the per-key linearizability check as *crashed* (effect
//     optional — recovery may have rolled it either way);
//   * with workers == 1 the journal is a sequential program and the check
//     tightens to an exact std::map replay: every completed op's result must
//     match, and the recovered contents must equal the model either with or
//     without the one crashed op applied.
//
// A baseline run (nothing armed) exits cleanly through mark_clean(), which
// records the workload's total persist-point count P in the superblock; the
// sweep then re-runs the same seeds P/stride times, killing at point
// 1, 1+stride, ... — every durable transition of the reference run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/rig.h"

namespace gfsl::harness {

struct ProcCrashSweepConfig {
  int workers = 2;    // child worker threads, team ids 0..workers-1
  int team_size = 8;  // chunk size = team size
  std::uint64_t ops = 160;
  std::uint64_t key_range = 64;
  std::uint64_t wl_seed = 1;
  std::uint64_t sched_seed = 1;
  std::uint32_t pool_chunks = 1u << 14;
  std::uint64_t stride = 1;  // kill at every stride-th persist point
  // What child and parent arm (harness/rig.h).  The region — created fresh
  // in the child, attached in the parent — and its lease table are always
  // armed by the sweep itself; `attach.persist` is ignored.
  //   * epochs: kills also land inside retire/recycle transitions and
  //     recovery must rebuild limbo accounting from the generation stamps.
  //   * snapshots: child kills also land inside version-record stamps,
  //     commit-slot windows and durable revision CAS-max updates.  After
  //     recover(), the parent opens a fresh snapshot whose scan_at must equal
  //     the recovered contents exactly (the chains died with the child; every
  //     surviving key resolves as legacy), and the restored revision clock
  //     must be at least the durable revision — failures dump a
  //     `snapshot_mismatch` postmortem.
  Attach attach;
  // Region + journal live under this directory (must exist; files are
  // recreated per run and removed on success).
  std::string work_dir = ".";
  // Child wall-clock guard: a livelocked child is killed by its own alarm()
  // and reported as a hang.
  unsigned alarm_seconds = 120;
  // Non-empty: on a failed run, dump a gfsl-postmortem-v1 bundle of the
  // recovered (or part-recovered) structure into this directory.
  std::string postmortem_dir;
};

struct ProcCrashSweepResult {
  bool ok = true;
  std::string error;
  std::uint64_t persist_points = 0;  // kill points the baseline discovered
  std::uint64_t runs = 0;            // child runs, baseline included
  std::uint64_t kills_landed = 0;    // children that died by SIGKILL
  std::uint64_t locks_released = 0;  // summed over every recover()
  std::uint64_t intents_replayed = 0;
  std::uint64_t chunks_freed = 0;    // summed free-list rebuild sizes
  std::uint64_t failed_at_point = 0; // kill point of the first failure
};

/// The full sweep: one clean baseline child to count persist points, then
/// one forked child per swept kill point, each recovered and verified in
/// the parent.  Stops at the first failing point.  If `progress` is
/// non-null, prints a coarse progress line every ~10% of the sweep.
ProcCrashSweepResult run_proc_crash_sweep(const ProcCrashSweepConfig& cfg,
                                          std::FILE* progress = nullptr);

}  // namespace gfsl::harness
