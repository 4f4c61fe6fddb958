// Corruption sweep: one injected fault per run, swept across every durable
// section and fault kind (DESIGN.md §15).
//
// The crash sweeps (crash_sweep.h, proc_crash_sweep.h) prove the structure
// survives losing a *writer*; this harness proves it survives losing a
// *word*.  Each run of the matrix  section x kind x seed  builds a seeded
// reference structure, injects exactly one deterministic fault through the
// device::FaultPlane, and then demands the detect/repair/quarantine
// machinery resolve it with zero silent wrong answers:
//
//   * kChunkData runs in memory: a workload is replayed against a std::map
//     model with the IntegritySidecar (plus epochs + snapshots, so bottom
//     repair has version chains to restore from) attached, a sealed live
//     chunk is picked by the seed and one of its data words is damaged, and
//     a scrub pass must either repair the chunk back to the model's exact
//     contents or quarantine it — in which case every missing key must fall
//     inside a reported LostRange and no key may ever come back wrong.
//     kStuckWord additionally re-asserts the corrupt value after the first
//     repair and requires the second scrub pass to escalate to quarantine.
//
//   * kFreeList / kIntents / kSuperblock / kGenerations run against a
//     file-backed PersistRegion: a clean image is written and closed, the
//     section's live window is damaged in a fresh attach, and recover()
//     must either converge to the exact pre-close contents (free-list and
//     gauge state are rebuilt wholesale, generation damage is triaged,
//     garbage intents roll back) or — superblock damage to a protected
//     word — refuse the image with a typed rejection instead of serving it.
//
//   * kDroppedBarrier arms the plane live: N persist barriers are silently
//     skipped during the workload.  Under the MAP_SHARED no-machine-crash
//     model a dropped fence loses nothing, so the run must stay exactly
//     clean — the cell pins the fault model's boundary.
//
// Everything is a pure function of (cfg, section, kind, seed): any failure
// prints a one-line `--corrupt section:kind:seed` repro.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "device/fault_plane.h"

namespace gfsl::harness {

struct CorruptSweepConfig {
  int team_size = 8;
  std::uint64_t ops = 400;       // workload length per run
  std::uint64_t key_range = 96;  // small: chunks stay busy, chains stay deep
  std::uint64_t seeds = 6;       // injection seeds per (section, kind) cell
  std::uint64_t first_seed = 0;  // cell seeds run [first_seed, first_seed+seeds)
  std::uint64_t base_seed = 0x5EED5EEDull;
  std::uint32_t pool_chunks = 1u << 12;
  // Region files for the durable-section cells live here (must exist;
  // removed again on success).
  std::string work_dir = ".";
  // Non-empty: dump a gfsl-postmortem-v1 bundle on the first failure.
  std::string postmortem_dir;
  // Empty = sweep everything; non-empty = restrict the matrix (the CLI's
  // `--corrupt section:kind:seed` single-cell form).
  std::vector<device::FaultSection> sections;
  std::vector<device::FaultKind> kinds;
};

struct CorruptSweepResult {
  bool ok = true;
  std::string error;  // first failure, with its --corrupt repro line
  std::uint64_t runs = 0;
  std::uint64_t injected = 0;        // faults that actually changed a word
  std::uint64_t detected = 0;        // seal mismatches / typed rejections
  std::uint64_t repaired = 0;        // chunks rebuilt in place by scrub
  std::uint64_t quarantined = 0;     // chunks evacuated/zombified by scrub
  std::uint64_t keys_lost = 0;       // all inside reported blast radii
  std::uint64_t rejected_typed = 0;  // recover() refused a damaged image
  std::uint64_t recoveries = 0;      // recover() convergences verified
  std::uint64_t barriers_dropped = 0;
};

/// Narrow `cfg` to the single cell a `SECTION:KIND:SEED` spec names — the
/// repro form a failing sweep prints.  False (cfg untouched) when the spec
/// does not parse.
bool parse_corrupt_cell(const std::string& spec, CorruptSweepConfig* cfg);

/// The full matrix, stopping at the first failing cell.  `progress`, when
/// non-null, gets one line per (section, kind) cell.
CorruptSweepResult run_corrupt_sweep(const CorruptSweepConfig& cfg,
                                     std::FILE* progress = nullptr);

}  // namespace gfsl::harness
