// One way to build a GFSL structure with its sidecars.
//
// Every harness driver (sweeps, campaigns, fuzz modes, tools) builds its
// structure here instead of wiring the Gfsl constructor's nullable pointers
// itself.  `Attach` names what to arm; `Rig` owns the device memory, the
// sidecars and the structure built from it.  The one wiring rule that
// matters lives here and nowhere else: a persist region always gets a lease
// table bound to its lease words — fresh for a created region, adopted for
// an attached one — because the durability protocol's death certificates
// are the lease words.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/foresight.h"
#include "core/gfsl.h"
#include "core/integrity.h"
#include "core/snapshot.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "device/persist.h"
#include "sched/lease.h"
#include "sched/step_scheduler.h"

namespace gfsl::harness {

/// What to arm on a structure.  `Attach{}` arms nothing: the seed's plain
/// skiplist over an in-memory arena.
struct Attach {
  enum class Integrity { kOff, kCrc32c, kXorFold };
  struct Persist {
    std::string path;
    bool adopt = false;  // false: create a fresh region; true: attach one
    bool operator==(const Persist&) const = default;
  };

  bool leases = false;     // in-memory LeaseTable (implied by `persist`)
  bool epochs = false;     // EpochManager: reclamation instead of leaking
  bool snapshots = false;  // SnapshotManager: MVCC snapshot()/scan_at()
  bool foresight = false;  // ForesightIndex hint table (DESIGN.md §14)
  std::uint32_t foresight_stride = 2;
  std::uint64_t foresight_rebuild_threshold = 256;
  Integrity integrity = Integrity::kOff;  // IntegritySidecar seal algorithm
  std::optional<Persist> persist = {};    // file-backed PersistRegion

  bool operator==(const Attach&) const = default;
};

/// gfsl_fuzz's spelling of the armed sidecars that have a flag:
/// " --with-epochs --with-snapshots --with-foresight", each present only
/// when armed.  Leases, integrity and persistence have no such flag.
std::string attach_flags(const Attach& a);

/// Owns a structure and everything attached to it.  Destruction order is
/// structure first, then sidecars, region and memory.
class Rig {
 public:
  /// Build `cfg` with `attach` armed.  `scheduler` (optional) is handed to
  /// the structure, and the lease table, when one is armed, is attached to
  /// it.  `open_region` (optional, borrowed) replaces `attach.persist` for
  /// callers that must touch the region before the structure exists; its
  /// lease words are adopted unless it was freshly created.
  Rig(const core::GfslConfig& cfg, const Attach& attach,
      sched::StepScheduler* scheduler = nullptr,
      device::PersistRegion* open_region = nullptr);

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  core::Gfsl& gfsl() { return *sl_; }
  const core::Gfsl& gfsl() const { return *sl_; }
  core::Gfsl* operator->() { return sl_.get(); }
  device::DeviceMemory& mem() { return mem_; }

  sched::LeaseTable* leases() const { return leases_.get(); }
  device::EpochManager* epochs() const { return epochs_.get(); }
  core::SnapshotManager* snapshots() const { return snaps_.get(); }
  core::ForesightIndex* foresight() const { return foresight_.get(); }
  core::IntegritySidecar* integrity() const { return integrity_.get(); }
  device::PersistRegion* region() const { return region_; }

 private:
  device::DeviceMemory mem_;
  std::unique_ptr<device::PersistRegion> owned_region_;
  device::PersistRegion* region_ = nullptr;
  std::unique_ptr<sched::LeaseTable> leases_;
  std::unique_ptr<device::EpochManager> epochs_;
  std::unique_ptr<core::SnapshotManager> snaps_;
  std::unique_ptr<core::ForesightIndex> foresight_;
  std::unique_ptr<core::IntegritySidecar> integrity_;
  std::unique_ptr<core::Gfsl> sl_;
};

}  // namespace gfsl::harness
