#include "harness/rig.h"

#include <atomic>

namespace gfsl::harness {

std::string attach_flags(const Attach& a) {
  return std::string(a.epochs ? " --with-epochs" : "") +
         (a.snapshots ? " --with-snapshots" : "") +
         (a.foresight ? " --with-foresight" : "");
}

Rig::Rig(const core::GfslConfig& cfg, const Attach& attach,
         sched::StepScheduler* scheduler, device::PersistRegion* open_region)
    : region_(open_region) {
  if (region_ == nullptr && attach.persist) {
    owned_region_ = std::make_unique<device::PersistRegion>(
        attach.persist->path,
        attach.persist->adopt ? device::PersistRegion::Mode::kAttach
                              : device::PersistRegion::Mode::kCreate,
        device::PersistGeometry{static_cast<std::uint32_t>(cfg.team_size),
                                cfg.pool_chunks});
    region_ = owned_region_.get();
  }
  if (region_ != nullptr || attach.leases) {
    leases_ = std::make_unique<sched::LeaseTable>();
    if (region_ != nullptr) {
      leases_->attach(
          static_cast<std::atomic<std::uint32_t>*>(region_->lease_slots()),
          /*adopt=*/!region_->fresh());
    }
    if (scheduler != nullptr) scheduler->attach_leases(leases_.get());
  }
  if (attach.epochs) epochs_ = std::make_unique<device::EpochManager>();
  if (attach.snapshots) {
    snaps_ = std::make_unique<core::SnapshotManager>(cfg.pool_chunks);
  }
  if (attach.foresight) {
    foresight_ = std::make_unique<core::ForesightIndex>(
        cfg.pool_chunks, attach.foresight_stride,
        attach.foresight_rebuild_threshold);
  }
  if (attach.integrity != Attach::Integrity::kOff) {
    integrity_ = std::make_unique<core::IntegritySidecar>(
        attach.integrity == Attach::Integrity::kCrc32c
            ? core::SealAlgo::kCrc32c
            : core::SealAlgo::kXorFold);
  }
  sl_ = std::make_unique<core::Gfsl>(cfg, &mem_, scheduler, leases_.get(),
                                     epochs_.get(), region_, snaps_.get(),
                                     foresight_.get(), integrity_.get());
}

}  // namespace gfsl::harness
