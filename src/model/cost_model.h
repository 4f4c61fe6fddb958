// Analytic GPU throughput model.
//
// The simulator *executes* the data-structure algorithms and measures the
// events that govern GPU performance — lockstep instructions, coalesced vs
// scattered memory transactions, L2 hits vs DRAM transactions, atomics, lock
// spins.  This model converts those measured events into modeled wall time on
// the evaluation GPU (GTX 970) using the standard two-bound throughput model:
//
//   latency bound:  each warp serially experiences its instruction issue and
//                   memory-epoch latencies; warps in flight (occupancy) hide
//                   each other's latency.
//   bandwidth bound: DRAM traffic (inflated by register/local-array spill,
//                   §5.2) cannot exceed the memory interface.
//
//   wall = max(latency_bound, bandwidth_bound);  MOPS = ops / wall.
//
// Two dimensionless efficiency factors (latency-hiding efficiency and DRAM
// efficiency) are calibrated once against the thesis's Table 5.1/5.2 anchor
// points; everything else — including every range-dependent effect in
// Figures 5.1–5.4 — comes from the measured event counts.
#pragma once

#include <cstdint>

#include "device/device_memory.h"
#include "model/gpu_params.h"
#include "model/occupancy.h"

namespace gfsl::model {

/// Events measured for one kernel launch (one benchmark run).
struct KernelRun {
  std::uint64_t ops = 0;          // data-structure operations completed
  std::uint64_t warp_steps = 0;   // lockstep instructions, summed over warps
  std::uint64_t mem_epochs = 0;   // serialized memory waits per warp, summed
                                  // (a coalesced chunk read = 1 epoch; a
                                  // divergent M&C hop phase = 1 epoch at the
                                  // pace of the slowest lane)
  std::uint64_t lock_spins = 0;   // failed lock acquisitions
  device::MemStats mem;
};

struct ModelResult {
  double mops = 0.0;              // modeled millions of ops per second
  double wall_seconds = 0.0;
  double latency_seconds = 0.0;   // latency-bound component
  double bandwidth_seconds = 0.0; // bandwidth-bound component
  bool bandwidth_bound = false;
  double avg_epoch_latency = 0.0; // cycles, from the measured L2 hit ratio
  double dram_bytes = 0.0;        // incl. spill inflation
};

class CostModel {
 public:
  explicit CostModel(const GpuParams& gpu = gtx970()) : gpu_(gpu) {}

  /// `teams_per_warp`: 1 for the paper's configuration (one team per warp,
  /// §5.2).  2 models the sub-warp-teams extension (Chapter 7): two 16-lane
  /// teams share a warp, so their memory waits overlap (doubling effective
  /// memory-level parallelism) while their instruction issue still
  /// serializes within the warp.
  ModelResult throughput(const KernelRun& run, const OccupancyResult& occ,
                         int teams_per_warp = 1) const;

  /// Host-side overhead of one launch: shipping the operation array down
  /// and the result array back over PCIe, plus the launch itself (§2.1,
  /// §5.1's input format).  Reported separately — the paper's throughput
  /// numbers are kernel-side, but this is what caps tiny launches (e.g. the
  /// ops == range single-op runs at small ranges).
  double transfer_seconds(std::uint64_t ops, std::uint32_t bytes_per_op_in,
                          std::uint32_t bytes_per_op_out = 1) const;

  /// Calibration knob (see header comment); sensitivity tests lower it.
  void set_hiding_efficiency(double e) { hiding_efficiency_ = e; }

 private:
  GpuParams gpu_;
  // Calibrated once against the thesis's Table 5.1/5.2 anchors (GFSL 65.7
  // and M&C ~21 MOPS at 16 warps/block, [10,10,80], 1M range) and the
  // Table 5.1 peak-at-16-warps shape:
  //  * hiding_efficiency — fraction of resident warps that effectively hide
  //    latency (schedulers stall on dependencies well before 100%).
  //  * dram_efficiency — achieved fraction of peak DRAM bandwidth for the
  //    random-access, read-mostly traffic these structures generate; random
  //    row activations plus the op-array/result streams the simulator does
  //    not model leave only a small fraction of the 224 GB/s peak.
  double hiding_efficiency_ = 0.32;
  double dram_efficiency_ = 0.093;
};

}  // namespace gfsl::model
