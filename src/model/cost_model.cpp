#include "model/cost_model.h"

#include <algorithm>

namespace gfsl::model {

double CostModel::transfer_seconds(std::uint64_t ops,
                                   std::uint32_t bytes_per_op_in,
                                   std::uint32_t bytes_per_op_out) const {
  const double bytes = static_cast<double>(ops) *
                       (static_cast<double>(bytes_per_op_in) +
                        static_cast<double>(bytes_per_op_out));
  return gpu_.kernel_launch_seconds +
         bytes / (gpu_.pcie_bandwidth_gbps * 1e9);
}

ModelResult CostModel::throughput(const KernelRun& run,
                                  const OccupancyResult& occ,
                                  int teams_per_warp) const {
  ModelResult r;
  if (run.ops == 0) return r;

  // --- Latency bound -------------------------------------------------------
  // Average memory-epoch latency from the measured L2 hit ratio.
  const auto& m = run.mem;
  const double tx = static_cast<double>(std::max<std::uint64_t>(m.transactions, 1));
  const double hit_ratio = static_cast<double>(m.l2_hits) / tx;
  r.avg_epoch_latency =
      hit_ratio * gpu_.l2_latency + (1.0 - hit_ratio) * gpu_.dram_latency;

  const double issue_cycles =
      static_cast<double>(run.warp_steps) * gpu_.issue_cost;
  const double epoch_cycles =
      static_cast<double>(run.mem_epochs) * r.avg_epoch_latency;
  // Every transaction beyond one per epoch is an uncoalesced replay.
  const double extra_tx = std::max(
      0.0, static_cast<double>(m.transactions) -
               static_cast<double>(run.mem_epochs));
  const double replay_cycles = extra_tx * gpu_.replay_cost;
  const double atomic_cycles =
      static_cast<double>(m.atomics) * gpu_.atomic_cost;
  // A failed lock CAS costs a full round trip before the retry.
  const double spin_cycles =
      static_cast<double>(run.lock_spins) * (gpu_.atomic_cost + r.avg_epoch_latency);

  const double warps_in_flight = occ.achieved_occupancy *
                                 static_cast<double>(gpu_.max_warps_per_sm) *
                                 static_cast<double>(gpu_.num_sms);
  const double mem_parallelism = std::max(
      1.0, warps_in_flight * hiding_efficiency_ * teams_per_warp);
  const double issue_parallelism =
      std::max(1.0, warps_in_flight * hiding_efficiency_);
  // Memory waits of co-resident teams in a warp overlap; instruction issue
  // does not (lockstep alternation serializes it within the warp).
  const double wait_cycles =
      epoch_cycles + replay_cycles + atomic_cycles + spin_cycles;
  r.latency_seconds = (wait_cycles / mem_parallelism +
                       issue_cycles / issue_parallelism) /
                      (gpu_.core_clock_ghz * 1e9);

  // --- Bandwidth bound ------------------------------------------------------
  // Only DRAM transactions consume interface bandwidth; spill traffic
  // (register spills / local arrays, §5.2) inflates it.
  const double spill_inflation =
      occ.spill_fraction < 1.0 ? 1.0 / (1.0 - occ.spill_fraction) : 1e9;
  r.dram_bytes = static_cast<double>(m.dram_transactions) *
                 static_cast<double>(gpu_.line_bytes) * spill_inflation;
  r.bandwidth_seconds =
      r.dram_bytes / (gpu_.dram_bandwidth_gbps * 1e9 * dram_efficiency_);

  r.wall_seconds = std::max(r.latency_seconds, r.bandwidth_seconds);
  r.bandwidth_bound = r.bandwidth_seconds > r.latency_seconds;
  r.mops = static_cast<double>(run.ops) / r.wall_seconds / 1e6;
  return r;
}

}  // namespace gfsl::model
