// Layer calibration loops for the traced run: each times one layer's public
// hot-path call in isolation, on inputs built from the workload's own ops.
// They run only with --trace 1, after the measured launches, so they never
// touch the end-to-end numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace perfbench {

/// ns per simt::Team::ballot over lane predicates "lane key < op key".
double ballot_ns(const std::vector<gfsl::Op>& ops, int team_size);

/// ns per simt::Team::shfl broadcast of a lane vector of the ops' keys.
double shfl_ns(const std::vector<gfsl::Op>& ops, int team_size);

/// ns per device::DeviceMemory::warp_read of one chunk (`chunk_bytes`) at
/// random chunk addresses over `footprint_chunks`, issued by `threads`
/// threads at once on one DeviceMemory: the median over threads of each
/// thread's time per call.
double warp_read_ns(std::uint64_t footprint_chunks, std::uint32_t chunk_bytes,
                    int threads, std::uint64_t seed);

/// ns per op of sched::plan_shards over `ops` cut into batches.
double plan_shards_ns_per_op(const std::vector<gfsl::Op>& ops,
                             std::size_t batch_size, int teams);

}  // namespace perfbench
