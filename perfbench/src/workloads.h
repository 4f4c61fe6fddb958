// The benchmark's workloads and the fixture each run is measured on.
//
// Every input — prefill keys, the ops of each launch, team RNG seeds — is
// derived from the run's --seed, so one seed always gives one input.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/foresight.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "harness/runner.h"
#include "harness/workload.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {

inline constexpr int kTeamSize = 32;        // GFSL-32, the paper's anchor
inline constexpr int kWarpsPerBlock = 16;   // Table 5.1's best launch config
inline constexpr std::uint64_t kWarmupOps = 10'000;

struct WorkloadSpec {
  const char* name;
  gfsl::harness::Mix mix;
  std::uint64_t key_range;
  gfsl::harness::Prefill prefill;
  int workers;             // concurrent teams (host threads)
  bool foresight;          // attach and prime a ForesightIndex
  std::size_t batch_size;  // 0 = per-op dispatch (run_gfsl)
  std::size_t launch_ops;  // ops of the measured launch
};

/// The four named workloads; why each was chosen is in perfbench/README.md.
const std::vector<WorkloadSpec>& workloads();
/// The same workload at 1/100 of the key range and 1/16 of the launch size,
/// for the self-test.
WorkloadSpec tiny(const WorkloadSpec& w);

/// Seconds spent in each set-up step; they sum to setup_s.
struct SetupTimes {
  double generate_prefill = 0, construct = 0, bulk_load = 0,
         foresight_prime = 0, generate_ops = 0, warmup = 0;
  double total() const {
    return generate_prefill + construct + bulk_load + foresight_prime +
           generate_ops + warmup;
  }
};

/// A structure built, prefilled and warmed for one workload, with the
/// oracle that checks it and the ops of the launch to measure on it.
struct Fixture {
  gfsl::device::DeviceMemory mem;
  std::unique_ptr<gfsl::core::ForesightIndex> foresight;
  std::unique_ptr<gfsl::core::Gfsl> sl;
  std::unique_ptr<Oracle> oracle;
  std::vector<gfsl::Op> ops;
  std::uint64_t rebuilds_primed = 0;  // foresight->rebuilds() after priming
  SetupTimes times;
};

/// Everything between an epoch's start and its first measured op; the
/// fixture's ops are those of launch `launch`.
std::unique_ptr<Fixture> set_up(const WorkloadSpec& w, std::uint64_t seed,
                                int launch, Tracer& tr);

/// Ops of launch `i` of a run.  `n` = 0 means w.launch_ops.
std::vector<gfsl::Op> launch_ops(const WorkloadSpec& w, std::uint64_t seed,
                                 int i, std::size_t n = 0);

/// Seed of every team's on-device RNG.
std::uint64_t team_seed(std::uint64_t seed);

struct Launch {
  gfsl::harness::RunResult run;
  gfsl::core::BatchStats batch;       // batched dispatch only
  std::vector<std::uint8_t> results;  // per op, in submission order
  double host_seconds = 0;            // wall time of the run_gfsl* call
};

/// The fixture's ops as one launch through harness::run_gfsl or
/// run_gfsl_batched.
Launch run_launch(Fixture& f, const WorkloadSpec& w, std::uint64_t seed,
                  gfsl::obs::MetricsRegistry* metrics, Tracer& tr);

/// Modeled GTX-970 result of one launch: occupancy at kWarpsPerBlock, the
/// harness's update-contention correction, then the cost model.
gfsl::model::ModelResult model_launch(const WorkloadSpec& w,
                                      gfsl::model::KernelRun k, Tracer& tr);

}  // namespace perfbench
