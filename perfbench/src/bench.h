// One benchmark run of one workload: set-up, measured launches, correctness
// checks and, with tracing, the per-layer measurements.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;         // measured host time to accumulate
  bool trace = false;          // per-layer run (spans, metrics, calibration)
  bool corrupt_results = false;  // self-test: flip one result of epoch 0
  std::string trace_out;       // spans written here at the end (trace only)
};

struct RunOutcome {
  Report report;
  std::uint64_t attempted = 0;  // ops executed and checked
  std::uint64_t failed = 0;     // mismatched ops + failed validations
  int epochs = 0;               // epochs run, warm-up included
  /// Hash of epoch 0's simulated statistics; reproducible only with one
  /// worker, so 0 for multi-worker workloads.
  std::uint64_t fingerprint = 0;
};

RunOutcome run_workload(const WorkloadSpec& w, const RunOptions& o);

}  // namespace perfbench
