// gfsl_perfbench: the repository's benchmark program.
//
//   gfsl_perfbench --workload <name|all> [--seed N] [--seconds S]
//                  [--trace 0|1] [--trace-out PATH]
//
// Runs one named workload (or all of them in turn) and prints a table of
// metrics with units, then, as the last line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any op's result or the structure fails its check.
//
// Self-test options: --scale tiny (small key ranges and launches),
// --corrupt-results (flip one result; the run must fail), --list-metrics.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench.h"
#include "harness/options.h"
#include "metrics.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: gfsl_perfbench --workload <name|all> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\n"
               "       [--scale full|tiny] [--corrupt-results] "
               "[--list-metrics]\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int run(const gfsl::harness::Options& opt) {
  using namespace perfbench;
  if (opt.get_bool("list-metrics")) {
    write_catalogue_json(std::cout);
    return 0;
  }
  const std::string name = opt.get("workload", "");
  std::vector<WorkloadSpec> selected;
  for (const WorkloadSpec& w : workloads()) {
    if (name == "all" || name == w.name) selected.push_back(w);
  }
  const std::string scale = opt.get("scale", "full");
  if (selected.empty() || (scale != "full" && scale != "tiny")) {
    return usage();
  }
  const std::uint64_t trace = opt.get_u64("trace", 0);
  if (trace > 1) return usage();

  RunOptions ro;
  ro.seed = opt.get_u64("seed", 1);
  ro.seconds = opt.get_double("seconds", 10);
  ro.trace = trace == 1;
  ro.corrupt_results = opt.get_bool("corrupt-results");
  ro.trace_out = opt.get("trace-out", "");
  const auto& defs = ro.trace ? per_layer_metrics() : end_to_end_metrics();

  std::ostringstream metrics;
  bool first = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const WorkloadSpec& spec : selected) {
    const WorkloadSpec w = scale == "tiny" ? tiny(spec) : spec;
    const RunOutcome r = run_workload(w, ro);
    attempted += r.attempted;
    failed += r.failed;
    std::printf("workload %s  seed %llu  trace %d  epochs %d  ops %llu\n",
                w.name, static_cast<unsigned long long>(ro.seed),
                ro.trace ? 1 : 0, r.epochs,
                static_cast<unsigned long long>(r.attempted));
    std::cout.flush();
    r.report.print_table(std::cout, defs);
    std::printf("  %-34s %16.6g %s\n", "op_fail_frac",
                static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted),
                "ratio");
    if (w.workers == 1) {
      std::printf("  %-34s %016llx\n", "fingerprint",
                  static_cast<unsigned long long>(r.fingerprint));
    }
    std::fflush(stdout);
    r.report.write_metrics_json(
        metrics, defs, selected.size() > 1 ? std::string(w.name) + "." : "",
        &first);
  }
  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto opt = gfsl::harness::Options::parse(argc, argv);
    const auto unknown = opt.unknown({"workload", "seed", "seconds", "trace",
                                      "trace-out", "scale", "corrupt-results",
                                      "list-metrics"});
    if (!unknown.empty()) {
      std::cerr << "unknown option --" << unknown.front() << "\n";
      return usage();
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "gfsl_perfbench: " << e.what() << "\n";
    return 2;
  }
}
