// The benchmark's metric catalogue and its result line.
//
// The catalogue is the single list of metric names, units and directions;
// BENCHMARK.json must list the same names (perfbench/selftest.py checks it)
// and perfbench/README.md documents each metric's layer and what it should
// move.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  // "higher" or "lower"
};

/// Reported by the untraced run (--trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by the traced run (--trace 1).
const std::vector<MetricDef>& per_layer_metrics();

/// Metric values of one workload run, by name.
class Report {
 public:
  void set(std::string_view name, double v) { values_[std::string(name)] = v; }
  double get(std::string_view name) const;

  /// One "name  value unit" line per metric of `defs`.
  void print_table(std::ostream& os, const std::vector<MetricDef>& defs) const;

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
  /// {"value": .., "unit": ..}}} over `defs`, keys prefixed by `prefix`.
  void write_metrics_json(std::ostream& os, const std::vector<MetricDef>& defs,
                          std::string_view prefix, bool* first) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

/// The catalogue as JSON, for the self-test.
void write_catalogue_json(std::ostream& os);

}  // namespace perfbench
