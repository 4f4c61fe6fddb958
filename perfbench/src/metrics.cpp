#include "metrics.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/json_util.h"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"model_mops", "Mop/s", "higher"},
      {"host_ns_per_op", "ns/op", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"simt.instructions_per_op", "1/op", "lower"},
      {"simt.ballots_per_op", "1/op", "lower"},
      {"simt.shfls_per_op", "1/op", "lower"},
      {"simt.ballot_ns", "ns", "lower"},
      {"simt.shfl_ns", "ns", "lower"},
      {"simt.round0_instructions", "count", "lower"},
      {"simt.round0_ballots", "count", "lower"},
      {"simt.round0_shfls", "count", "lower"},
      {"device.reads_per_op", "1/op", "lower"},
      {"device.transactions_per_op", "1/op", "lower"},
      {"device.l2_hit_ratio", "ratio", "higher"},
      {"device.dram_tx_per_op", "1/op", "lower"},
      {"device.atomics_per_op", "1/op", "lower"},
      {"device.warp_read_ns.t1", "ns", "lower"},
      {"device.warp_read_ns.t4", "ns", "lower"},
      {"device.accounting_ns_per_op", "ns/op", "lower"},
      {"device.round0_transactions", "count", "lower"},
      {"device.round0_l2_hits", "count", "higher"},
      {"device.round0_dram_tx", "count", "lower"},
      {"device.round0_atomics", "count", "lower"},
      {"core.chunks_per_traversal", "chunks", "lower"},
      {"core.lock_spins_per_op", "1/op", "lower"},
      {"core.restarts_per_op", "1/op", "lower"},
      {"core.height", "levels", "lower"},
      {"core.live_chunks", "chunks", "lower"},
      {"core.contains_ns.p50", "ns", "lower"},
      {"core.contains_ns.p99", "ns", "lower"},
      {"core.contains_ns.count", "count", "higher"},
      {"core.insert_ns.p50", "ns", "lower"},
      {"core.insert_ns.p99", "ns", "lower"},
      {"core.insert_ns.count", "count", "higher"},
      {"core.erase_ns.p50", "ns", "lower"},
      {"core.erase_ns.p99", "ns", "lower"},
      {"core.erase_ns.count", "count", "higher"},
      {"core.foresight.hit_ratio", "ratio", "higher"},
      {"core.foresight.stale_per_op", "1/op", "lower"},
      {"core.foresight.rebuilds", "1/Mop", "lower"},
      {"core.batch.descent_reuse_ratio", "ratio", "higher"},
      {"sched.steal_ratio", "ratio", "lower"},
      {"sched.plan_shards_ns_per_op", "ns/op", "lower"},
      {"model.latency_s", "s", "lower"},
      {"model.bandwidth_s", "s", "lower"},
      {"model.avg_epoch_latency_cycles", "cycles", "lower"},
      {"model.dram_bytes_per_op", "B/op", "lower"},
      {"harness.generate_prefill_s", "s", "lower"},
      {"harness.generate_ops_s", "s", "lower"},
      {"core.construct_s", "s", "lower"},
      {"core.bulk_load_s", "s", "lower"},
      {"core.foresight_prime_s", "s", "lower"},
      {"harness.warmup_s", "s", "lower"},
      {"obs.trace_overhead_ns_per_op", "ns/op", "lower"},
  };
  return kDefs;
}

double Report::get(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("metric never set: " + std::string(name));
  }
  return it->second;
}

void Report::print_table(std::ostream& os,
                         const std::vector<MetricDef>& defs) const {
  for (const MetricDef& d : defs) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g %s\n",
                  std::string(d.name).c_str(), get(d.name),
                  std::string(d.unit).c_str());
    os << line;
  }
}

void Report::write_metrics_json(std::ostream& os,
                                const std::vector<MetricDef>& defs,
                                std::string_view prefix, bool* first) const {
  for (const MetricDef& d : defs) {
    const double v = get(d.name);
    if (!std::isfinite(v)) {
      throw std::logic_error("metric not finite: " + std::string(d.name));
    }
    os << (*first ? "" : ", ");
    *first = false;
    gfsl::obs::json_string(os, std::string(prefix) + std::string(d.name));
    os << ": {\"value\": ";
    gfsl::obs::json_number(os, v);
    os << ", \"unit\": ";
    gfsl::obs::json_string(os, d.unit);
    os << "}";
  }
}

void write_catalogue_json(std::ostream& os) {
  auto list = [&](const std::vector<MetricDef>& defs) {
    os << "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"name\": ";
      gfsl::obs::json_string(os, defs[i].name);
      os << ", \"unit\": ";
      gfsl::obs::json_string(os, defs[i].unit);
      os << ", \"better\": ";
      gfsl::obs::json_string(os, defs[i].better);
      os << "}";
    }
    os << "]";
  };
  os << "{\"end_to_end\": ";
  list(end_to_end_metrics());
  os << ", \"per_layer\": ";
  list(per_layer_metrics());
  os << "}\n";
}

}  // namespace perfbench
