// Dump-on-anomaly flight recorder (gfsl-postmortem-v1).
//
// The recorder itself is just the clockless TeamTrace rings every harness
// run can keep armed (simt/trace.h: no steady-clock read per record).  This
// module is the *dump* side: when something goes wrong — validate() fails, a
// crash-sweep watchdog declares a stall, a fuzz oracle disagrees — the
// harness serializes everything a human needs to reconstruct the failure:
//
//   * the last K events per team, straight from the rings (seq-ordered),
//   * the merged gfsl-metrics-v1 snapshot (counters/gauges/histograms),
//   * an epoch-pinned StructureInspector walk: per-level chunk counts,
//     zombie share, an occupancy histogram over live chunks' data slots,
//     free/limbo accounting, and the validate() verdict itself,
//   * free-form context (workload params, kill step, repro seeds).
//
// Lives in the harness layer (not obs) because the structure walk needs
// core::GfslInspector; obs stays below core in the library DAG.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace gfsl::core {
class Gfsl;
}
namespace gfsl::obs {
class MetricsRegistry;
class TraceSession;
}

namespace gfsl::harness {

struct PostmortemContext {
  /// Why the dump fired: "validate_failure", "watchdog_stall",
  /// "oracle_mismatch", "history_violation", "on_demand".
  std::string reason;
  std::string detail;  // the validate error / mismatch description
  /// Optional structure to walk.  The walk is quiescent — callers must have
  /// stopped (or killed) every team first; the dump additionally pins an
  /// epoch slot so a concurrent reclaimer cannot recycle chunks mid-walk.
  const core::Gfsl* gfsl = nullptr;
  const obs::MetricsRegistry* metrics = nullptr;
  /// Optional flight-recorder session: ring t is team t's tail.
  const obs::TraceSession* trace = nullptr;
  /// Free-form repro context (seeds, kill step, workload knobs), emitted
  /// verbatim into the "info" object.
  std::vector<std::pair<std::string, std::string>> info;
  /// Events to keep per team (the tail of each ring).
  std::size_t last_k = 64;
};

/// Serialize the bundle as gfsl-postmortem-v1 JSON.
void write_postmortem(std::ostream& os, const PostmortemContext& ctx);

/// write_postmortem to `<dir>/<stem>.json` (dir must exist).  Returns the
/// path, or an empty string when the file could not be opened.
std::string dump_postmortem(const std::string& dir, const std::string& stem,
                            const PostmortemContext& ctx);

}  // namespace gfsl::harness
