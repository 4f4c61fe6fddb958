#include "harness/postmortem.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/gfsl.h"
#include "core/inspect.h"
#include "device/epoch.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "simt/trace.h"

namespace gfsl::harness {

namespace {

void write_info(std::ostream& os, const PostmortemContext& ctx) {
  os << "  \"info\": {";
  for (std::size_t i = 0; i < ctx.info.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    obs::json_string(os, ctx.info[i].first);
    os << ": ";
    obs::json_string(os, ctx.info[i].second);
  }
  os << (ctx.info.empty() ? "" : "\n  ") << "}";
}

void write_teams(std::ostream& os, const PostmortemContext& ctx) {
  os << "  \"teams\": [";
  bool first = true;
  for (int t = 0; ctx.trace != nullptr && t < ctx.trace->teams(); ++t) {
    const simt::TeamTrace* ring = ctx.trace->team(t);
    os << (first ? "\n" : ",\n");
    first = false;
    const auto events = ring->snapshot();
    const std::size_t keep = std::min(ctx.last_k, events.size());
    os << "    {\"team\": " << t << ", \"recorded\": " << ring->recorded()
       << ", \"events\": [";
    for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
      const auto& r = events[i];
      os << (i == events.size() - keep ? "\n" : ",\n");
      os << "      {\"seq\": " << r.seq << ", \"event\": ";
      obs::json_string(os, simt::trace_event_name(r.event));
      os << ", \"a\": " << r.a << ", \"b\": " << r.b << "}";
    }
    os << (keep == 0 ? "" : "\n    ") << "]}";
  }
  os << (first ? "" : "\n  ") << "]";
}

void write_structure(std::ostream& os, const core::Gfsl& sl) {
  // Pin an epoch before touching chunk memory so a concurrent reclaimer
  // cannot recycle a chunk out from under the walk.  An out-of-range id maps
  // to the shared overflow slot — it cannot alias a real team's pin.
  device::EpochManager* epochs = sl.epochs();
  const int pin_id = device::EpochManager::kMaxSlots + 7;
  if (epochs != nullptr) epochs->pin(pin_id);

  const core::ValidationReport v = sl.validate(/*strict=*/false);
  const core::GfslInspector insp(sl);

  os << "  \"structure\": {\n";
  os << "    \"team_size\": " << sl.team_size()
     << ", \"height\": " << v.height << ", \"bottom_keys\": " << v.bottom_keys
     << ",\n    \"live_chunks\": " << v.live_chunks
     << ", \"zombie_chunks\": " << v.zombie_chunks
     << ", \"data_entries\": " << v.data_entries
     << ",\n    \"limbo_chunks\": " << v.limbo_chunks
     << ", \"free_chunks\": " << v.free_chunks
     << ", \"chunks_allocated\": " << sl.chunks_allocated()
     << ", \"chunks_reclaimed\": " << sl.chunks_reclaimed() << ",\n";
  os << "    \"validate\": {\"ok\": " << (v.ok ? "true" : "false")
     << ", \"error\": ";
  obs::json_string(os, v.error);
  os << "},\n";

  // Per-level chain walk + occupancy histogram over live chunks (bucket i =
  // chunks holding exactly i data entries).
  const int dsize = sl.team_size() - 2;
  std::vector<std::uint64_t> occupancy(static_cast<std::size_t>(dsize) + 1, 0);
  os << "    \"levels\": [";
  const int height = sl.current_height();
  for (int level = height; level >= 0; --level) {
    bool cycle = false;
    const auto chain = insp.level_chain(level, &cycle);
    std::uint64_t zombies = 0;
    std::uint64_t keys = 0;
    for (const auto& cv : chain) {
      if (cv.lock == core::kZombie) {
        ++zombies;
      } else if (level == 0) {
        occupancy[std::min<std::size_t>(cv.data.size(),
                                        occupancy.size() - 1)]++;
      }
      keys += cv.data.size();
    }
    os << (level == height ? "\n" : ",\n");
    os << "      {\"level\": " << level << ", \"chunks\": " << chain.size()
       << ", \"zombies\": " << zombies << ", \"keys\": " << keys
       << ", \"cycle\": " << (cycle ? "true" : "false") << "}";
  }
  os << "\n    ],\n";
  os << "    \"bottom_occupancy_histogram\": [";
  for (std::size_t i = 0; i < occupancy.size(); ++i) {
    if (i != 0) os << ", ";
    os << occupancy[i];
  }
  os << "]";
  if (epochs != nullptr) {
    os << ",\n    \"epoch\": {\"limbo_total\": " << epochs->limbo_total()
       << ", \"epoch_lag\": " << epochs->epoch_lag() << "}";
  }
  os << "\n  }";

  if (epochs != nullptr) epochs->unpin(pin_id);
}

}  // namespace

void write_postmortem(std::ostream& os, const PostmortemContext& ctx) {
  os << "{\n  \"schema\": \"gfsl-postmortem-v1\",\n  \"reason\": ";
  obs::json_string(os, ctx.reason);
  os << ",\n  \"detail\": ";
  obs::json_string(os, ctx.detail);
  os << ",\n";
  write_info(os, ctx);
  os << ",\n";
  write_teams(os, ctx);
  if (ctx.metrics != nullptr) {
    // Embed the full gfsl-metrics-v1 report as a nested object.
    std::ostringstream metrics_json;
    ctx.metrics->write_json(metrics_json);
    std::string m = metrics_json.str();
    while (!m.empty() && (m.back() == '\n' || m.back() == ' ')) m.pop_back();
    os << ",\n  \"metrics\": " << m;
  }
  if (ctx.gfsl != nullptr) {
    os << ",\n";
    write_structure(os, *ctx.gfsl);
  }
  os << "\n}\n";
}

std::string dump_postmortem(const std::string& dir, const std::string& stem,
                            const PostmortemContext& ctx) {
  const std::string path = dir + "/" + stem + ".json";
  std::ofstream out(path);
  if (!out) return std::string();
  write_postmortem(out, ctx);
  return path;
}

}  // namespace gfsl::harness
