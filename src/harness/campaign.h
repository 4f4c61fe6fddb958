// Canonical benchmark campaigns behind the unified `bench_runner` tool.
//
// A campaign bundles one experiment family (a thesis figure or table sweep,
// the p_chunk ablation, the batch A/B, the churn soak, an attach-mode
// overhead A/B): it prints the
// human-readable tables AND returns a BenchReport (gfsl-bench-v1) carrying
// every measured series with its per-repetition samples, so one run feeds
// eyeballs, dashboards and the bench_compare regression gate alike.
// `bench_runner --campaign NAME` runs one at env scale (GFSL_OPS,
// GFSL_MAX_RANGE, GFSL_REPS, GFSL_TEAMS), `--quick` at the fixed CI scale.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/bench_schema.h"

namespace gfsl::harness {

struct CampaignOptions {
  /// Reduced fixed scale (ops=6000, ranges to 100K, 4 teams) so a full
  /// campaign finishes in seconds — the CI regression gate runs this.
  /// Ignores GFSL_OPS/GFSL_MAX_RANGE/GFSL_TEAMS; GFSL_SEED still applies.
  bool quick = false;
  int reps = 0;             // > 0 overrides the scale's repetition count
  std::string out_dir;      // non-empty: write BENCH_<campaign>.json here
};

struct Campaign {
  std::string name;
  std::string description;
  /// The campaign's sweep.  run_campaign hands it the resolved scale and a
  /// report already named after the campaign and stamped with that scale;
  /// the body prints its tables and appends its series.
  std::function<void(const Scale&, BenchReport&, const CampaignOptions&)> run;
};

/// All registered campaigns, in canonical order.
const std::vector<Campaign>& campaigns();
const Campaign* find_campaign(const std::string& name);

/// Run one campaign at the scale `opts` selects (env scale, or the fixed
/// quick scale, then the reps override) and, when opts.out_dir is set, write
/// `<out_dir>/BENCH_<name>.json`.  Returns the report.
BenchReport run_campaign(const Campaign& c, const CampaignOptions& opts);

}  // namespace gfsl::harness
