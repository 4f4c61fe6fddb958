// Canonical benchmark campaigns behind the unified `bench_runner` tool.
//
// A campaign bundles one experiment family (a thesis figure sweep, the batch
// A/B, the churn soak, an attach-mode overhead A/B): it prints the
// human-readable tables AND returns a BenchReport (gfsl-bench-v1) carrying
// every measured series with its per-repetition samples, so one run feeds
// eyeballs, dashboards and the bench_compare regression gate alike.
// `bench_runner --campaign NAME` runs one at env scale (GFSL_OPS,
// GFSL_MAX_RANGE, GFSL_REPS, GFSL_TEAMS), `--quick` at the fixed CI scale.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/bench_schema.h"
#include "harness/experiment.h"
#include "harness/workload.h"

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
  std::function<BenchReport(const CampaignOptions&)> run;
};

/// All registered campaigns, in canonical order.
const std::vector<Campaign>& campaigns();
const Campaign* find_campaign(const std::string& name);

/// Resolve the experiment scale for `opts` (env scale, or the fixed quick
/// scale) and apply the reps override.
Scale campaign_scale(const CampaignOptions& opts);

/// Run one campaign and, when opts.out_dir is set, write
/// `<out_dir>/BENCH_<name>.json`.  Returns the report.
BenchReport run_campaign(const Campaign& c, const CampaignOptions& opts);

// Shared bench plumbing: the campaign implementations and the standalone
// table/ablation binaries use one copy.

StructureSetup setup_from_scale(const Scale& sc, int team_size = 32);

WorkloadConfig make_workload(const Mix& mix, std::uint64_t range,
                             std::uint64_t ops, std::uint64_t seed);

void print_scale_banner(const Scale& sc);

/// Stable metric-name fragment for a mix ("mix_10_10_80") or range ("r10000").
std::string mix_key(const Mix& mix);
std::string range_key(std::uint64_t range);

}  // namespace gfsl::harness
