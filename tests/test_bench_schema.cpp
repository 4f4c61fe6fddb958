// gfsl-bench-v1 schema round-trip, the bench_compare gating logic, and the
// contract between the campaign registry and the committed baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "harness/bench_schema.h"
#include "harness/campaign.h"
#include "obs/json_value.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

BenchMetric make_metric(const std::string& name, std::vector<double> samples,
                        Better better = Better::kHigher, bool gate = true) {
  BenchMetric m;
  m.name = name;
  m.unit = "mops";
  m.better = better;
  m.gate = gate;
  m.samples = std::move(samples);
  return m;
}

BenchReport make_report(std::vector<BenchMetric> metrics) {
  BenchReport r;
  r.campaign = "unit_test";
  r.metrics = std::move(metrics);
  return r;
}

std::string to_json(const BenchReport& r) {
  std::ostringstream os;
  write_bench_json(os, r);
  return os.str();
}

}  // namespace

TEST(BenchMetric, DerivedStats) {
  const auto m = make_metric("x", {2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(m.mean(), 4.0);
  EXPECT_DOUBLE_EQ(m.stddev(), 2.0);  // sample stddev of {2,4,6}
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 6.0);
  EXPECT_DOUBLE_EQ(m.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(m.percentile(50.0), 4.0);
  EXPECT_DOUBLE_EQ(m.percentile(100.0), 6.0);

  const BenchMetric empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
}

TEST(BenchSchema, RoundTripPreservesEverything) {
  BenchReport r = make_report({
      make_metric("gfsl32_mops.r10000", {91.25, 92.5, 90.0}),
      make_metric("host_ns.micro", {120.0, 130.0}, Better::kLower, false),
  });
  r.set_config("ops", "6000");
  r.set_config("quick", "1");
  r.stamp_environment();

  BenchReport back;
  std::string err;
  ASSERT_TRUE(read_bench_json(to_json(r), back, err)) << err;
  EXPECT_EQ(back.campaign, "unit_test");
  // The parser re-keys objects in sorted order; compare as sets.
  auto sorted = [](std::vector<std::pair<std::string, std::string>> kv) {
    std::sort(kv.begin(), kv.end());
    return kv;
  };
  EXPECT_EQ(sorted(back.config), sorted(r.config));
  EXPECT_EQ(sorted(back.environment), sorted(r.environment));
  ASSERT_EQ(back.metrics.size(), 2u);
  const BenchMetric* m = back.find("gfsl32_mops.r10000");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->unit, "mops");
  EXPECT_EQ(m->better, Better::kHigher);
  EXPECT_TRUE(m->gate);
  EXPECT_EQ(m->samples, (std::vector<double>{91.25, 92.5, 90.0}));
  const BenchMetric* h = back.find("host_ns.micro");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->better, Better::kLower);
  EXPECT_FALSE(h->gate);
}

TEST(BenchSchema, RejectsWrongSchemaAndGarbage) {
  BenchReport out;
  std::string err;
  EXPECT_FALSE(read_bench_json("{\"schema\": \"something-else\"}", out, err));
  EXPECT_NE(err.find("schema"), std::string::npos);
  EXPECT_FALSE(read_bench_json("not json at all", out, err));
  EXPECT_FALSE(read_bench_json(
      "{\"schema\": \"gfsl-bench-v1\", \"campaign\": \"c\"}", out, err));
  EXPECT_NE(err.find("metrics"), std::string::npos);
}

TEST(BenchSchema, SummaryOnlyBaselineReconstructsPseudoSample) {
  // A degraded baseline that kept only the summary stats must still compare.
  const std::string text =
      "{\"schema\": \"gfsl-bench-v1\", \"campaign\": \"c\", \"metrics\": "
      "[{\"name\": \"m\", \"better\": \"higher\", \"gate\": true, "
      "\"mean\": 42.5}]}";
  BenchReport out;
  std::string err;
  ASSERT_TRUE(read_bench_json(text, out, err)) << err;
  ASSERT_EQ(out.metrics.size(), 1u);
  EXPECT_EQ(out.metrics[0].samples, std::vector<double>{42.5});
  EXPECT_DOUBLE_EQ(out.metrics[0].stddev(), 0.0);
}

TEST(BenchCompare, IdenticalReportsPass) {
  const auto r = make_report({make_metric("m", {100.0, 101.0, 99.0})});
  const auto res = compare_reports(r, r);
  EXPECT_TRUE(res.ok());
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, Verdict::kOk);
}

TEST(BenchCompare, FlagsInjectedRegression) {
  const auto base = make_report({make_metric("m", {100.0, 101.0, 99.0})});
  const auto cur = make_report({make_metric("m", {60.0, 61.0, 59.0})});
  const auto res = compare_reports(base, cur);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.regressions, 1);
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, Verdict::kRegressed);
  // The default rel_thresh=0.25 floor dominates tiny stddevs here.
  EXPECT_NEAR(res.deltas[0].threshold, 25.0, 1.0);
}

TEST(BenchCompare, ImprovementIsNotARegression) {
  const auto base = make_report({make_metric("m", {100.0, 100.0})});
  const auto cur = make_report({make_metric("m", {150.0, 150.0})});
  const auto res = compare_reports(base, cur);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.improvements, 1);
  EXPECT_EQ(res.deltas[0].verdict, Verdict::kImproved);
}

TEST(BenchCompare, LowerIsBetterFlipsTheWorseDirection) {
  const auto base =
      make_report({make_metric("in_use", {100.0, 100.0}, Better::kLower)});
  const auto up = make_report({make_metric("in_use", {200.0, 200.0},
                                           Better::kLower)});
  EXPECT_FALSE(compare_reports(base, up).ok());
  const auto down = make_report({make_metric("in_use", {50.0, 50.0},
                                             Better::kLower)});
  EXPECT_TRUE(compare_reports(base, down).ok());
}

TEST(BenchCompare, NoiseWindowSuppressesJitteryShifts) {
  // stddev 10 → k=4 gives a 40-wide window, above the 25% relative floor:
  // a 30-point drop is within noise and must not flag.
  const auto base =
      make_report({make_metric("m", {90.0, 100.0, 110.0})});  // σ = 10
  const auto cur = make_report({make_metric("m", {60.0, 70.0, 80.0})});
  const auto res = compare_reports(base, cur);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.deltas[0].verdict, Verdict::kOk);
  EXPECT_NEAR(res.deltas[0].threshold, 40.0, 0.5);
}

TEST(BenchCompare, MissingGatedMetricFailsTheGate) {
  const auto base = make_report({make_metric("m", {100.0})});
  const auto cur = make_report({});
  const auto res = compare_reports(base, cur);
  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, Verdict::kMissing);
}

TEST(BenchCompare, UngatedMetricsAreIgnoredByDefault) {
  const auto base = make_report(
      {make_metric("host", {100.0}, Better::kLower, /*gate=*/false)});
  const auto cur = make_report(
      {make_metric("host", {500.0}, Better::kLower, /*gate=*/false)});
  const auto res = compare_reports(base, cur);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.deltas.empty());

  CompareOptions all;
  all.gated_only = false;
  const auto wide = compare_reports(base, cur, all);
  EXPECT_TRUE(wide.ok());  // ungated never fails, even when shown
  ASSERT_EQ(wide.deltas.size(), 1u);
}

TEST(BenchCompare, NewMetricIsInformational) {
  const auto base = make_report({});
  const auto cur = make_report({make_metric("m", {100.0})});
  const auto res = compare_reports(base, cur);
  EXPECT_TRUE(res.ok());
  ASSERT_EQ(res.deltas.size(), 1u);
  EXPECT_EQ(res.deltas[0].verdict, Verdict::kNew);
}

TEST(JsonValue, ParsesNestedDocuments) {
  const auto r = obs::json_parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\ny\", \"d\": true}, "
      "\"e\": null}");
  ASSERT_TRUE(r.ok) << r.error;
  const obs::JsonValue* a = r.value.get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_DOUBLE_EQ(a->as_array()[2].as_number(), -300.0);
  const obs::JsonValue* b = r.value.get("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_or("c", ""), "x\ny");
  EXPECT_TRUE(b->get("d")->as_bool());
  EXPECT_TRUE(r.value.get("e")->is_null());
}

TEST(JsonValue, RejectsTrailingGarbageAndBadSyntax) {
  EXPECT_FALSE(obs::json_parse("{} trailing").ok);
  EXPECT_FALSE(obs::json_parse("{\"a\": }").ok);
  EXPECT_FALSE(obs::json_parse("[1, 2").ok);
  EXPECT_FALSE(obs::json_parse("").ok);
}

TEST(JsonValue, PathologicalNestingFailsGracefullyNotFatally) {
  // The recursive-descent parser guards its depth; adversarial input (a
  // crafted postmortem bundle, a corrupted bench report) must come back as a
  // parse error naming the limit, never a stack overflow.  10k opens is ~40x
  // the limit — deep enough that an unguarded recursion would crash.
  const std::string deep_arrays(10'000, '[');
  const auto ra = obs::json_parse(deep_arrays);
  EXPECT_FALSE(ra.ok);
  EXPECT_NE(ra.error.find("depth"), std::string::npos) << ra.error;

  std::string deep_objects;
  for (int i = 0; i < 10'000; ++i) deep_objects += "{\"k\":";
  const auto ro = obs::json_parse(deep_objects);
  EXPECT_FALSE(ro.ok);
  EXPECT_NE(ro.error.find("depth"), std::string::npos) << ro.error;

  // Nesting *at* the limit still parses: the guard rejects only beyond it.
  const int kMaxDepth = 256;  // mirrors json_value.cpp
  std::string at_limit(static_cast<std::size_t>(kMaxDepth), '[');
  at_limit.append(static_cast<std::size_t>(kMaxDepth), ']');
  EXPECT_TRUE(obs::json_parse(at_limit).ok);
  std::string over_limit(static_cast<std::size_t>(kMaxDepth) + 1, '[');
  over_limit.append(static_cast<std::size_t>(kMaxDepth) + 1, ']');
  EXPECT_FALSE(obs::json_parse(over_limit).ok);
}

// ---------------------------------------------------------------------------
// Registry <-> bench/baselines/ contract: every registered campaign has a
// committed quick baseline and vice versa, and a campaign's report keeps the
// exact metric (name, unit, better, gate) list and config keys of its
// baseline — a rename or a dropped gate would otherwise surface only as a
// "missing gated metric" in the CI bench gate.

namespace {

using MetricShape = std::tuple<std::string, std::string, Better, bool>;

std::vector<MetricShape> metric_shapes(const BenchReport& r) {
  std::vector<MetricShape> out;
  for (const auto& m : r.metrics) {
    out.emplace_back(m.name, m.unit, m.better, m.gate);
  }
  return out;
}

/// Sorted: the JSON reader hands object keys back in sorted order.
std::vector<std::string> config_keys(const BenchReport& r) {
  std::vector<std::string> out;
  for (const auto& [k, v] : r.config) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

BenchReport load_baseline(const std::string& campaign) {
  const std::string path =
      std::string(GFSL_BASELINES_DIR) + "/BENCH_" + campaign + ".json";
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  BenchReport base;
  std::string err;
  EXPECT_TRUE(read_bench_json(text.str(), base, err)) << path << ": " << err;
  return base;
}

void expect_report_matches_baseline(const std::string& campaign) {
  const Campaign* c = find_campaign(campaign);
  ASSERT_NE(c, nullptr) << campaign;
  CampaignOptions opts;
  opts.quick = true;
  opts.reps = 1;
  const BenchReport report = run_campaign(*c, opts);
  const BenchReport base = load_baseline(campaign);
  EXPECT_EQ(report.campaign, base.campaign);
  EXPECT_EQ(metric_shapes(report), metric_shapes(base));
  EXPECT_EQ(config_keys(report), config_keys(base));
}

}  // namespace

TEST(CampaignRegistry, NamesEqualCommittedBaselines) {
  std::vector<std::string> registered;
  for (const auto& c : campaigns()) registered.push_back(c.name);
  std::vector<std::string> committed;
  for (const auto& e :
       std::filesystem::directory_iterator(GFSL_BASELINES_DIR)) {
    const std::string file = e.path().filename().string();
    const std::string prefix = "BENCH_", suffix = ".json";
    if (file.size() > prefix.size() + suffix.size() &&
        file.compare(0, prefix.size(), prefix) == 0 &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      committed.push_back(file.substr(
          prefix.size(), file.size() - prefix.size() - suffix.size()));
    }
  }
  std::sort(registered.begin(), registered.end());
  std::sort(committed.begin(), committed.end());
  EXPECT_EQ(registered.size(), 11u);
  EXPECT_EQ(registered, committed);
}

TEST(CampaignRegistry, MicroOpsMatchesBaselineShape) {
  expect_report_matches_baseline("micro_ops");
}

TEST(CampaignRegistry, PersistOverheadMatchesBaselineShape) {
  expect_report_matches_baseline("persist_overhead");
}

TEST(CampaignRegistry, IntegrityOverheadMatchesBaselineShape) {
  expect_report_matches_baseline("integrity_overhead");
}
