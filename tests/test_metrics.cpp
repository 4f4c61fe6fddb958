// Unit + integration tests for the telemetry layer: histogram bucketing and
// percentiles, shard merging, the JSON run report, and end-to-end metric
// collection from a concurrent GFSL run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "harness/workload.h"
#include "obs/metrics.h"

namespace gfsl::obs {
namespace {

TEST(Histogram, BucketEdges) {
  // bucket b holds [2^(b-1), 2^b); value 0 is its own bucket.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64);

  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Histogram::bucket_lo(3), 4u);
  EXPECT_EQ(Histogram::bucket_hi(3), 7u);
  EXPECT_EQ(Histogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Histogram::bucket_hi(64), UINT64_MAX);

  // Every value lands inside its bucket's [lo, hi] span.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull,
                                (1ull << 40) - 1, 1ull << 40}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_GE(v, Histogram::bucket_lo(b)) << v;
    EXPECT_LE(v, Histogram::bucket_hi(b)) << v;
  }
}

TEST(Histogram, RecordAccumulates) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);

  h.record(0);
  h.record(1);
  h.record(3);
  h.record(12);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 16u);
  EXPECT_EQ(h.max(), 12u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 1u);  // 3
  EXPECT_EQ(h.bucket(4), 1u);  // 12
}

TEST(Histogram, PercentileWithinBucketBoundsOfOracle) {
  // Log-bucketed percentiles cannot be exact, but each estimate must stay
  // within the bucket covering the true order statistic — i.e. within a
  // factor of 2 of the sorted-vector oracle.
  Histogram h;
  std::vector<std::uint64_t> vals;
  Xoshiro256ss rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.below(100'000) + 1;
    h.record(v);
    vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double p : {50.0, 90.0, 99.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(vals.size() - 1));
    const double oracle = static_cast<double>(vals[rank]);
    const double est = h.percentile(p);
    EXPECT_GE(est, oracle / 2.0) << "p" << p;
    EXPECT_LE(est, oracle * 2.0) << "p" << p;
  }
  // p100 is exact: the recorded max caps the top bucket.
  EXPECT_DOUBLE_EQ(h.percentile(100.0), static_cast<double>(vals.back()));
}

TEST(Histogram, PercentileSingleValue) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.record(100);
  // All mass in one bucket capped by max: every percentile <= 100 and within
  // the bucket [64, 127].
  for (const double p : {1.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 64.0);
    EXPECT_LE(h.percentile(p), 100.0);
  }
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

TEST(Histogram, EmptyHistogramIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
  for (const double p : {-5.0, 0.0, 50.0, 100.0, 150.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 0.0) << p;
  }
}

TEST(Histogram, PercentileEndpointsAreExactMinAndMax) {
  Histogram h;
  for (const std::uint64_t v : {3ull, 17ull, 900ull, 12'345ull}) h.record(v);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 12'345u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 12'345.0);
  // Out-of-range p clamps to the endpoints instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(250.0), 12'345.0);
  // Interpolated estimates never escape [min, max].
  for (double p = 5.0; p < 100.0; p += 5.0) {
    EXPECT_GE(h.percentile(p), 3.0) << p;
    EXPECT_LE(h.percentile(p), 12'345.0) << p;
  }
}

TEST(Histogram, TopBucketStaysFiniteAtUint64Max) {
  // Bucket 64 spans [2^63, UINT64_MAX]; naive lo + (hi - lo + 1) * frac
  // arithmetic overflows there.  Estimates must stay finite and inside the
  // recorded [min, max].
  Histogram h;
  h.record(UINT64_MAX);
  h.record(UINT64_MAX - 1);
  h.record(std::uint64_t{1} << 63);
  for (const double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    const double est = h.percentile(p);
    EXPECT_GE(est, static_cast<double>(std::uint64_t{1} << 63)) << p;
    EXPECT_LE(est, static_cast<double>(UINT64_MAX)) << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile(0.0),
                   static_cast<double>(std::uint64_t{1} << 63));
}

TEST(Histogram, StddevMatchesClosedForm) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
  h.record(10);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);  // < 2 samples
  h.record(20);
  h.record(30);
  // Population stddev of {10, 20, 30} = sqrt(200/3).
  EXPECT_NEAR(h.stddev(), std::sqrt(200.0 / 3.0), 1e-9);

  Histogram flat;
  for (int i = 0; i < 100; ++i) flat.record(42);
  EXPECT_DOUBLE_EQ(flat.stddev(), 0.0);
}

TEST(Histogram, MergePreservesMinMaxAndMoments) {
  Histogram a, b;
  a.record(100);
  b.record(2);
  b.record(400);
  a += b;
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), 400u);
  Histogram ref;
  ref.record(100);
  ref.record(2);
  ref.record(400);
  EXPECT_DOUBLE_EQ(a.stddev(), ref.stddev());
  EXPECT_DOUBLE_EQ(a.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(a.percentile(100.0), 400.0);
}

TEST(Histogram, MergeAddsMass) {
  Histogram a, b;
  a.record(1);
  a.record(100);
  b.record(7);
  b.record(5'000);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 5'108u);
  EXPECT_EQ(a.max(), 5'000u);
  EXPECT_EQ(a.bucket(Histogram::bucket_of(7)), 1u);
  EXPECT_EQ(a.bucket(Histogram::bucket_of(5'000)), 1u);
}

TEST(MetricsShard, MergeSumsCountersAndHists) {
  MetricsShard a, b;
  a.add(kOpInsertCount, 3);
  a.add(kLockSpins, 10);
  a.record(kInsertWallNs, 500);
  b.add(kOpInsertCount, 2);
  b.add(kZombieEncounters);
  b.record(kInsertWallNs, 700);
  b.record(kEraseWallNs, 9);

  a += b;
  EXPECT_EQ(a.counter(kOpInsertCount), 5u);
  EXPECT_EQ(a.counter(kLockSpins), 10u);
  EXPECT_EQ(a.counter(kZombieEncounters), 1u);
  EXPECT_EQ(a.hist(kInsertWallNs).count(), 2u);
  EXPECT_EQ(a.hist(kInsertWallNs).sum(), 1'200u);
  EXPECT_EQ(a.hist(kEraseWallNs).count(), 1u);
}

TEST(MetricsRegistry, MergedFoldsAllShards) {
  MetricsRegistry reg(4);
  ASSERT_EQ(reg.shards(), 4);
  for (int i = 0; i < 4; ++i) {
    reg.shard(i).add(kOpContainsCount, static_cast<std::uint64_t>(i + 1));
    reg.shard(i).record(kContainsWallNs, 10);
  }
  const MetricsShard all = reg.merged();
  EXPECT_EQ(all.counter(kOpContainsCount), 10u);
  EXPECT_EQ(all.hist(kContainsWallNs).count(), 4u);
}

TEST(MetricsRegistry, AtLeastOneShard) {
  MetricsRegistry reg(0);
  EXPECT_EQ(reg.shards(), 1);
}

TEST(MetricsRegistry, JsonReportHasSchemaAndAllSections) {
  MetricsRegistry reg(2);
  reg.shard(0).add(kOpInsertCount, 7);
  reg.shard(1).record(kInsertWallNs, 321);
  reg.set_gauge(kHeight, 3.0);
  reg.set_gauge(kChunkOccupancy, 0.5);
  reg.set_info("structure", "gfsl");
  reg.set_info("mix", "10,10,80");
  reg.set_info("mix", "5,5,90");  // last write wins

  std::ostringstream ss;
  reg.write_json(ss);
  const std::string j = ss.str();

  EXPECT_NE(j.find("\"schema\": \"gfsl-metrics-v1\""), std::string::npos);
  EXPECT_NE(j.find("\"info\""), std::string::npos);
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"insert_count\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"height\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"structure\": \"gfsl\""), std::string::npos);
  EXPECT_NE(j.find("\"5,5,90\""), std::string::npos);
  EXPECT_EQ(j.find("\"10,10,80\""), std::string::npos);
  // Every declared metric name appears.
  for (int i = 0; i < kCounterIdCount; ++i) {
    const auto name = counter_name(static_cast<CounterId>(i));
    EXPECT_NE(j.find("\"" + std::string(name) + "\""), std::string::npos)
        << name;
  }
  for (int i = 0; i < kGaugeIdCount; ++i) {
    const auto name = gauge_name(static_cast<GaugeId>(i));
    EXPECT_NE(j.find("\"" + std::string(name) + "\""), std::string::npos)
        << name;
  }
}

// --- end-to-end: a concurrent GFSL run populates the registry ---

harness::WorkloadConfig small_workload() {
  harness::WorkloadConfig wl;
  wl.mix = harness::kMix_20_20_60;
  wl.key_range = 2'000;
  wl.num_ops = 6'000;
  wl.prefill = harness::default_prefill(wl.mix);
  wl.seed = 11;
  return wl;
}

TEST(MetricsEndToEnd, GfslRunPopulatesRegistry) {
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload();
  sl.bulk_load(harness::generate_prefill(wl));
  const auto ops = harness::generate_ops(wl);

  MetricsRegistry reg(4);
  harness::RunConfig rc;
  rc.num_workers = 4;
  rc.metrics = &reg;
  const auto r = harness::run_gfsl(sl, ops, rc, mem);

  const MetricsShard all = reg.merged();
  // Per-op counts match the workload mix exactly.
  std::uint64_t inserts = 0, erases = 0, contains = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::Insert: ++inserts; break;
      case OpKind::Delete: ++erases; break;
      case OpKind::Contains: ++contains; break;
    }
  }
  EXPECT_EQ(all.counter(kOpInsertCount), inserts);
  EXPECT_EQ(all.counter(kOpEraseCount), erases);
  EXPECT_EQ(all.counter(kOpContainsCount), contains);
  EXPECT_EQ(all.counter(kOpInsertTrue) + all.counter(kOpEraseTrue) +
                all.counter(kOpContainsTrue),
            r.ops_true);

  // Latency histograms: one sample per op, both in wall time and steps.
  EXPECT_EQ(all.hist(kInsertWallNs).count(), inserts);
  EXPECT_EQ(all.hist(kEraseWallNs).count(), erases);
  EXPECT_EQ(all.hist(kContainsWallNs).count(), contains);
  EXPECT_EQ(all.hist(kInsertSteps).count(), inserts);
  EXPECT_GT(all.hist(kContainsSteps).mean(), 0.0);

  // Updates take chunk locks; holds are measured in scheduler steps.
  EXPECT_GT(all.counter(kLockAcquires), 0u);
  EXPECT_GT(all.counter(kLockHoldSteps), 0u);
  EXPECT_GT(all.hist(kLockHoldStepsHist).count(), 0u);

  // Folded team counters match the runner's own totals.
  EXPECT_EQ(all.counter(kInstructions), r.team_totals.instructions);
  EXPECT_EQ(all.counter(kBallots), r.team_totals.ballots);
  EXPECT_EQ(all.counter(kShfls), r.team_totals.shfls);
  EXPECT_EQ(all.counter(kLockSpins), r.team_totals.lock_spins);
}

TEST(MetricsEndToEnd, RegistryWithTooFewShardsThrows) {
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 12;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload();
  const auto ops = harness::generate_ops(wl);
  MetricsRegistry reg(1);
  harness::RunConfig rc;
  rc.num_workers = 4;
  rc.metrics = &reg;
  EXPECT_THROW((void)harness::run_gfsl(sl, ops, rc, mem),
               std::invalid_argument);
}

TEST(MetricsEndToEnd, McRunRecordsOpLatencies) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 1u << 18;
  baseline::McSkiplist sl(cfg, &mem);

  const auto wl = small_workload();
  sl.bulk_load(harness::generate_prefill(wl), 5);
  const auto ops = harness::generate_ops(wl);

  MetricsRegistry reg(2);
  harness::RunConfig rc;
  rc.num_workers = 2;
  rc.metrics = &reg;
  (void)harness::run_mc(sl, ops, rc, mem);

  const MetricsShard all = reg.merged();
  EXPECT_EQ(all.counter(kOpInsertCount) + all.counter(kOpEraseCount) +
                all.counter(kOpContainsCount),
            ops.size());
  EXPECT_EQ(all.hist(kContainsWallNs).count(), all.counter(kOpContainsCount));
  EXPECT_GT(all.hist(kContainsSteps).mean(), 0.0);
}

TEST(MetricsEndToEnd, DisabledRunLeavesNoTrace) {
  // The null-registry fast path: no metrics attached, nothing recorded
  // anywhere (and nothing crashes).
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 12;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload();
  sl.bulk_load(harness::generate_prefill(wl));
  const auto ops = harness::generate_ops(wl);
  harness::RunConfig rc;
  rc.num_workers = 2;
  const auto r = harness::run_gfsl(sl, ops, rc, mem);
  EXPECT_EQ(r.kernel.ops, ops.size());
  EXPECT_TRUE(sl.validate(false).ok);
}

TEST(MetricsEndToEnd, ForesightRebuildGaugeCountsPriming) {
  // The priming rebuild runs on a team with no shard, so the per-team
  // foresight_rebuilds counter misses it; the foresight_rebuilds_total
  // gauge reads ForesightIndex::rebuilds() and includes it.
  harness::StructureSetup setup;
  setup.team_size = 16;
  setup.num_workers = 2;
  setup.warmup_ops = 0;
  setup.attach.foresight = true;
  MetricsRegistry reg(setup.num_workers);
  setup.metrics = &reg;
  const harness::Measurement m = harness::measure_gfsl(small_workload(), setup);

  ASSERT_GE(m.foresight_rebuilds, 1u);
  EXPECT_EQ(reg.gauge(kForesightRebuildsTotal),
            static_cast<double>(m.foresight_rebuilds));
  EXPECT_EQ(reg.merged().counter(kForesightRebuilds) + 1,
            m.foresight_rebuilds);
}

}  // namespace
}  // namespace gfsl::obs
