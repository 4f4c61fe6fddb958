// Flight-recorder rings and the gfsl-postmortem-v1 dump path.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include "core/gfsl.h"
#include "core/inspect.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "harness/postmortem.h"
#include "obs/json_value.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "simt/team.h"
#include "simt/trace.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

struct Fixture {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  core::Gfsl sl;

  explicit Fixture(int team_size = 8, bool with_epochs = false)
      : sl(make_cfg(team_size), &mem, nullptr, nullptr,
           with_epochs ? &epochs : nullptr) {}

  static core::GfslConfig make_cfg(int team_size) {
    core::GfslConfig cfg;
    cfg.team_size = team_size;
    cfg.pool_chunks = 1u << 12;
    return cfg;
  }
};

obs::JsonParseResult dump_and_parse(const PostmortemContext& ctx) {
  std::ostringstream os;
  write_postmortem(os, ctx);
  return obs::json_parse(os.str());
}

}  // namespace

TEST(TeamTrace, RingWrapsKeepingTheLastCapacityEvents) {
  simt::TeamTrace ring(8, /*timestamps=*/false);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record(simt::TraceEvent::kChunkRead, i, 2 * i);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first tail: seqs 12..19, payloads intact.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].a, 12 + i);
    EXPECT_EQ(events[i].b, 2 * (12 + i));
  }
}

TEST(TeamTrace, ClocklessRingRecordsNoTimestamps) {
  simt::TeamTrace clockless(4, /*timestamps=*/false);
  simt::TeamTrace stamped(4, /*timestamps=*/true);
  clockless.record(simt::TraceEvent::kSplit, 1, 2);
  stamped.record(simt::TraceEvent::kSplit, 1, 2);
  EXPECT_EQ(clockless.snapshot()[0].ts_ns, 0u);
  EXPECT_GT(stamped.snapshot()[0].ts_ns, 0u);
  EXPECT_FALSE(clockless.timestamps());
}

TEST(Postmortem, OnDemandBundleRoundTripsThroughTheParser) {
  Fixture f(8, /*with_epochs=*/true);
  obs::MetricsRegistry reg(1);
  obs::TraceSession rings(64, /*timestamps=*/false);
  rings.ensure(1);
  simt::Team team(8, 0, 3);
  team.set_metrics(&reg.shard(0));
  team.set_trace(rings.team(0));
  for (Key k = 1; k <= 60; ++k) f.sl.insert(team, k, k);
  for (Key k = 1; k <= 60; k += 3) f.sl.erase(team, k);

  PostmortemContext ctx;
  ctx.reason = "on_demand";
  ctx.detail = "";
  ctx.gfsl = &f.sl;
  ctx.metrics = &reg;
  ctx.trace = &rings;
  ctx.info = {{"harness", "unit_test"}, {"seed", "1"}};
  ctx.last_k = 16;

  const auto parsed = dump_and_parse(ctx);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const obs::JsonValue& root = parsed.value;
  EXPECT_EQ(root.string_or("schema", ""), "gfsl-postmortem-v1");
  EXPECT_EQ(root.string_or("reason", ""), "on_demand");
  EXPECT_EQ(root.get("info")->string_or("harness", ""), "unit_test");

  const obs::JsonValue* teams = root.get("teams");
  ASSERT_NE(teams, nullptr);
  ASSERT_TRUE(teams->is_array());
  ASSERT_EQ(teams->as_array().size(), 1u);
  const obs::JsonValue& t0 = teams->as_array()[0];
  EXPECT_DOUBLE_EQ(t0.number_or("team", -1.0), 0.0);
  EXPECT_GT(t0.number_or("recorded", 0.0), 0.0);
  const obs::JsonValue* events = t0.get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_LE(events->as_array().size(), 16u);  // last_k cap
  EXPECT_FALSE(events->as_array().empty());
  EXPECT_FALSE(
      events->as_array()[0].string_or("event", "").empty());

  const obs::JsonValue* metrics = root.get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->string_or("schema", ""), "gfsl-metrics-v1");

  const obs::JsonValue* structure = root.get("structure");
  ASSERT_NE(structure, nullptr);
  EXPECT_TRUE(structure->get("validate")->get("ok")->as_bool());
  EXPECT_EQ(structure->number_or("bottom_keys", 0.0), 40.0);  // 60 - 20 erased
  ASSERT_NE(structure->get("levels"), nullptr);
  EXPECT_FALSE(structure->get("levels")->as_array().empty());
  ASSERT_NE(structure->get("bottom_occupancy_histogram"), nullptr);
  EXPECT_NE(structure->get("epoch"), nullptr);  // epochs attached
}

TEST(Postmortem, ValidateFailureDumpCarriesTheVerdict) {
  Fixture f;
  simt::Team team(8, 0, 3);
  for (Key k = 10; k <= 100; k += 10) f.sl.insert(team, k, k);

  // Corrupt the first bottom chunk's slot 0 with a key far above the chunk's
  // max: validate must flag the broken ordering invariant.
  core::GfslInspector insp(f.sl);
  bool cycle = false;
  const auto chain = insp.level_chain(0, &cycle);
  ASSERT_FALSE(chain.empty());
  auto* entries =
      const_cast<std::atomic<KV>*>(f.sl.arena().entries(chain[0].ref));
  entries[0].store(make_kv(KEY_INF - 2, 0), std::memory_order_release);
  const auto rep = f.sl.validate(/*strict=*/false);
  ASSERT_FALSE(rep.ok);

  PostmortemContext ctx;
  ctx.reason = "validate_failure";
  ctx.detail = rep.error;
  ctx.gfsl = &f.sl;

  const std::string path =
      dump_postmortem(::testing::TempDir(), "postmortem_unit", ctx);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto parsed = obs::json_parse(ss.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("reason", ""), "validate_failure");
  EXPECT_FALSE(parsed.value.string_or("detail", "").empty());
  const obs::JsonValue* validate =
      parsed.value.get("structure")->get("validate");
  ASSERT_NE(validate, nullptr);
  EXPECT_FALSE(validate->get("ok")->as_bool());
  EXPECT_FALSE(validate->string_or("error", "").empty());
}

TEST(Postmortem, DumpToMissingDirectoryReportsFailure) {
  PostmortemContext ctx;
  ctx.reason = "on_demand";
  EXPECT_TRUE(
      dump_postmortem("/nonexistent_dir_for_sure", "stem", ctx).empty());
}

TEST(Postmortem, NullRingsAndEmptyContextStillSerialize) {
  PostmortemContext ctx;
  ctx.reason = "watchdog_stall";
  ctx.trace = nullptr;  // no flight-recorder session
  const auto parsed = dump_and_parse(ctx);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("reason", ""), "watchdog_stall");
  EXPECT_TRUE(parsed.value.get("teams")->as_array().empty());
  EXPECT_EQ(parsed.value.get("structure"), nullptr);
  EXPECT_EQ(parsed.value.get("metrics"), nullptr);
}
