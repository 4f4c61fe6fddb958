// Unit tests for the per-key sequential-consistency checker, plus an
// end-to-end concurrent GFSL run checked against its recorded history.
#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "harness/history.h"
#include "harness/rig.h"
#include "harness/workload.h"
#include "obs/metrics.h"

namespace gfsl::harness {
namespace {

HistoryEvent ev(std::uint64_t inv, std::uint64_t resp, OpKind k, Key key,
                bool result) {
  return HistoryEvent{inv, resp, k, key, result, 0};
}

TEST(HistoryChecker, EmptyHistory) {
  const auto r = check_history({}, {}, {});
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(HistoryChecker, SequentialLegalHistory) {
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Insert, 5, true),
      ev(2, 3, OpKind::Contains, 5, true),
      ev(4, 5, OpKind::Delete, 5, true),
      ev(6, 7, OpKind::Contains, 5, false),
      ev(8, 9, OpKind::Delete, 5, false),
  };
  const auto r = check_history(h, {}, {});
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.keys_checked, 1u);
  EXPECT_EQ(r.events_checked, 5u);
}

TEST(HistoryChecker, RejectsDoubleInsertSuccess) {
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Insert, 5, true),
      ev(2, 3, OpKind::Insert, 5, true),  // both true, no delete between
  };
  EXPECT_FALSE(check_history(h, {}, {5}).ok);
}

TEST(HistoryChecker, RejectsContainsOnAbsentKey) {
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Contains, 9, true),  // never inserted
  };
  EXPECT_FALSE(check_history(h, {}, {}).ok);
}

TEST(HistoryChecker, AcceptsContainsOnInitialKey) {
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Contains, 9, true),
  };
  EXPECT_TRUE(check_history(h, {9}, {9}).ok);
}

TEST(HistoryChecker, OverlappingOpsMayReorder) {
  // Contains(5)=true overlaps Insert(5)=true and is allowed to linearize
  // after it, even though it was invoked first.
  std::vector<HistoryEvent> h{
      ev(0, 10, OpKind::Contains, 5, true),
      ev(1, 2, OpKind::Insert, 5, true),
  };
  EXPECT_TRUE(check_history(h, {}, {5}).ok) << "overlap reorder";
}

TEST(HistoryChecker, RealTimeOrderIsBinding) {
  // Contains(5)=true STRICTLY BEFORE the only insert: illegal.
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Contains, 5, true),
      ev(2, 3, OpKind::Insert, 5, true),
  };
  EXPECT_FALSE(check_history(h, {}, {5}).ok);
}

TEST(HistoryChecker, ConcurrentInsertsExactlyOneSucceeds) {
  std::vector<HistoryEvent> good{
      ev(0, 5, OpKind::Insert, 7, true),
      ev(1, 6, OpKind::Insert, 7, false),
  };
  EXPECT_TRUE(check_history(good, {}, {7}).ok);
  std::vector<HistoryEvent> bad{
      ev(0, 5, OpKind::Insert, 7, true),
      ev(1, 6, OpKind::Insert, 7, true),
  };
  EXPECT_FALSE(check_history(bad, {}, {7}).ok);
}

TEST(HistoryChecker, FinalStateMustMatch) {
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Insert, 5, true),
  };
  EXPECT_TRUE(check_history(h, {}, {5}).ok);
  EXPECT_FALSE(check_history(h, {}, {}).ok);  // key missing at the end
}

TEST(HistoryChecker, UntouchedKeysAccounted) {
  EXPECT_FALSE(check_history({}, {}, {3}).ok);   // appeared from nowhere
  EXPECT_FALSE(check_history({}, {3}, {}).ok);   // vanished
  EXPECT_TRUE(check_history({}, {3}, {3}).ok);   // carried through
}

TEST(HistoryChecker, MultiKeyIndependence) {
  std::vector<HistoryEvent> h{
      ev(0, 1, OpKind::Insert, 1, true),
      ev(2, 3, OpKind::Insert, 2, true),
      ev(4, 5, OpKind::Delete, 1, true),
      ev(6, 7, OpKind::Contains, 2, true),
  };
  const auto r = check_history(h, {}, {2});
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.keys_checked, 2u);
}

TEST(HistoryLog, RecordsRealTimeOrder) {
  HistoryLog log(16, 2);
  const auto t0 = log.begin_op();
  log.end_op(0, t0, OpKind::Insert, 1, true);
  const auto t1 = log.begin_op();
  log.end_op(1, t1, OpKind::Delete, 1, true);
  const auto m = log.merged();
  ASSERT_EQ(m.size(), 2u);
  EXPECT_LT(m[0].response, m[1].invoke);  // fully ordered
}

TEST(HistoryEndToEnd, ConcurrentGfslRunIsPerKeyConsistent) {
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 15;
  core::Gfsl sl(cfg, &mem);

  // Prefill a known set.
  std::vector<Key> initial;
  {
    simt::Team boot(16, 9, 1);
    for (Key k = 2; k <= 100; k += 2) {
      sl.insert(boot, k, k);
      initial.push_back(k);
    }
  }

  constexpr int kWorkers = 4;
  HistoryLog log(4'096, kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      simt::Team team(16, w, 33);
      Xoshiro256ss rng(derive_seed(1234, static_cast<std::uint64_t>(w)));
      for (int i = 0; i < 2'500; ++i) {
        const Key k = static_cast<Key>(1 + rng.below(120));  // hot overlap
        const OpKind kind = static_cast<OpKind>(rng.below(3));
        const auto t = log.begin_op();
        bool r = false;
        switch (kind) {
          case OpKind::Insert: r = sl.insert(team, k, k); break;
          case OpKind::Delete: r = sl.erase(team, k); break;
          case OpKind::Contains: r = sl.contains(team, k); break;
        }
        log.end_op(w, t, kind, k, r);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<Key> final_keys;
  for (const auto& [k, v] : sl.collect()) final_keys.push_back(k);
  const auto res = check_history(log.merged(), initial, final_keys);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.events_checked, kWorkers * 2'500u);
}

// run_history folds every team's SIMT and lock counters into its registry
// shard — the killed team's too — so crash-sweep metrics report real work.
TEST(HistoryEndToEnd, RegistryAttachedRunCountsSimtAndLockWork) {
  constexpr int kWorkers = 3;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 5,
                             kWorkers);
  Rig rig({.team_size = 8, .pool_chunks = 1u << 12}, Attach{.leases = true},
          &sched);
  const auto wl = make_workload(kMix_20_20_60, 32, 96, 3);
  rig->bulk_load(generate_prefill(wl));
  sched.kill_at(0, 300);

  obs::MetricsRegistry reg(kWorkers);
  HistoryOptions opt;
  opt.workers = kWorkers;
  opt.metrics = &reg;
  const LaunchResult out =
      run_history(rig.gfsl(), &sched, generate_ops(wl), opt);
  ASSERT_TRUE(out.killed[0]);
  EXPECT_GT(reg.shard(0).counter(obs::kInstructions), 0u);  // the victim
  const obs::MetricsShard all = reg.merged();
  EXPECT_GT(all.counter(obs::kInstructions), 0u);
  EXPECT_GT(all.counter(obs::kBallots), 0u);
  EXPECT_GT(all.counter(obs::kLockAcquires), 0u);
}

}  // namespace
}  // namespace gfsl::harness
