// Integration tests: the concurrent runner end-to-end on both structures.
#include <gtest/gtest.h>

#include <memory>

#include "harness/rig.h"
#include "harness/runner.h"
#include "harness/workload.h"

namespace gfsl::harness {
namespace {

WorkloadConfig small_workload(Mix mix, std::uint64_t range,
                              std::uint64_t ops) {
  WorkloadConfig wl;
  wl.mix = mix;
  wl.key_range = range;
  wl.num_ops = ops;
  wl.prefill = default_prefill(mix);
  wl.seed = 7;
  return wl;
}

TEST(Runner, GfslMixedRunCollectsEvents) {
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kMix_10_10_80, 2'000, 5'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);

  RunConfig rc;
  rc.num_workers = 4;
  const RunResult r = run_gfsl(sl, ops, rc, mem);

  EXPECT_EQ(r.kernel.ops, ops.size());
  EXPECT_FALSE(r.out_of_memory);
  EXPECT_GT(r.kernel.warp_steps, ops.size());          // many instrs per op
  EXPECT_GT(r.kernel.mem.warp_reads, ops.size());      // >1 chunk read per op
  EXPECT_EQ(r.kernel.mem.lane_reads, 0u);              // always coalesced
  EXPECT_GT(r.kernel.mem_epochs, 0u);
  EXPECT_GT(r.ops_true, ops.size() / 4);               // most contains hit
  EXPECT_TRUE(sl.validate(/*strict=*/false).ok);
}

TEST(Runner, McMixedRunCollectsEvents) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 1u << 20;
  baseline::McSkiplist sl(cfg, &mem);

  const auto wl = small_workload(kMix_10_10_80, 2'000, 5'000);
  sl.bulk_load(generate_prefill(wl), 3);
  const auto ops = generate_ops(wl);

  RunConfig rc;
  rc.num_workers = 4;
  const RunResult r = run_mc(sl, ops, rc, mem);

  EXPECT_EQ(r.kernel.ops, ops.size());
  EXPECT_GT(r.kernel.mem.lane_reads, ops.size() * 5);  // uncoalesced hops
  EXPECT_EQ(r.kernel.mem.warp_reads, 0u);
  EXPECT_GT(r.kernel.mem_epochs, 0u);
  // Divergence folding: epochs are far fewer than total hops but at least
  // hops / 32.
  EXPECT_LT(r.kernel.mem_epochs, r.kernel.mem.lane_reads);
  std::string err;
  EXPECT_TRUE(sl.validate(&err)) << err;
}

TEST(Runner, GfslReadsPerOpScaleWithStructureHeight) {
  // The coalescing advantage: per-op warp reads ~ height + 1..2 (§5.2).
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 32;
  cfg.pool_chunks = 1u << 15;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kContainsOnly, 20'000, 4'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);
  RunConfig rc;
  rc.num_workers = 2;
  const RunResult r = run_gfsl(sl, ops, rc, mem);
  const double reads_per_op = static_cast<double>(r.kernel.mem.warp_reads) /
                              static_cast<double>(ops.size());
  const double h = sl.current_height();
  // Down steps read one chunk per level, the bottom walk re-reads the
  // enclosing chunk and takes 1-2 lateral steps (§5.2).
  EXPECT_GE(reads_per_op, h);
  EXPECT_LE(reads_per_op, h + 5.0);
}

TEST(Runner, OutOfMemorySurfacesInResult) {
  device::DeviceMemory mem;
  baseline::McSkiplist::Config cfg;
  cfg.pool_slots = 2'048;  // tiny pool
  baseline::McSkiplist sl(cfg, &mem);

  const auto wl = small_workload(kInsertOnly, 100'000, 5'000);
  const auto ops = generate_ops(wl);
  RunConfig rc;
  rc.num_workers = 2;
  const RunResult r = run_mc(sl, ops, rc, mem);
  EXPECT_TRUE(r.out_of_memory);
}

TEST(Runner, SingleWorkerMatchesReferenceCounts) {
  // With one worker the run is sequential; ops_true is exactly predictable
  // from a reference simulation.
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kMix_20_20_60, 500, 3'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);

  std::set<Key> ref;
  for (const auto& [k, v] : generate_prefill(wl)) ref.insert(k);
  std::uint64_t expected_true = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::Insert:
        if (ref.insert(op.key).second) ++expected_true;
        break;
      case OpKind::Delete:
        if (ref.erase(op.key) > 0) ++expected_true;
        break;
      case OpKind::Contains:
        if (ref.count(op.key) > 0) ++expected_true;
        break;
    }
  }

  RunConfig rc;
  rc.num_workers = 1;
  const RunResult r = run_gfsl(sl, ops, rc, mem);
  EXPECT_EQ(r.ops_true, expected_true);
  EXPECT_EQ(sl.size(), ref.size());
}

TEST(Runner, ResultArrayMatchesReferencePerOp) {
  // The kernel's output buffer (§5.1): with one worker, every op's recorded
  // result must match a sequential reference exactly, element by element.
  device::DeviceMemory mem;
  core::GfslConfig cfg;
  cfg.team_size = 16;
  cfg.pool_chunks = 1u << 14;
  core::Gfsl sl(cfg, &mem);

  const auto wl = small_workload(kMix_20_20_60, 300, 2'000);
  sl.bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);

  std::set<Key> ref;
  for (const auto& [k, v] : generate_prefill(wl)) ref.insert(k);

  std::vector<std::uint8_t> results;
  RunConfig rc;
  rc.num_workers = 1;
  rc.results = &results;
  (void)run_gfsl(sl, ops, rc, mem);
  ASSERT_EQ(results.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    bool expect = false;
    switch (ops[i].kind) {
      case OpKind::Insert: expect = ref.insert(ops[i].key).second; break;
      case OpKind::Delete: expect = ref.erase(ops[i].key) > 0; break;
      case OpKind::Contains: expect = ref.count(ops[i].key) > 0; break;
    }
    ASSERT_EQ(results[i] != 0, expect) << "op " << i;
  }
}

TEST(Runner, ResultArrayWorksForMcAndPaired) {
  const auto wl = small_workload(kMix_10_10_80, 500, 1'000);
  const auto ops = generate_ops(wl);
  std::vector<std::uint8_t> results;

  {
    device::DeviceMemory mem;
    baseline::McSkiplist::Config cfg;
    cfg.pool_slots = 1u << 18;
    baseline::McSkiplist sl(cfg, &mem);
    sl.bulk_load(generate_prefill(wl), 1);
    RunConfig rc;
    rc.num_workers = 2;
    rc.results = &results;
    const auto r = run_mc(sl, ops, rc, mem);
    std::uint64_t trues = 0;
    for (const auto b : results) trues += b;
    EXPECT_EQ(trues, r.ops_true);
  }
  {
    device::DeviceMemory mem;
    core::GfslConfig cfg;
    cfg.team_size = 16;
    cfg.pool_chunks = 1u << 13;
    core::Gfsl sl(cfg, &mem);
    sl.bulk_load(generate_prefill(wl));
    RunConfig rc;
    rc.num_workers = 2;
    rc.results = &results;
    const auto r = run_gfsl_paired(sl, ops, rc, mem);
    std::uint64_t trues = 0;
    for (const auto b : results) trues += b;
    EXPECT_EQ(trues, r.ops_true);
  }
}

// A killed team must not call leave(): its yield() already handed the baton
// on, so a second grant would wake a waiter while the granted team still runs
// and consume the Deterministic RNG.  Nor may a batch barrier learn of the
// death from the victim's unwinding thread, which runs concurrently with the
// next team.  Replaying one seeded kill must reproduce the same interleaving,
// results and final contents every time.
struct KilledRun {
  std::uint64_t steps = 0;
  std::vector<std::uint8_t> results;
  std::vector<std::pair<Key, Value>> contents;
  bool operator==(const KilledRun&) const = default;
};

KilledRun run_with_kill(bool batched, std::uint64_t kill_step) {
  constexpr int kWorkers = 3;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic, 11,
                             kWorkers);
  Rig rig({.team_size = 8, .pool_chunks = 1u << 12}, Attach{.leases = true},
          &sched);
  const auto wl = make_workload(kMix_20_20_60, 48, 300, 7);
  rig->bulk_load(generate_prefill(wl));
  const auto ops = generate_ops(wl);
  sched.kill_at(0, kill_step);

  KilledRun out;
  RunConfig rc;
  rc.num_workers = kWorkers;
  rc.scheduler = &sched;
  rc.results = &out.results;
  if (batched) {
    BatchRunOptions bo;
    bo.batch_size = 64;
    (void)run_gfsl_batched(rig.gfsl(), ops, rc, rig.mem(), bo);
  } else {
    (void)run_gfsl(rig.gfsl(), ops, rc, rig.mem());
  }
  out.steps = sched.global_steps();
  out.contents = rig->collect();
  return out;
}

TEST(Runner, KilledTeamReplaysDeterministically) {
  for (const bool batched : {false, true}) {
    for (const std::uint64_t kill_step : {50u, 200u, 400u, 800u, 1600u}) {
      const KilledRun first = run_with_kill(batched, kill_step);
      for (int rep = 1; rep <= 20; ++rep) {
        const KilledRun again = run_with_kill(batched, kill_step);
        ASSERT_EQ(again.steps, first.steps)
            << (batched ? "batched" : "per-op") << " kill@" << kill_step
            << " rep " << rep;
        ASSERT_TRUE(again == first)
            << (batched ? "batched" : "per-op") << " kill@" << kill_step
            << " rep " << rep;
      }
    }
  }
}

}  // namespace
}  // namespace gfsl::harness
