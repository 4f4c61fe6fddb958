#include "harness/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include <unistd.h>

#include "common/random.h"
#include "core/gfsl.h"
#include "device/device_memory.h"
#include "device/epoch.h"
#include "device/persist.h"
#include "harness/report.h"
#include "sched/lease.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "simt/team.h"
#include "simt/trace.h"

namespace gfsl::harness {

StructureSetup setup_from_scale(const Scale& sc, int team_size) {
  StructureSetup s;
  s.team_size = team_size;
  s.p_chunk = env_double("GFSL_P_CHUNK", 1.0);
  s.warps_per_block = static_cast<int>(env_u64("GFSL_WARPS_PER_BLOCK", 16));
  s.num_workers = static_cast<int>(sc.teams);
  s.warmup_ops = std::min<std::uint64_t>(sc.ops / 4, 20'000);
  return s;
}

WorkloadConfig make_workload(const Mix& mix, std::uint64_t range,
                             std::uint64_t ops, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.mix = mix;
  wl.key_range = range;
  wl.num_ops = ops;
  wl.prefill = default_prefill(mix);
  wl.seed = seed;
  return wl;
}

void print_scale_banner(const Scale& sc) {
  std::printf(
      "# scale: ops=%llu max_range=%llu reps=%llu teams=%llu "
      "(env: GFSL_OPS, GFSL_MAX_RANGE, GFSL_REPS, GFSL_TEAMS; "
      "paper scale: ops=10M, ranges to 100M, reps=10)\n",
      static_cast<unsigned long long>(sc.ops),
      static_cast<unsigned long long>(sc.max_range),
      static_cast<unsigned long long>(sc.reps),
      static_cast<unsigned long long>(sc.teams));
}

std::string mix_key(const Mix& mix) {
  return "mix_" + std::to_string(mix.insert_pct) + "_" +
         std::to_string(mix.delete_pct) + "_" +
         std::to_string(mix.contains_pct);
}

std::string range_key(std::uint64_t range) {
  return "r" + std::to_string(range);
}

Scale campaign_scale(const CampaignOptions& opts) {
  Scale sc = Scale::from_env();
  if (opts.quick) {
    // Fixed footprint for the CI gate: the point is run-to-run stability on
    // one config, not coverage — the committed baselines were produced at
    // exactly this scale.
    sc.ops = 6'000;
    sc.max_range = 100'000;
    sc.teams = 4;
    sc.reps = 3;
  }
  if (opts.reps > 0) sc.reps = static_cast<std::uint64_t>(opts.reps);
  return sc;
}

namespace {

/// "p50/p90/p99" tail column for a repetition summary (same unit as mean).
std::string fmt_tail(const Summary& s) {
  return fmt(s.p50, 1) + "/" + fmt(s.p90, 1) + "/" + fmt(s.p99, 1);
}

void stamp_scale(BenchReport& r, const Scale& sc, const CampaignOptions& o) {
  r.set_config("ops", std::to_string(sc.ops));
  r.set_config("max_range", std::to_string(sc.max_range));
  r.set_config("reps", std::to_string(sc.reps));
  r.set_config("teams", std::to_string(sc.teams));
  r.set_config("seed", std::to_string(sc.seed));
  r.set_config("quick", o.quick ? "1" : "0");
  r.set_config("p_chunk", fmt(env_double("GFSL_P_CHUNK", 1.0), 2));
}

void add_metric(BenchReport& r, std::string name, std::string unit,
                Better better, bool gate, std::vector<double> samples) {
  BenchMetric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.better = better;
  m.gate = gate;
  m.samples = std::move(samples);
  r.metrics.push_back(std::move(m));
}

// ---------------------------------------------------------------------------
// Figure 5.1 — GFSL-16 vs GFSL-32 vs M&C on [10,10,80].

BenchReport run_fig_5_1(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_1_chunk_size";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Figure 5.1: GFSL-16 vs GFSL-32 vs M&C, mix [10,10,80]\n");
  std::printf(
      "# paper @1M: GFSL-32 ~65.7, GFSL-16 within 28%% below, M&C ~21.3 "
      "MOPS\n\n");

  const int reps = static_cast<int>(sc.reps);
  Table t({"range", "GFSL-16 MOPS", "GFSL-32 MOPS", "M&C MOPS",
           "GFSL-32/GFSL-16"});
  for (const auto range : sweep_ranges(sc.max_range)) {
    auto wl = make_workload(kMix_10_10_80, range, sc.ops, sc.seed);
    auto s16 = setup_from_scale(sc, /*team_size=*/16);
    auto s32 = setup_from_scale(sc, /*team_size=*/32);
    const auto g16 = repeat_gfsl(wl, s16, reps);
    const auto g32 = repeat_gfsl(wl, s32, reps);
    const auto mc = repeat_mc(wl, s32, reps);
    t.add_row({fmt_range(range), fmt_ci(g16.mops.mean, g16.mops.ci95_half),
               fmt_ci(g32.mops.mean, g32.mops.ci95_half),
               mc.oom ? "OOM" : fmt_ci(mc.mops.mean, mc.mops.ci95_half),
               fmt(g32.mops.mean / g16.mops.mean, 2)});
    const std::string rk = range_key(range);
    add_metric(report, "gfsl16_mops." + rk, "mops", Better::kHigher, true,
               g16.samples);
    add_metric(report, "gfsl32_mops." + rk, "mops", Better::kHigher, true,
               g32.samples);
    if (!mc.oom) {
      add_metric(report, "mc_mops." + rk, "mops", Better::kHigher, true,
                 mc.samples);
    }
  }
  t.print(std::cout);
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.2 — GFSL / M&C ratio per mix per range.

BenchReport run_fig_5_2(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_2_ratio";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Figure 5.2: GFSL / M&C throughput ratio per key range\n");
  std::printf("# paper: 0.54-0.85 @10K, ~1 @30K, 1.27-10.64 above\n\n");

  const Mix mixes[] = {kMix_1_1_98, kMix_5_5_90, kMix_10_10_80, kMix_20_20_60};
  const auto ranges = sweep_ranges(sc.max_range);
  const int reps = static_cast<int>(sc.reps);

  std::vector<std::string> header{"range"};
  for (const auto& m : mixes) header.push_back(m.name());
  Table t(header);

  for (const auto range : ranges) {
    std::vector<std::string> row{fmt_range(range)};
    for (const auto& mix : mixes) {
      auto wl = make_workload(mix, range, sc.ops, sc.seed);
      const auto setup = setup_from_scale(sc);
      const auto g = repeat_gfsl(wl, setup, reps);
      const auto m = repeat_mc(wl, setup, reps);
      if (m.oom) {
        row.push_back("M&C OOM");
      } else {
        row.push_back(fmt(g.mops.mean / m.mops.mean, 2) + "x");
        // Informational: the MOPS series in fig_5_1/fig_5_3 already gate;
        // a ratio of two noisy series is too jittery to gate on its own.
        add_metric(report, "ratio." + mix_key(mix) + "." + range_key(range),
                   "x", Better::kHigher, false,
                   {g.mops.mean / m.mops.mean});
      }
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.3 — throughput vs key range per mixed-op distribution.

BenchReport run_fig_5_3(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_3_mixed_ops";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf(
      "# Figure 5.3: throughput vs key range, per mix (MOPS, mean ±95%% "
      "CI)\n\n");

  const Mix mixes[] = {kMix_1_1_98, kMix_5_5_90, kMix_10_10_80, kMix_20_20_60};
  const auto ranges = sweep_ranges(sc.max_range);
  const int reps = static_cast<int>(sc.reps);

  for (const auto& mix : mixes) {
    std::printf("## mix %s\n", mix.name().c_str());
    Table t({"range", "GFSL MOPS", "GFSL p50/p90/p99", "M&C MOPS",
             "GFSL spins/op", "L2 hit (GFSL)", "L2 hit (M&C)"});
    for (const auto range : ranges) {
      auto wl = make_workload(mix, range, sc.ops, sc.seed);
      const auto setup = setup_from_scale(sc);
      const auto g = repeat_gfsl(wl, setup, reps);
      const auto m = repeat_mc(wl, setup, reps);
      // One extra instrumented run for the diagnostic columns.
      const auto gd = measure_gfsl(wl, setup);
      const auto md = measure_mc(wl, setup);
      const auto hit = [](const model::KernelRun& k) {
        return k.mem.transactions
                   ? static_cast<double>(k.mem.l2_hits) /
                         static_cast<double>(k.mem.transactions)
                   : 0.0;
      };
      const double spins = static_cast<double>(gd.kernel.lock_spins) /
                           static_cast<double>(gd.kernel.ops);
      t.add_row({fmt_range(range), fmt_ci(g.mops.mean, g.mops.ci95_half),
                 fmt_tail(g.mops),
                 m.oom ? "OOM" : fmt_ci(m.mops.mean, m.mops.ci95_half),
                 fmt(spins, 3), fmt_pct(hit(gd.kernel)),
                 fmt_pct(hit(md.kernel))});
      const std::string key = mix_key(mix) + "." + range_key(range);
      add_metric(report, "gfsl_mops." + key, "mops", Better::kHigher, true,
                 g.samples);
      if (!m.oom) {
        add_metric(report, "mc_mops." + key, "mops", Better::kHigher, true,
                   m.samples);
      }
      add_metric(report, "gfsl_spins_per_op." + key, "spins", Better::kLower,
                 false, {spins});
      add_metric(report, "gfsl_chunks_per_trav." + key, "chunks",
                 Better::kLower, false, {gd.avg_chunks_per_traversal});
      add_metric(report, "gfsl_l2_hit." + key, "fraction", Better::kHigher,
                 false, {hit(gd.kernel)});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "paper anchors @[10,10,80]: GFSL ~65.7 MOPS and M&C ~21.3 MOPS at 1M; "
      "GFSL loses up to 46%% at 10K with few updates.\n");
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5.4 — single-op-type throughput vs key range.

BenchReport run_fig_5_4(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "fig_5_4_single_op";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf("# Figure 5.4: single-op-type throughput vs key range\n\n");

  struct Panel {
    Mix mix;
    const char* key;
    const char* title;
    const char* paper;
  };
  const Panel panels[] = {
      {kContainsOnly, "contains", "Contains-only",
       "paper: GFSL 2.9x-4.4x over M&C"},
      {kInsertOnly, "insert", "Insert-only", "paper: GFSL 3.5x-9.1x over M&C"},
      {kDeleteOnly, "delete", "Delete-only", "paper: GFSL 3.5x-12.6x over M&C"},
  };
  const auto ranges = sweep_ranges(sc.max_range);
  const int reps = static_cast<int>(sc.reps);

  for (const auto& p : panels) {
    std::printf("## %s (%s)\n", p.title, p.paper);
    Table t({"range", "GFSL MOPS", "M&C MOPS", "GFSL/M&C"});
    for (const auto range : ranges) {
      // Insert/Delete run `range` ops in the paper; scale alongside GFSL_OPS.
      const std::uint64_t ops = (p.mix.contains_pct == 100)
                                    ? sc.ops
                                    : std::min<std::uint64_t>(range, sc.ops);
      auto wl = make_workload(p.mix, range, ops, sc.seed);
      // Grow-from-empty runs capped below the range never leave the cache-
      // resident regime; start from the average live size instead.
      if (p.mix.insert_pct == 100 && ops < range) {
        wl.prefill = Prefill::HalfRange;
      }
      const auto setup = setup_from_scale(sc);
      const auto g = repeat_gfsl(wl, setup, reps);
      const auto m = repeat_mc(wl, setup, reps);
      t.add_row({fmt_range(range), fmt_ci(g.mops.mean, g.mops.ci95_half),
                 m.oom ? "OOM" : fmt_ci(m.mops.mean, m.mops.ci95_half),
                 m.oom ? "-" : fmt(g.mops.mean / m.mops.mean, 2) + "x"});
      const std::string key = std::string(p.key) + "." + range_key(range);
      add_metric(report, "gfsl_mops." + key, "mops", Better::kHigher, true,
                 g.samples);
      if (!m.oom) {
        add_metric(report, "mc_mops." + key, "mops", Better::kHigher, true,
                   m.samples);
      }
    }
    t.print(std::cout);
    std::printf("\n");
  }
  return report;
}

// ---------------------------------------------------------------------------
// Batch throughput — kernel-style batched dispatch vs per-op dispatch.

BenchReport run_batch_throughput(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "batch_throughput";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf(
      "# Batched vs per-op dispatch (MOPS, mean of %llu reps), mix "
      "20/20/60\n\n",
      static_cast<unsigned long long>(sc.reps));

  std::vector<std::uint64_t> ranges{100'000};
  if (sc.max_range >= 1'000'000) ranges.push_back(1'000'000);
  const std::size_t batch_sizes[] = {256, 1024, 4096};
  const int reps = static_cast<int>(sc.reps);

  for (const auto range : ranges) {
    std::printf("## key range %s\n", fmt_range(range).c_str());
    Table t({"dispatch", "model MOPS", "sim MOPS", "speedup", "reuse %",
             "chunks/trav", "steals/batch"});

    auto wl = make_workload(kMix_20_20_60, range, sc.ops, sc.seed);
    auto setup = setup_from_scale(sc);
    const std::string rk = range_key(range);

    setup.batch_size = 0;  // baseline: the seed's per-op dispatch
    const auto base = repeat_gfsl(wl, setup, reps);
    const auto based = measure_gfsl(wl, setup);
    t.add_row({"per-op", fmt_ci(base.mops.mean, base.mops.ci95_half),
               fmt(based.sim_mops), "1.00x", "-",
               fmt(based.avg_chunks_per_traversal, 2), "-"});
    add_metric(report, "per_op_mops." + rk, "mops", Better::kHigher, true,
               base.samples);
    add_metric(report, "per_op_chunks_per_trav." + rk, "chunks",
               Better::kLower, true, {based.avg_chunks_per_traversal});

    for (const auto bs : batch_sizes) {
      setup.batch_size = bs;
      const auto b = repeat_gfsl(wl, setup, reps);
      const auto bd = measure_gfsl(wl, setup);
      const auto descents = bd.batch.descent_reuses + bd.batch.full_descents;
      const double reuse =
          descents ? static_cast<double>(bd.batch.descent_reuses) /
                         static_cast<double>(descents)
                   : 0.0;
      const auto num_batches = (wl.num_ops + bs - 1) / bs;
      t.add_row({"batch " + std::to_string(bs),
                 fmt_ci(b.mops.mean, b.mops.ci95_half), fmt(bd.sim_mops),
                 fmt(b.mops.mean / base.mops.mean, 2) + "x", fmt_pct(reuse),
                 fmt(bd.avg_chunks_per_traversal, 2),
                 fmt(static_cast<double>(bd.batch.steals) /
                         static_cast<double>(num_batches),
                     1)});
      const std::string key = "b" + std::to_string(bs) + "." + rk;
      add_metric(report, "batch_mops." + key, "mops", Better::kHigher, true,
                 b.samples);
      add_metric(report, "batch_speedup." + key, "x", Better::kHigher, false,
                 {b.mops.mean / base.mops.mean});
      add_metric(report, "batch_reuse_pct." + key, "fraction", Better::kHigher,
                 true, {reuse});
      add_metric(report, "batch_chunks_per_trav." + key, "chunks",
                 Better::kLower, true, {bd.avg_chunks_per_traversal});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "acceptance: batched >= 1.3x per-op modeled throughput at batch >= "
      "1024, 1M key range.\n");
  return report;
}

// ---------------------------------------------------------------------------
// Steady-state churn — memory evolution under epoch reclamation.

struct ChurnParams {
  int workers = 4;
  int team_size = 8;
  std::uint32_t pool_chunks = 4096;
  std::uint64_t key_range = 512;
  std::uint64_t slices = 8;
  std::uint64_t ops_per_slice = 6144;  // slices * this >= 10x pool capacity
  std::uint64_t seed = 0xC0FF;
};

struct ChurnOutcome {
  std::uint64_t slices_survived = 0;
  std::uint64_t final_in_use = 0;
  std::uint64_t final_limbo = 0;
  std::uint64_t final_free = 0;
  std::uint64_t reclaimed = 0;
  double host_kops = 0.0;  // mean over completed slices
};

ChurnOutcome run_churn(const ChurnParams& p, bool with_epochs, Table* t) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  core::GfslConfig cfg;
  cfg.team_size = p.team_size;
  cfg.pool_chunks = p.pool_chunks;
  core::Gfsl sl(cfg, &mem, nullptr, nullptr, with_epochs ? &epochs : nullptr);
  const char* mode = with_epochs ? "ebr" : "leak";
  ChurnOutcome out;
  double kops_sum = 0.0;

  for (std::uint64_t s = 0; s < p.slices; ++s) {
    std::atomic<int> oom{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int w = 0; w < p.workers; ++w) {
      threads.emplace_back([&, w] {
        simt::Team team(p.team_size, w, 3);
        Xoshiro256ss rng(derive_seed(p.seed + s, static_cast<std::uint64_t>(w)));
        const std::uint64_t n =
            p.ops_per_slice / static_cast<std::uint64_t>(p.workers);
        try {
          for (std::uint64_t i = 0; i < n; ++i) {
            const Key k = 1 + static_cast<Key>(rng.below(p.key_range));
            if (rng.below(2) == 0) {
              sl.insert(team, k, k);
            } else {
              sl.erase(team, k);
            }
          }
        } catch (const std::bad_alloc&) {
          oom.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) th.join();
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double kops = static_cast<double>(p.ops_per_slice) / sec / 1e3;

    t->add_row({mode, std::to_string(s + 1), fmt(kops),
                std::to_string(sl.chunks_allocated()),
                std::to_string(with_epochs ? epochs.limbo_total() : 0),
                std::to_string(sl.arena().free_count()),
                std::to_string(sl.chunks_reclaimed()),
                oom.load() != 0 ? "POOL EXHAUSTED" : ""});
    kops_sum += kops;
    out.slices_survived = s + 1;
    out.final_in_use = sl.chunks_allocated();
    out.final_limbo = with_epochs ? epochs.limbo_total() : 0;
    out.final_free = sl.arena().free_count();
    out.reclaimed = sl.chunks_reclaimed();
    if (oom.load() != 0) break;  // leaking mode: no point continuing
  }
  out.host_kops =
      out.slices_survived ? kops_sum / static_cast<double>(out.slices_survived)
                          : 0.0;
  return out;
}

BenchReport run_steady_state_churn(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "steady_state_churn";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  ChurnParams p;
  p.seed = sc.seed == 0x5EEDF ? p.seed : sc.seed;
  // GFSL_OPS scales total churn volume; keep >= 10x pool capacity per mode.
  p.ops_per_slice = std::max<std::uint64_t>(
      sc.ops / p.slices, 10ull * p.pool_chunks / p.slices + 1);
  std::printf(
      "# steady-state churn: GFSL-%d, 50/50 insert/erase, range %llu, "
      "pool %u chunks, %llu slices x %llu ops, %d free-running teams\n",
      p.team_size, static_cast<unsigned long long>(p.key_range), p.pool_chunks,
      static_cast<unsigned long long>(p.slices),
      static_cast<unsigned long long>(p.ops_per_slice), p.workers);
  std::printf(
      "# detached (leak): every merge strands a zombie chunk until the pool "
      "dies; attached (ebr): in-use flat-lines at the working set\n\n");

  Table t({"mode", "slice", "kops/s(host)", "in_use", "limbo", "free",
           "reclaimed", "note"});
  // The per-metric samples are per-repetition outcomes of the full soak.
  const int reps = static_cast<int>(sc.reps);
  std::vector<double> ebr_in_use, ebr_reclaimed, ebr_limbo, ebr_kops,
      leak_slices;
  for (int r = 0; r < reps; ++r) {
    ChurnParams pr = p;
    pr.seed = derive_seed(p.seed, static_cast<std::uint64_t>(r) + 1);
    const auto leak = run_churn(pr, /*with_epochs=*/false, &t);
    const auto ebr = run_churn(pr, /*with_epochs=*/true, &t);
    leak_slices.push_back(static_cast<double>(leak.slices_survived));
    ebr_in_use.push_back(static_cast<double>(ebr.final_in_use));
    ebr_reclaimed.push_back(static_cast<double>(ebr.reclaimed));
    ebr_limbo.push_back(static_cast<double>(ebr.final_limbo));
    ebr_kops.push_back(ebr.host_kops);
  }
  t.print(std::cout);

  report.set_config("pool_chunks", std::to_string(p.pool_chunks));
  report.set_config("churn_key_range", std::to_string(p.key_range));
  report.set_config("churn_slices", std::to_string(p.slices));
  report.set_config("churn_ops_per_slice", std::to_string(p.ops_per_slice));
  // Gate the memory-evolution invariants (deterministic up to scheduling
  // noise), never the host-side throughput.
  add_metric(report, "ebr_final_in_use", "chunks", Better::kLower, true,
             std::move(ebr_in_use));
  add_metric(report, "ebr_reclaimed_total", "chunks", Better::kHigher, false,
             std::move(ebr_reclaimed));
  add_metric(report, "ebr_final_limbo", "chunks", Better::kLower, false,
             std::move(ebr_limbo));
  add_metric(report, "ebr_host_kops", "kops", Better::kHigher, false,
             std::move(ebr_kops));
  add_metric(report, "leak_slices_survived", "slices", Better::kNone, false,
             std::move(leak_slices));
  return report;
}

// ---------------------------------------------------------------------------
// Attach-mode overhead campaigns (micro_ops, persist_overhead,
// integrity_overhead) — host ns/op of the same two loops on the same
// fixture (GFSL-32, 10K prefilled keys, 2^16-chunk pool), once per attach
// mode.  The modes are interleaved within each rep so machine drift
// (thermal, cache pressure from neighbors) hits every arm of rep r alike.
// Raw nanoseconds are machine-speed-bound and stay informational; a
// campaign that gates does so on the per-rep ratios against its first mode,
// which cancel the machine out.

/// What an attach mode arms on the fixture (a bit set).
enum Arm : unsigned {
  kArmMetrics = 1u << 0,         // metrics shard on the team
  kArmFlightRecorder = 1u << 1,  // clockless TeamTrace ring on the team
  kArmLeases = 1u << 2,          // in-memory LeaseTable
  kArmPersist = 1u << 3,         // file-backed PersistRegion + its LeaseTable
  kArmCrc32c = 1u << 4,          // IntegritySidecar with CRC32C seals
  kArmXorFold = 1u << 5,         // IntegritySidecar with xor-fold seals
};

struct AttachMode {
  std::string key;  // metric-name suffix: "contains_ns.<key>"
  unsigned arms = 0;
};

struct OverheadCampaign {
  std::string name;
  std::string description;
  std::string note;        // banner detail after "(R reps x I iters; "
  std::string acceptance;  // closing line; empty = none
  std::vector<AttachMode> modes;  // modes[0] is the ratio base
  /// Emit gated per-rep `<loop>_ratio.<mode>` series against modes[0].
  bool gate_ratios = false;
  /// Also time a quiescent crc32c scrub_pass per scanned chunk.
  bool time_scrub = false;
};

struct OverheadFixture {
  OverheadFixture(unsigned arms, const std::string& region_path)
      : team(32, 0, 1) {
    core::GfslConfig cfg;
    cfg.team_size = 32;
    cfg.pool_chunks = 1u << 16;
    if (arms & kArmPersist) {
      region = std::make_unique<device::PersistRegion>(
          region_path, device::PersistRegion::Mode::kCreate,
          device::PersistGeometry{32, cfg.pool_chunks});
    }
    if (arms & (kArmLeases | kArmPersist)) {
      leases = std::make_unique<sched::LeaseTable>();
      if (region) {
        leases->attach(
            static_cast<std::atomic<std::uint32_t>*>(region->lease_slots()),
            /*adopt=*/false);
      }
    }
    if (arms & (kArmCrc32c | kArmXorFold)) {
      sidecar = std::make_unique<core::IntegritySidecar>(
          (arms & kArmCrc32c) ? core::SealAlgo::kCrc32c
                              : core::SealAlgo::kXorFold);
    }
    sl = std::make_unique<core::Gfsl>(cfg, &mem, nullptr, leases.get(),
                                      nullptr, region.get(), nullptr, nullptr,
                                      sidecar.get());
    if (arms & kArmMetrics) team.set_metrics(&metrics.shard(0));
    if (arms & kArmFlightRecorder) team.set_trace(&ring);
    std::vector<std::pair<Key, Value>> pairs;
    for (Key k = 1; k <= 10'000; ++k) pairs.emplace_back(k * 2, k);
    sl->bulk_load(pairs);
  }
  device::DeviceMemory mem;
  simt::Team team;
  obs::MetricsRegistry metrics{1};
  simt::TeamTrace ring{256, /*timestamps=*/false};
  std::unique_ptr<device::PersistRegion> region;
  std::unique_ptr<sched::LeaseTable> leases;
  std::unique_ptr<core::IntegritySidecar> sidecar;
  std::unique_ptr<core::Gfsl> sl;
};

double ns_since(std::chrono::steady_clock::time_point t0, std::uint64_t ops) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
         static_cast<double>(ops);
}

double contains_ns(unsigned arms, std::uint64_t iters,
                   const std::string& region_path) {
  OverheadFixture f(arms, region_path);
  Key k = 1;
  bool sink = false;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    sink ^= f.sl->contains(f.team, k);
    k = (k % 20'000) + 1;
  }
  const double ns = ns_since(t0, iters);
  if (sink) std::fputs("", stdout);  // keep the loop observable
  return ns;
}

double insert_erase_ns(unsigned arms, std::uint64_t iters,
                       const std::string& region_path) {
  OverheadFixture f(arms, region_path);
  Key k = 50'001;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    f.sl->insert(f.team, k, 0);
    f.sl->erase(f.team, k);
    ++k;
  }
  return ns_since(t0, iters * 2);  // two structure ops per iteration
}

/// Quiescent full-pool scrub of an undamaged structure, per scanned chunk.
double scrub_ns_per_chunk(const std::string& region_path) {
  OverheadFixture f(kArmCrc32c, region_path);
  const auto t0 = std::chrono::steady_clock::now();
  const core::ScrubReport rep = f.sl->scrub_pass(f.team);
  return rep.chunks_scanned == 0 ? 0.0 : ns_since(t0, rep.chunks_scanned);
}

BenchReport run_overhead(const OverheadCampaign& oc,
                         const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = oc.name;
  stamp_scale(report, sc, opts);

  const std::uint64_t iters = opts.quick ? 20'000 : 50'000;
  const int reps = static_cast<int>(sc.reps);
  report.set_config("iters", std::to_string(iters));
  // Unique per process: a concurrent run must not truncate this mapping.
  const std::string region_path =
      (std::filesystem::temp_directory_path() /
       ("gfsl_" + oc.name + "." + std::to_string(::getpid()) + ".region"))
          .string();

  std::printf("# %s: %s\n# (%d reps x %llu iters; %s)\n\n", oc.name.c_str(),
              oc.description.c_str(), reps,
              static_cast<unsigned long long>(iters), oc.note.c_str());

  const std::size_t n = oc.modes.size();
  std::vector<std::vector<double>> ns_c(n), ns_ie(n);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t mi = 0; mi < n; ++mi) {
      ns_c[mi].push_back(contains_ns(oc.modes[mi].arms, iters, region_path));
      ns_ie[mi].push_back(
          insert_erase_ns(oc.modes[mi].arms, iters, region_path));
    }
  }

  const auto per_rep_ratio = [](const std::vector<double>& num,
                                const std::vector<double>& den) {
    BenchMetric m;
    for (std::size_t r = 0; r < num.size(); ++r) {
      m.samples.push_back(num[r] / den[r]);
    }
    return m;
  };
  const auto mean_stddev = [](const std::vector<double>& samples) {
    BenchMetric m;
    m.samples = samples;
    return fmt_mean_stddev(m.mean(), m.stddev(), 1);
  };
  Table t({"loop", "mode", "ns/op (mean ±stddev)",
           "vs " + oc.modes.front().key});
  for (std::size_t mi = 0; mi < n; ++mi) {
    const std::string& mk = oc.modes[mi].key;
    BenchMetric rc = per_rep_ratio(ns_c[mi], ns_c[0]);
    BenchMetric rie = per_rep_ratio(ns_ie[mi], ns_ie[0]);
    t.add_row({"contains", mk, mean_stddev(ns_c[mi]),
               fmt(rc.mean(), 2) + "x"});
    t.add_row({"insert_erase", mk, mean_stddev(ns_ie[mi]),
               fmt(rie.mean(), 2) + "x"});
    add_metric(report, "contains_ns." + mk, "ns", Better::kLower, false,
               ns_c[mi]);
    add_metric(report, "insert_erase_ns." + mk, "ns", Better::kLower, false,
               ns_ie[mi]);
    if (oc.gate_ratios && mi > 0) {
      add_metric(report, "contains_ratio." + mk, "x", Better::kLower, true,
                 std::move(rc.samples));
      add_metric(report, "insert_erase_ratio." + mk, "x", Better::kLower, true,
                 std::move(rie.samples));
    }
  }
  if (oc.time_scrub) {
    std::vector<double> ns_scrub;
    for (int r = 0; r < reps; ++r) {
      ns_scrub.push_back(scrub_ns_per_chunk(region_path));
    }
    t.add_row({"scrub_pass", "crc32c", mean_stddev(ns_scrub) + " /chunk",
               "-"});
    add_metric(report, "scrub_ns_per_chunk.crc32c", "ns", Better::kLower,
               false, std::move(ns_scrub));
  }
  t.print(std::cout);
  if (!oc.acceptance.empty()) {
    std::printf("\nacceptance: %s\n", oc.acceptance.c_str());
  }
  std::error_code ec;
  std::filesystem::remove(region_path, ec);
  return report;
}

Campaign overhead_campaign(OverheadCampaign oc) {
  std::string name = oc.name;
  std::string description = oc.description;
  return {std::move(name), std::move(description),
          [oc = std::move(oc)](const CampaignOptions& opts) {
            return run_overhead(oc, opts);
          }};
}

// ---------------------------------------------------------------------------
// Scan-mixed — MVCC snapshot scans concurrent with a mutating mix
// (DESIGN.md §13).  A/B: the same mutator workload runs once with no
// SnapshotManager attached (seed path; the scanner uses the best-effort
// legacy scan) and once with versioning armed (the scanner takes a snapshot,
// scan_at's the full range, releases, repeats).  Gated series: mutator
// throughput in both modes and their paired ratio — the price mutators pay
// for record stamping plus a live scanner pinning the GC watermark.

struct ScanMixedParams {
  int workers = 4;
  int team_size = 8;
  std::uint32_t pool_chunks = 1u << 14;
  std::uint64_t key_range = 4096;
  std::uint64_t ops = 6'000;  // total mutator ops per rep
  std::uint64_t seed = 0x5CA7;
};

struct ScanMixedOutcome {
  double mut_kops = 0.0;       // mutator host throughput
  double scans = 0.0;          // full-range scans the scanner completed
  double keys_per_scan = 0.0;  // mean pairs per completed scan
  double expired = 0.0;        // scan_at aborts on an expired snapshot
};

ScanMixedOutcome run_scan_mixed_once(const ScanMixedParams& p, bool mvcc) {
  device::DeviceMemory mem;
  device::EpochManager epochs;
  std::unique_ptr<core::SnapshotManager> snaps;
  if (mvcc) snaps = std::make_unique<core::SnapshotManager>(p.pool_chunks);
  core::GfslConfig cfg;
  cfg.team_size = p.team_size;
  cfg.pool_chunks = p.pool_chunks;
  core::Gfsl sl(cfg, &mem, nullptr, nullptr, &epochs, nullptr, snaps.get());
  std::vector<std::pair<Key, Value>> pairs;
  for (Key k = 2; k < static_cast<Key>(p.key_range); k += 2) {
    pairs.emplace_back(k, k);
  }
  sl.bulk_load(pairs);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scans{0}, keys{0}, expired{0};
  std::thread scanner([&] {
    simt::Team team(p.team_size, p.workers, 5);
    std::vector<std::pair<Key, Value>> got;
    while (!done.load(std::memory_order_acquire)) {
      got.clear();
      if (mvcc) {
        core::Snapshot s = sl.snapshot();
        const auto st = sl.scan_at(team, s, MIN_USER_KEY, MAX_USER_KEY, got);
        sl.release_snapshot(s);
        if (st != core::ScanAtStatus::kOk) {
          expired.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        sl.scan(team, MIN_USER_KEY, MAX_USER_KEY, got);
      }
      scans.fetch_add(1, std::memory_order_relaxed);
      keys.fetch_add(got.size(), std::memory_order_relaxed);
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < p.workers; ++w) {
    threads.emplace_back([&, w] {
      simt::Team team(p.team_size, w, 3);
      Xoshiro256ss rng(derive_seed(p.seed, static_cast<std::uint64_t>(w)));
      const std::uint64_t n = p.ops / static_cast<std::uint64_t>(p.workers);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Key k = 1 + static_cast<Key>(rng.below(p.key_range));
        const auto roll = rng.below(100);
        if (roll < 40) {
          sl.insert(team, k, k);
        } else if (roll < 80) {
          sl.erase(team, k);
        } else {
          (void)sl.contains(team, k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  done.store(true, std::memory_order_release);
  scanner.join();

  ScanMixedOutcome out;
  out.mut_kops = static_cast<double>(p.ops) / sec / 1e3;
  out.scans = static_cast<double>(scans.load());
  out.keys_per_scan =
      scans.load() ? static_cast<double>(keys.load()) /
                         static_cast<double>(scans.load())
                   : 0.0;
  out.expired = static_cast<double>(expired.load());
  return out;
}

BenchReport run_scan_mixed(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "scan_mixed";
  stamp_scale(report, sc, opts);

  ScanMixedParams p;
  p.workers = static_cast<int>(sc.teams);
  p.ops = sc.ops;
  p.seed = sc.seed;
  report.set_config("key_range", std::to_string(p.key_range));
  const int reps = static_cast<int>(sc.reps);

  std::printf(
      "# scan_mixed: %d mutator teams (mix 40/40/20 over %llu keys) vs one "
      "full-range scanner — legacy best-effort scan (detached) against "
      "snapshot()+scan_at() (mvcc)\n"
      "# (%d reps x %llu ops; gated on mutator kops and the paired "
      "mvcc/detached ratio, which cancels machine speed)\n\n",
      p.workers, static_cast<unsigned long long>(p.key_range), reps,
      static_cast<unsigned long long>(p.ops));

  // Interleave the two arms within each rep (same rationale as
  // persist_overhead: drift hits both arms of rep r alike, so the paired
  // per-rep ratio carries real spread for bench_compare's k-sigma band).
  std::vector<double> kops[2], scans[2], kps[2], expired[2];
  for (int r = 0; r < reps; ++r) {
    for (int mi = 0; mi < 2; ++mi) {
      const auto o = run_scan_mixed_once(p, /*mvcc=*/mi == 1);
      kops[mi].push_back(o.mut_kops);
      scans[mi].push_back(o.scans);
      kps[mi].push_back(o.keys_per_scan);
      expired[mi].push_back(o.expired);
    }
  }

  Table t({"mode", "mutator kops (mean ±stddev)", "vs detached", "scans/rep",
           "keys/scan", "expired"});
  for (int mi = 0; mi < 2; ++mi) {
    const std::string mk = mi == 0 ? "detached" : "mvcc";
    BenchMetric m;
    m.samples = kops[mi];
    BenchMetric s;
    s.samples = scans[mi];
    BenchMetric k;
    k.samples = kps[mi];
    std::vector<double> ratio;
    for (int r = 0; r < reps; ++r) {
      ratio.push_back(kops[0][static_cast<std::size_t>(r)] /
                      kops[mi][static_cast<std::size_t>(r)]);
    }
    BenchMetric rm;
    rm.samples = ratio;
    BenchMetric ex;
    ex.samples = expired[mi];
    t.add_row({mk, fmt_mean_stddev(m.mean(), m.stddev(), 1),
               mi == 0 ? "1.00x" : fmt(rm.mean(), 2) + "x", fmt(s.mean(), 1),
               fmt(k.mean(), 1), fmt(ex.mean(), 1)});
    add_metric(report, "mutator_kops." + mk, "kops", Better::kHigher, true,
               kops[mi]);
    add_metric(report, "scans." + mk, "scans", Better::kHigher, false,
               scans[mi]);
    add_metric(report, "keys_per_scan." + mk, "keys", Better::kHigher, false,
               kps[mi]);
    if (mi == 1) {
      add_metric(report, "mutator_slowdown.mvcc", "x", Better::kLower, true,
                 std::move(ratio));
      add_metric(report, "scan_expired.mvcc", "scans", Better::kLower, false,
                 expired[mi]);
    }
  }
  t.print(std::cout);
  std::printf(
      "\nacceptance: the mvcc mutator slowdown stays a small constant factor "
      "(record stamping + a pinned watermark, no stop-the-world), and "
      "scan_at keeps completing full-range cuts under churn (expired ~ 0).\n");
  return report;
}

// ---------------------------------------------------------------------------
// Foresight point ops — hinted descent A/B (DESIGN.md §14).

BenchReport run_foresight_pointops(const CampaignOptions& opts) {
  const Scale sc = campaign_scale(opts);
  BenchReport report;
  report.campaign = "foresight_pointops";
  stamp_scale(report, sc, opts);

  print_scale_banner(sc);
  std::printf(
      "# Foresight hint table A/B: classic head descent (detached) vs hinted "
      "bottom-chunk jump (foresight), per-op dispatch\n"
      "# (hit/stale rates from gfsl-metrics-v1 counters of one armed rep)\n\n");

  std::vector<std::uint64_t> ranges{100'000};
  if (sc.max_range >= 1'000'000) ranges.push_back(1'000'000);
  // Contains-only is the paper's pure point-lookup test; 5/5/90 adds enough
  // churn that splits and merges keep dirtying the published table.
  const Mix mixes[] = {kContainsOnly, kMix_5_5_90};
  const int reps = static_cast<int>(sc.reps);

  for (const auto range : ranges) {
    for (const auto& mix : mixes) {
      std::printf("## key range %s, mix %s\n", fmt_range(range).c_str(),
                  mix.name().c_str());
      Table t({"mode", "model MOPS", "speedup", "chunks/trav", "hit %",
               "stale %", "rebuilds"});

      auto wl = make_workload(mix, range, sc.ops, sc.seed);
      auto setup = setup_from_scale(sc);
      const std::string key = mix_key(mix) + "." + range_key(range);

      setup.foresight = false;
      const auto base = repeat_gfsl(wl, setup, reps);
      const auto based = measure_gfsl(wl, setup);
      t.add_row({"detached", fmt_ci(base.mops.mean, base.mops.ci95_half),
                 "1.00x", fmt(based.avg_chunks_per_traversal, 2), "-", "-",
                 "-"});
      add_metric(report, "detached_mops." + key, "mops", Better::kHigher, true,
                 base.samples);
      add_metric(report, "detached_chunks_per_trav." + key, "chunks",
                 Better::kLower, true, {based.avg_chunks_per_traversal});

      setup.foresight = true;
      const auto fs = repeat_gfsl(wl, setup, reps);
      obs::MetricsRegistry reg(setup.num_workers);
      setup.metrics = &reg;
      const auto fsd = measure_gfsl(wl, setup);
      setup.metrics = nullptr;
      const obs::MetricsShard all = reg.merged();
      const double hits =
          static_cast<double>(all.counter(obs::kForesightHits));
      const double falls =
          static_cast<double>(all.counter(obs::kForesightFallbacks));
      const double stale =
          static_cast<double>(all.counter(obs::kForesightStaleHints));
      const double consults = hits + falls;
      const double hit_rate = consults > 0.0 ? hits / consults : 0.0;
      const double stale_rate = consults > 0.0 ? stale / consults : 0.0;
      const double rebuilds =
          static_cast<double>(all.counter(obs::kForesightRebuilds));
      t.add_row({"foresight", fmt_ci(fs.mops.mean, fs.mops.ci95_half),
                 fmt(fs.mops.mean / base.mops.mean, 2) + "x",
                 fmt(fsd.avg_chunks_per_traversal, 2), fmt_pct(hit_rate),
                 fmt_pct(stale_rate), fmt(rebuilds, 0)});
      add_metric(report, "foresight_mops." + key, "mops", Better::kHigher,
                 true, fs.samples);
      add_metric(report, "foresight_speedup." + key, "x", Better::kHigher,
                 false, {fs.mops.mean / base.mops.mean});
      add_metric(report, "foresight_chunks_per_trav." + key, "chunks",
                 Better::kLower, true, {fsd.avg_chunks_per_traversal});
      add_metric(report, "foresight_hit_rate." + key, "fraction",
                 Better::kHigher, true, {hit_rate});
      add_metric(report, "foresight_stale_rate." + key, "fraction",
                 Better::kLower, false, {stale_rate});
      t.print(std::cout);
      std::printf("\n");
    }
  }
  std::printf(
      "acceptance: hinted point lookups average <= 2 chunks/traversal at 1M+ "
      "keys with a high hit rate; churny mixes degrade to fallbacks, never "
      "to wrong results.\n");
  return report;
}

}  // namespace

const std::vector<Campaign>& campaigns() {
  static const std::vector<Campaign> kCampaigns = {
      {"fig_5_1_chunk_size", "GFSL-16 vs GFSL-32 vs M&C, mix [10,10,80]",
       run_fig_5_1},
      {"fig_5_2_ratio", "GFSL / M&C throughput ratio per mix and key range",
       run_fig_5_2},
      {"fig_5_3_mixed_ops", "throughput vs key range per mixed-op mix",
       run_fig_5_3},
      {"fig_5_4_single_op",
       "contains-/insert-/delete-only throughput vs key range", run_fig_5_4},
      {"batch_throughput", "batched vs per-op dispatch A/B",
       run_batch_throughput},
      {"steady_state_churn", "epoch-reclamation memory soak (leak vs ebr)",
       run_steady_state_churn},
      // Observability layers; nothing gates (the flight recorder must stay
      // within noise of detached, checked by eye).
      overhead_campaign(
          {"micro_ops",
           "host ns/op with observability layers detached vs armed",
           "armed-but-idle flight recorder must stay within noise of "
           "detached",
           "",
           {{"detached", 0},
            {"metrics", kArmMetrics},
            {"flight_recorder", kArmFlightRecorder}},
           /*gate_ratios=*/false,
           /*time_scrub=*/false}),
      // The durability ladder: detached (persist_point() is one pointer
      // test), lease words only, file-backed region + persist barriers.
      overhead_campaign(
          {"persist_overhead",
           "host ns/op with the durable region detached / leased / armed",
           "gated on the armed/detached and leased/detached ratios, which "
           "cancel machine speed",
           "the fault-free detached path pays nothing (persist_point() is a "
           "single pointer test); the armed ratio is the price of durability "
           "and must not creep.",
           {{"detached", 0}, {"leased", kArmLeases}, {"armed", kArmPersist}},
           /*gate_ratios=*/true,
           /*time_scrub=*/false}),
      // Seals restamped at every lock release and verified on the checked-
      // read cold path (DESIGN.md §15), plus the scrub patrol's cost.
      overhead_campaign(
          {"integrity_overhead",
           "host ns/op with the integrity sidecar detached / crc32c / xorfold",
           "gated on the per-rep armed/detached ratios, which cancel machine "
           "speed",
           "the detached path pays nothing (every seal call starts with one "
           "null test); the armed ratios are the price of tamper-evident "
           "chunks and must not creep.",
           {{"detached", 0}, {"crc32c", kArmCrc32c}, {"xorfold", kArmXorFold}},
           /*gate_ratios=*/true,
           /*time_scrub=*/true}),
      {"scan_mixed",
       "mutator mix vs a full-range scanner, legacy scan / mvcc scan_at A/B",
       run_scan_mixed},
      {"foresight_pointops",
       "hinted bottom-chunk descent vs classic head descent A/B",
       run_foresight_pointops},
  };
  return kCampaigns;
}

const Campaign* find_campaign(const std::string& name) {
  for (const auto& c : campaigns()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

BenchReport run_campaign(const Campaign& c, const CampaignOptions& opts) {
  BenchReport report = c.run(opts);
  report.stamp_environment();
  if (!opts.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    const std::string path = opts.out_dir + "/BENCH_" + report.campaign +
                             ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    } else {
      write_bench_json(out, report);
      std::printf("# wrote %s\n", path.c_str());
    }
  }
  return report;
}

}  // namespace gfsl::harness
