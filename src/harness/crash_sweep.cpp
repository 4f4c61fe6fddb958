#include "harness/crash_sweep.h"

#include <set>
#include <vector>

#include "harness/history.h"
#include "harness/postmortem.h"
#include "harness/workload.h"
#include "obs/trace_export.h"

namespace gfsl::harness {

CrashSweepConfig crash_sweep_config(const Options& opt) {
  CrashSweepConfig cfg;
  cfg.workers = static_cast<int>(opt.get_u64("workers", 3));
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", 96);
  cfg.key_range = opt.get_u64("range", 48);
  cfg.victim = static_cast<int>(opt.get_u64("victim", 0));
  cfg.stride = opt.get_u64("crash-stride", 1);
  cfg.attach.epochs = opt.get_bool("with-epochs");
  cfg.attach.snapshots = opt.get_bool("with-snapshots");
  cfg.attach.foresight = opt.get_bool("with-foresight");
  cfg.prefill = opt.get_u64("prefill", cfg.key_range / 2);
  cfg.wl_seed = opt.get_u64("crash-seed", 0xC4A5);
  cfg.sched_seed = cfg.wl_seed ^ 0x9E3779B97F4A7C15ull;
  cfg.postmortem_dir = opt.get("postmortem-dir", "");
  return cfg;
}

std::string crash_sweep_flags(const CrashSweepConfig& cfg) {
  std::string s = "--crash-seed " + std::to_string(cfg.wl_seed) +
                  " --workers " + std::to_string(cfg.workers) +
                  " --team-size " + std::to_string(cfg.team_size) +
                  " --ops " + std::to_string(cfg.ops) + " --range " +
                  std::to_string(cfg.key_range) + " --victim " +
                  std::to_string(cfg.victim) + " --crash-stride " +
                  std::to_string(cfg.stride) + " --prefill " +
                  std::to_string(cfg.prefill) + attach_flags(cfg.attach);
  if (!cfg.postmortem_dir.empty()) {
    s += " --postmortem-dir " + cfg.postmortem_dir;
  }
  return s;
}

CrashRunResult run_crash_at(const CrashSweepConfig& cfg,
                            std::uint64_t kill_step,
                            std::uint64_t watchdog_step,
                            obs::MetricsRegistry* reg) {
  CrashRunResult res;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             cfg.sched_seed, cfg.workers);
  if (kill_step != UINT64_MAX) sched.kill_at(cfg.victim, kill_step);
  if (watchdog_step != UINT64_MAX) sched.kill_all_at(watchdog_step);
  Rig rig({.team_size = cfg.team_size, .pool_chunks = cfg.pool_chunks},
          cfg.attach, &sched);
  core::Gfsl& sl = rig.gfsl();

  // Snapshot-held-across-kill: freeze a bulk-loaded prefill under a snapshot
  // before any scheduled team runs.  Every op of the workload — including
  // the one the kill interrupts and recovery rolls forward or back — commits
  // at a revision above the snapshot, so the post-run scan must reproduce
  // the prefill exactly no matter where the victim died.
  std::vector<std::pair<Key, Value>> frozen;
  core::Snapshot held;
  if (cfg.attach.snapshots && cfg.prefill > 0) {
    const std::uint64_t span = cfg.key_range > 1 ? cfg.key_range : 2;
    for (std::uint64_t i = 0; i < cfg.prefill; ++i) {
      const Key k = static_cast<Key>(1 + (2 * i) % span);
      if (!frozen.empty() && frozen.back().first >= k) break;  // wrapped
      frozen.emplace_back(k, static_cast<Value>(k * 31 + 7));
    }
    sl.bulk_load(frozen);
    held = sl.snapshot();
  }

  // Update-heavy: splits, merges, down-pointer swings.
  const auto ops = generate_ops(
      make_workload(kMix_20_20_60, cfg.key_range, cfg.ops, cfg.wl_seed));

  HistoryLog log(cfg.ops / static_cast<std::uint64_t>(cfg.workers) + 8,
                 cfg.workers);
  HistoryOptions run;
  run.workers = cfg.workers;
  run.batched = cfg.batched;
  run.batch_shard_ops = cfg.batch_shard_ops;
  run.metrics = reg;
  std::vector<HistoryRecorder> recorders;
  for (int w = 0; w < cfg.workers; ++w) recorders.emplace_back(log, w);
  for (auto& r : recorders) run.observers.push_back(&r);
  // Flight recorder: clockless rings (no steady-clock read per record) for
  // every team plus the medic, armed only when a postmortem sink is set.
  obs::TraceSession rings(1024, /*timestamps=*/false);
  if (!cfg.postmortem_dir.empty()) {
    rings.ensure(cfg.workers + 1);
    run.trace = &rings;
  }
  auto fail = [&](const std::string& reason, const std::string& error) {
    res.ok = false;
    res.error = error;
    if (cfg.postmortem_dir.empty()) return res;
    // Every team is dead or returned: the structure walk is quiescent.
    (void)dump_postmortem(
        cfg.postmortem_dir,
        "postmortem_crash_k" + (kill_step == UINT64_MAX
                                    ? std::string("none")
                                    : std::to_string(kill_step)),
        {.reason = reason,
         .detail = error,
         .gfsl = &sl,
         .metrics = reg,
         .trace = &rings,
         .info = {{"harness", "crash_sweep"},
                  {"repro", crash_sweep_flags(cfg)},
                  {"wl_seed", std::to_string(cfg.wl_seed)},
                  {"sched_seed", std::to_string(cfg.sched_seed)},
                  {"kill_step", std::to_string(kill_step)},
                  {"watchdog_step", std::to_string(sched.watchdog_step())},
                  {"watchdog_fired", sched.watchdog_fired() ? "1" : "0"},
                  {"global_steps", std::to_string(sched.global_steps())},
                  {"batched", cfg.batched ? "1" : "0"},
                  {"leases", cfg.attach.leases ? "1" : "0"}}});
    return res;
  };

  const LaunchResult out = run_history(sl, &sched, ops, run);
  res.steps = sched.global_steps();
  res.victim_killed = out.killed[static_cast<std::size_t>(cfg.victim)];
  for (int w = 0; w < cfg.workers; ++w) {
    // Survivors only die via the watchdog: the run livelocked.
    if (w != cfg.victim && out.killed[static_cast<std::size_t>(w)]) {
      res.hang = true;
      return fail("watchdog_stall", "hang: survivors hit the watchdog (step " +
                                        std::to_string(res.steps) + ")");
    }
  }

  // Medic pass: a FRESH team id outside the scheduled participant set.
  // Reusing the victim's id would bump its lease epoch and hide any lock
  // the survivors should have been able to steal.
  simt::Team medic(cfg.team_size, cfg.workers, 7);
  if (reg != nullptr) medic.set_metrics(&reg->shard(cfg.workers));
  if (rings.teams() > 0) medic.set_trace(rings.team(cfg.workers));
  res.locks_recovered = sl.recover_all_expired(medic);

  const auto rep = sl.validate(/*strict=*/false);
  if (!rep.ok) {
    return fail("validate_failure", "structure invalid: " + rep.error);
  }
  if (rig.integrity() != nullptr) {
    const core::ScrubReport sr = sl.scrub_pass(medic);
    if (sr.mismatches != 0) {
      return fail("integrity_mismatch",
                  "post-medic scrub found " + std::to_string(sr.mismatches) +
                      " seal mismatches");
    }
  }
  std::vector<Key> final_keys;
  for (const auto& [k, v] : sl.collect()) final_keys.push_back(k);
  std::vector<Key> initial_keys;
  for (const auto& [k, v] : frozen) initial_keys.push_back(k);
  const auto check = check_history(log.merged(), initial_keys, final_keys);
  if (!check.ok) {
    return fail("history_violation", "history violation: " + check.error);
  }

  // The held snapshot survived the kill, the recovery rolls, and the medic:
  // its scan must still be exactly the frozen prefill.
  if (held.open()) {
    std::vector<std::pair<Key, Value>> got;
    const auto st = sl.scan_at(medic, held, MIN_USER_KEY, MAX_USER_KEY, got);
    if (st != core::ScanAtStatus::kOk) {
      return fail("snapshot_mismatch",
                  "held snapshot expired across the kill (scan_at status " +
                      std::to_string(static_cast<int>(st)) + ")");
    }
    if (got != frozen) {
      std::string detail = "held snapshot drifted: harvested " +
                           std::to_string(got.size()) + " pairs, froze " +
                           std::to_string(frozen.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (i >= frozen.size() || got[i] != frozen[i]) {
          detail += "; first divergence at key " + std::to_string(got[i].first);
          break;
        }
      }
      return fail("snapshot_mismatch", detail);
    }
    res.snapshot_checked = true;
    sl.release_snapshot(held);
  }

  // Hinted-read differential: a quiescent contains() over every key in
  // range — most consults land on a published hint — must agree exactly
  // with the structure walk collect() did.  Any divergence means a hint
  // steered a search past its key: the one failure mode the generation /
  // zombie validation exists to make impossible.
  if (rig.foresight() != nullptr) {
    const std::set<Key> live(final_keys.begin(), final_keys.end());
    for (std::uint64_t k = 1; k <= cfg.key_range; ++k) {
      const Key key = static_cast<Key>(k);
      if (sl.contains(medic, key) != (live.count(key) != 0)) {
        return fail("foresight_mismatch",
                    "foresight mismatch: contains(" + std::to_string(k) +
                        ") disagrees with collect()");
      }
    }
  }
  return res;
}

CrashSweepResult run_crash_sweep(const CrashSweepConfig& cfg,
                                 obs::MetricsRegistry* reg,
                                 std::FILE* progress) {
  CrashSweepResult out;
  // Baseline: same seeds, no kill.  Leases are attached here too, so the
  // pre-kill prefix of every swept run replays this exact interleaving.
  const auto base = run_crash_at(cfg, UINT64_MAX, UINT64_MAX, reg);
  if (!base.ok) {
    out.ok = false;
    out.error = "baseline run failed: " + base.error;
    return out;
  }
  out.baseline_steps = base.steps;
  const std::uint64_t watchdog =
      base.steps * cfg.watchdog_factor + cfg.watchdog_slack;
  const std::uint64_t stride = cfg.stride == 0 ? 1 : cfg.stride;
  const std::uint64_t report_every =
      (base.steps / stride) / 10 + 1;  // ~10 progress lines

  std::uint64_t since_report = 0;
  for (std::uint64_t s = 1; s <= base.steps; s += stride) {
    const auto r = run_crash_at(cfg, s, watchdog, reg);
    ++out.runs;
    if (r.victim_killed) ++out.kills_landed;
    if (r.snapshot_checked) ++out.snapshot_checks;
    out.medic_recoveries += static_cast<std::uint64_t>(r.locks_recovered);
    if (!r.ok) {
      out.ok = false;
      out.failed_at_step = s;
      out.error = r.error;
      return out;
    }
    if (progress != nullptr && ++since_report >= report_every) {
      since_report = 0;
      std::fprintf(progress,
                   "  crash-sweep %llu/%llu steps (%llu kills landed, "
                   "%llu medic recoveries)\n",
                   static_cast<unsigned long long>(s),
                   static_cast<unsigned long long>(base.steps),
                   static_cast<unsigned long long>(out.kills_landed),
                   static_cast<unsigned long long>(out.medic_recoveries));
      std::fflush(progress);
    }
  }
  return out;
}

}  // namespace gfsl::harness
