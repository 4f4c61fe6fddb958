// gfsl_fuzz — randomized concurrency fuzzing under deterministic schedules.
//
//   gfsl_fuzz [--rounds N] [--workers N] [--ops N] [--range N] [--team-size N]
//             [--seed S] [--with-foresight]
//       Each round draws a fresh workload seed and scheduler seed from --seed
//       and runs the scheduler-kill sweep's baseline with no lease table
//       (harness/fault_sweep.h): validate() plus per-key linearizability of
//       the recorded history.  --with-foresight attaches a hint table that
//       rebuilds after every dirty event (DESIGN.md §14) and adds a
//       full-range contains() differential against collect().  A failed
//       round R prints `--seed S --rounds R+1 ...`, which replays the rounds
//       up to and including it.
//
// Every mode exits non-zero on the first failure and accepts
//   --postmortem-dir DIR   arm clockless flight-recorder rings and drop a
//       gfsl-postmortem-v1 bundle (event tails, metrics, structure walk,
//       repro parameters) into DIR, which must exist, when a run fails;
//   --metrics-json PATH    (churn / sweep / batch modes) write the merged
//       gfsl-metrics-v1 snapshot to PATH (sweeps: alias --metrics-out).
//
// Fault sweeps (harness/fault_sweep.h): a baseline run counts the injection
// points, then every --crash-stride-th point runs and must survive.  A
// failure prints `<mode> --at K <every flag that shaped the run>`, which
// replays that one point; `--at K` works in every sweep mode.
//
//   gfsl_fuzz --crash-sweep [--crash-seed S] [--crash-stride N] [--at K]
//             [--workers N] [--team-size N] [--ops N] [--range N] [--pool N]
//             [--victim T] [--prefill N] [--with-epochs] [--with-snapshots]
//             [--with-foresight]
//       Kill the victim team at every yield step of the seeded reference
//       run; the survivors and a medic must recover.
//
//   gfsl_fuzz --proc-crash-sweep [--crash-seed S] [--crash-stride N] [--at K]
//             [--workers N] [--team-size N] [--ops N] [--range N] [--pool N]
//             [--with-epochs] [--with-snapshots] [--work-dir DIR]
//       SIGKILL a forked child at every persist point of a file-backed run;
//       the parent recovers the image and checks it against the child's op
//       journal.
//
//   gfsl_fuzz --corrupt-sweep [--corrupt-seeds N] [--seed S] [--at K]
//             [--crash-stride N] [--team-size N] [--ops N] [--range N]
//             [--pool N] [--work-dir DIR]
//       One injected fault per run across every durable section x fault
//       kind x seed (DESIGN.md §15); it must be repaired, quarantined inside
//       a reported blast radius, or refused with a typed rejection.
//
//   gfsl_fuzz --churn [--workers N] [--ops N] [--range N] [--team-size N]
//             [--pool N] [--seed S] [--persist PATH]
//       Bounded-memory soak (DESIGN.md §9): free-running teams push a 50/50
//       insert/erase mix through a small pool for >= 10x its capacity; epoch
//       reclamation must keep chunks_allocated() bounded and validate()
//       clean.  --persist backs the arena with a durable region at PATH, so
//       every transition crosses a persist barrier.
//
//   gfsl_fuzz --batch [--rounds N] [--workers N] [--ops N] [--range N]
//             [--team-size N] [--seed S]
//       Differential oracle (DESIGN.md §10): random mixed batches replayed
//       against a std::map oracle (tests/oracle.h), alternating single-team
//       run_batch and the multi-team stealing runner, with an EpochManager
//       on every second pair of rounds.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/random.h"
#include "harness/experiment.h"
#include "harness/fault_sweep.h"
#include "harness/options.h"
#include "harness/postmortem.h"
#include "harness/rig.h"
#include "harness/runner.h"
#include "harness/workload.h"
#include "obs/trace_export.h"
#include "oracle.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

void dump_metrics(const obs::MetricsRegistry& reg, const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path);
  reg.write_json(os);
  std::printf("metrics written to %s\n", path.c_str());
}

int run_sweep_mode(const Options& opt) {
  const FaultSweepConfig cfg = fault_sweep_config(opt);
  const char* mode = injector_mode(cfg.injector);
  obs::MetricsRegistry reg(cfg.workers + 1);
  reg.set_info("mode", mode);
  const auto res = run_fault_sweep(cfg, &reg, stdout);
  // --metrics-json is the cross-mode spelling; --metrics-out predates it.
  dump_metrics(reg, opt.get("metrics-json", opt.get("metrics-out", "")));
  if (!res.ok) {
    std::printf("FAIL %s at point %llu: %s\n  repro: %s\n", mode,
                static_cast<unsigned long long>(res.failed_at),
                res.error.c_str(), res.repro.c_str());
    return 1;
  }
  std::printf("%s clean: %s (%s)\n", mode,
              fault_tally_summary(cfg, res.points, res.tally).c_str(),
              fault_sweep_flags(cfg).c_str());
  return 0;
}

int run_churn_mode(const Options& opt) {
  const int workers = static_cast<int>(opt.get_u64("workers", 4));
  const int team_size = static_cast<int>(opt.get_u64("team-size", 8));
  const auto pool = static_cast<std::uint32_t>(opt.get_u64("pool", 4096));
  const auto range = opt.get_u64("range", 512);
  const auto total_ops =
      opt.get_u64("ops", 12ull * pool);  // default >= 10x pool capacity
  const auto seed = opt.get_u64("seed", 0xC0FF);
  const std::string metrics_json = opt.get("metrics-json", "");
  const std::string pm_dir = opt.get("postmortem-dir", "");
  const std::string persist_path = opt.get("persist", "");
  const bool want_obs = !metrics_json.empty() || !pm_dir.empty();

  // --persist: back the arena with a durable region so every transition in
  // the churn storm crosses a persist barrier — the persistence hot path
  // soaked under free-running (non-deterministic) contention.
  Attach attach{.epochs = true};
  if (!persist_path.empty()) attach.persist = Attach::Persist{persist_path};
  Rig rig({.team_size = team_size, .pool_chunks = pool}, attach);
  core::Gfsl& sl = rig.gfsl();
  device::PersistRegion* region = rig.region();

  obs::MetricsRegistry reg(workers);
  reg.set_info("mode", "churn");
  obs::TraceSession rings(1024, /*timestamps=*/false);
  const int oom = run_churn_storm(sl, workers, total_ops, range, seed,
                                  want_obs ? &reg : nullptr,
                                  pm_dir.empty() ? nullptr : &rings)
                      .oom_teams;
  if (want_obs) sample_structure_gauges(reg, sl);

  bool ok = true;
  bool validate_failed = false;
  std::string detail;
  auto fail = [&](const std::string& msg) {
    std::printf("FAIL churn: %s\n", msg.c_str());
    if (detail.empty()) detail = msg;
    ok = false;
  };
  if (oom != 0) {
    fail(std::to_string(oom) + " team(s) hit pool exhaustion");
  }
  const auto rep = sl.validate(/*strict=*/false);
  if (!rep.ok) {
    fail("structure invalid: " + rep.error);
    validate_failed = true;
  }
  // "Bounded" = the steady state fits comfortably inside the pool: in-use
  // (live + in-flight zombies + limbo) never approaches capacity even after
  // an unbounded stream of merges.
  if (sl.chunks_allocated() >= pool / 2) {
    fail(std::to_string(sl.chunks_allocated()) + " chunks in use of " +
         std::to_string(pool) + " — reclamation fell behind");
  }
  if (sl.chunks_reclaimed() == 0) {
    fail("zero chunks reclaimed");
  }
  dump_metrics(reg, metrics_json);
  if (!ok) {
    if (!pm_dir.empty()) {
      (void)dump_postmortem(
          pm_dir, "postmortem_churn",
          {.reason = validate_failed ? "validate_failure" : "churn_anomaly",
           .detail = detail,
           .gfsl = &sl,
           .metrics = &reg,
           .trace = &rings,
           .info = {{"harness", "churn"},
                    {"seed", std::to_string(seed)},
                    {"workers", std::to_string(workers)},
                    {"team_size", std::to_string(team_size)},
                    {"ops", std::to_string(total_ops)},
                    {"range", std::to_string(range)},
                    {"pool", std::to_string(pool)}}});
    }
    std::printf("  repro: --churn --seed %llu --workers %d --team-size %d "
                "--ops %llu --range %llu --pool %u\n",
                static_cast<unsigned long long>(seed), workers, team_size,
                static_cast<unsigned long long>(total_ops),
                static_cast<unsigned long long>(range), pool);
    return 1;
  }
  if (region) region->mark_clean();
  std::printf(
      "churn clean: %llu ops through a %u-chunk pool, %llu reclaimed, "
      "%u in use at exit, %llu in limbo (workers=%d team=%d range=%llu)\n",
      static_cast<unsigned long long>(total_ops), pool,
      static_cast<unsigned long long>(sl.chunks_reclaimed()),
      sl.chunks_allocated(),
      static_cast<unsigned long long>(rig.epochs()->limbo_total()), workers,
      team_size, static_cast<unsigned long long>(range));
  if (region) {
    std::printf("  persisted: %llu barriers crossed, clean shutdown marked "
                "at %s\n",
                static_cast<unsigned long long>(region->persist_points()),
                persist_path.c_str());
  }
  return 0;
}

int run_batch_mode(const Options& opt) {
  const auto rounds = opt.get_u64("rounds", 30);
  const int workers = static_cast<int>(opt.get_u64("workers", 4));
  const int team_size = static_cast<int>(opt.get_u64("team-size", 8));
  const auto nops = opt.get_u64("ops", 2048);
  const auto range = opt.get_u64("range", 256);  // small: duplicate-key heavy
  const auto master = opt.get_u64("seed", 0xBA7C);
  const std::string metrics_json = opt.get("metrics-json", "");
  const std::string pm_dir = opt.get("postmortem-dir", "");
  const bool want_obs = !metrics_json.empty() || !pm_dir.empty();

  // One registry across rounds: counters accumulate, histograms merge, so
  // the snapshot summarizes the whole campaign of batches.
  obs::MetricsRegistry reg(workers);
  reg.set_info("mode", "batch");

  Xoshiro256ss rng(master);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    const std::uint64_t wl_seed = rng.next();
    const bool multi_team = (round % 2) == 1;   // odd: stealing runner
    // Every second pair of rounds arms reclamation.
    const Attach attach{.epochs = (round % 4) >= 2};

    Rig rig({.team_size = team_size, .pool_chunks = 1u << 14}, attach);
    core::Gfsl& sl = rig.gfsl();

    const auto ops =
        generate_ops(make_workload(kMix_20_20_60, range, nops, wl_seed));

    gfsl::testing::MapOracle oracle;
    const auto want = oracle.apply_batch(ops);

    obs::TraceSession session(1024, /*timestamps=*/false);
    core::BatchResult br;
    if (multi_team) {
      RunConfig rc;
      rc.num_workers = workers;
      rc.seed = wl_seed;
      if (want_obs) rc.metrics = &reg;
      if (!pm_dir.empty()) rc.trace = &session;
      BatchRunOptions bo;
      bo.batch_size = nops / 4;
      (void)run_gfsl_batched(sl, ops, rc, rig.mem(), bo, &br);
    } else {
      simt::Team team(team_size, 0, 3);
      if (want_obs) team.set_metrics(&reg.shard(0));
      if (!pm_dir.empty()) {
        session.ensure(1);
        team.set_trace(session.team(0));
      }
      br = core::run_batch(sl, team, ops);
    }

    std::string err;
    for (std::size_t i = 0; i < want.size() && err.empty(); ++i) {
      if (br.outcomes[i] != want[i]) {
        err = "op " + std::to_string(i) + " (key " +
              std::to_string(ops[i].key) + ") returned " +
              std::to_string(br.outcomes[i]) + ", oracle says " +
              std::to_string(want[i]);
      }
    }
    bool validate_failed = false;
    if (err.empty() && sl.collect() != oracle.collect()) {
      err = "final structure diverges from the oracle";
    }
    if (err.empty()) {
      const auto rep = sl.validate(/*strict=*/false);
      if (!rep.ok) {
        err = "structure invalid: " + rep.error;
        validate_failed = true;
      }
    }
    if (err.empty() && want_obs) sample_structure_gauges(reg, sl);
    if (!err.empty()) {
      if (!pm_dir.empty()) {
        PostmortemContext ctx;
        ctx.reason = validate_failed ? "validate_failure" : "oracle_mismatch";
        ctx.detail = err;
        ctx.gfsl = &sl;
        ctx.metrics = want_obs ? &reg : nullptr;
        ctx.trace = &session;
        ctx.info = {{"harness", "batch"},
                    {"seed", std::to_string(master)},
                    {"round", std::to_string(round)},
                    {"wl_seed", std::to_string(wl_seed)},
                    {"multi_team", multi_team ? "1" : "0"},
                    {"epochs", attach.epochs ? "1" : "0"},
                    {"workers", std::to_string(workers)},
                    {"team_size", std::to_string(team_size)},
                    {"ops", std::to_string(nops)},
                    {"range", std::to_string(range)}};
        (void)dump_postmortem(pm_dir,
                              "postmortem_batch_r" + std::to_string(round),
                              ctx);
      }
      dump_metrics(reg, metrics_json);
      std::printf(
          "FAIL batch round %llu (%s-team%s): %s\n"
          "  repro: --batch --seed %llu --rounds %llu --workers %d "
          "--team-size %d --ops %llu --range %llu\n",
          static_cast<unsigned long long>(round),
          multi_team ? "multi" : "single", attach.epochs ? ", epochs" : "",
          err.c_str(), static_cast<unsigned long long>(master),
          static_cast<unsigned long long>(round + 1), workers, team_size,
          static_cast<unsigned long long>(nops),
          static_cast<unsigned long long>(range));
      return 1;
    }
    if ((round + 1) % 10 == 0) {
      std::printf("%llu/%llu batch rounds clean\n",
                  static_cast<unsigned long long>(round + 1),
                  static_cast<unsigned long long>(rounds));
    }
  }
  dump_metrics(reg, metrics_json);
  std::printf(
      "all %llu batch rounds clean (workers=%d team=%d ops=%llu range=%llu)\n",
      static_cast<unsigned long long>(rounds), workers, team_size,
      static_cast<unsigned long long>(nops),
      static_cast<unsigned long long>(range));
  return 0;
}

// Default mode: each round is a scheduler-kill baseline with no lease table
// (harness/fault_sweep.h) on a fresh workload and schedule seed.
int run_round_mode(const Options& opt) {
  const auto rounds = opt.get_u64("rounds", 40);
  FaultSweepConfig cfg;
  cfg.workers = static_cast<int>(opt.get_u64("workers", 3));
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", 600);
  cfg.key_range = opt.get_u64("range", 60);
  cfg.attach.leases = false;
  cfg.attach.foresight = opt.get_bool("with-foresight");
  cfg.postmortem_dir = opt.get("postmortem-dir", "");
  const auto master = opt.get_u64("seed", 0xF022);

  Xoshiro256ss rng(master);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    cfg.wl_seed = rng.next();
    cfg.sched_seed = rng.next();
    const FaultPoint r = run_fault_point(cfg, 0, 0);
    if (!r.error.empty()) {
      std::printf(
          "FAIL round %llu: %s\n"
          "  repro: --seed %llu --rounds %llu --workers %d --team-size %d "
          "--ops %llu --range %llu%s\n",
          static_cast<unsigned long long>(round), r.error.c_str(),
          static_cast<unsigned long long>(master),
          static_cast<unsigned long long>(round + 1), cfg.workers,
          cfg.team_size, static_cast<unsigned long long>(cfg.ops),
          static_cast<unsigned long long>(cfg.key_range),
          attach_flags(cfg.attach).c_str());
      return 1;
    }
    if ((round + 1) % 10 == 0) {
      std::printf("%llu/%llu rounds clean\n",
                  static_cast<unsigned long long>(round + 1),
                  static_cast<unsigned long long>(rounds));
    }
  }
  std::printf("all %llu rounds clean (workers=%d team=%d ops=%llu range=%llu)\n",
              static_cast<unsigned long long>(rounds), cfg.workers,
              cfg.team_size, static_cast<unsigned long long>(cfg.ops),
              static_cast<unsigned long long>(cfg.key_range));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  if (opt.get_bool("crash-sweep") || opt.get_bool("proc-crash-sweep") ||
      opt.get_bool("corrupt-sweep")) {
    return run_sweep_mode(opt);
  }
  if (opt.get_bool("churn")) {
    return run_churn_mode(opt);
  }
  if (opt.get_bool("batch")) {
    return run_batch_mode(opt);
  }
  return run_round_mode(opt);
}
