#include "harness/fault_sweep.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "device/fault_plane.h"
#include "harness/history.h"
#include "harness/postmortem.h"
#include "harness/workload.h"
#include "obs/trace_export.h"

namespace gfsl::harness {

namespace {

using core::Gfsl;
using device::FaultKind;
using device::FaultPlane;
using device::FaultSection;

// A scheduler-kill survivor still running at baseline_steps * factor + slack
// is livelocked: the watchdog kills it and the point reports a hang.
constexpr std::uint64_t kWatchdogFactor = 8;
constexpr std::uint64_t kWatchdogSlack = 4096;
// A livelocked process-kill child is ended by its own alarm().
constexpr unsigned kChildAlarmSeconds = 120;

struct Mode {
  const char* name;       // the mode flag, without dashes
  const char* seed_flag;  // the flag that sets wl_seed
  std::uint64_t seed;
  int workers;
  std::uint64_t ops;
  std::uint64_t key_range;
  std::uint32_t pool_chunks;
};

constexpr Mode kModes[] = {  // indexed by Injector
    {"crash-sweep", "crash-seed", 0xC4A5, 3, 96, 48, 1u << 14},
    {"proc-crash-sweep", "crash-seed", 0xAB5E, 2, 160, 64, 1u << 14},
    {"corrupt-sweep", "seed", 0x5EED5EED, 1, 400, 96, 1u << 12},
};

const Mode& mode(Injector injector) {
  return kModes[static_cast<int>(injector)];
}

core::GfslConfig gfsl_config(const FaultSweepConfig& cfg) {
  return {.team_size = cfg.team_size, .pool_chunks = cfg.pool_chunks};
}

// Update-heavy: splits, merges, down-pointer swings, deep version chains.
std::vector<Op> sweep_ops(const FaultSweepConfig& cfg, std::uint64_t seed) {
  return generate_ops(
      make_workload(kMix_20_20_60, cfg.key_range, cfg.ops, seed));
}

/// The flags that replay point k alone.
std::string repro_at(FaultSweepConfig cfg, std::uint64_t k) {
  cfg.at = k;
  return fault_sweep_flags(cfg);
}

/// One run in progress: point k of a sweep whose baseline counted `points`.
struct Point {
  const FaultSweepConfig& cfg;
  std::uint64_t k;
  std::uint64_t points;
  obs::MetricsRegistry* reg;
  FaultPoint out;

  /// Record the point's first failure and, with a postmortem sink, dump the
  /// structure now, while it still exists.  Always false.
  bool fail(const std::string& reason, const std::string& detail,
            const Gfsl* sl, const obs::TraceSession* trace = nullptr,
            std::vector<std::pair<std::string, std::string>> info = {}) {
    if (!out.error.empty()) return false;
    out.error = detail;
    if (cfg.postmortem_dir.empty()) return false;
    info.insert(info.begin(), {{"harness", injector_mode(cfg.injector)},
                               {"repro", repro_at(cfg, k)},
                               {"point", std::to_string(k)},
                               {"points", std::to_string(points)}});
    (void)dump_postmortem(cfg.postmortem_dir,
                          std::string("postmortem_") +
                              injector_mode(cfg.injector) + "_k" +
                              std::to_string(k),
                          {.reason = reason,
                           .detail = detail,
                           .gfsl = sl,
                           .metrics = reg,
                           .trace = trace,
                           .info = std::move(info)});
    return false;
  }
};

// --- Scheduler kill ----------------------------------------------------------

void run_kill_point(Point& p) {
  const FaultSweepConfig& cfg = p.cfg;
  sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                             cfg.sched_seed, cfg.workers);
  if (p.k != 0) {
    sched.kill_at(cfg.victim, p.k);
    sched.kill_all_at(p.points * kWatchdogFactor + kWatchdogSlack);
  }
  Rig rig(gfsl_config(cfg), cfg.attach, &sched);
  Gfsl& sl = rig.gfsl();

  // Snapshot-held-across-kill: freeze a bulk-loaded prefill under a snapshot
  // before any scheduled team runs.  Every op of the workload, the one the
  // kill interrupts included, commits at a revision above the snapshot, so
  // the post-run scan must reproduce the prefill exactly.
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

  HistoryLog log(cfg.ops / static_cast<std::uint64_t>(cfg.workers) + 8,
                 cfg.workers);
  HistoryOptions run;
  run.workers = cfg.workers;
  run.batched = cfg.batched;
  run.batch_shard_ops = cfg.batch_shard_ops;
  run.metrics = p.reg;
  std::vector<HistoryRecorder> recorders;
  for (int w = 0; w < cfg.workers; ++w) recorders.emplace_back(log, w);
  for (auto& r : recorders) run.observers.push_back(&r);
  // Flight recorder: clockless rings for every team plus the medic, armed
  // only when a postmortem sink is set.
  obs::TraceSession rings(1024, /*timestamps=*/false);
  if (!cfg.postmortem_dir.empty()) {
    rings.ensure(cfg.workers + 1);
    run.trace = &rings;
  }
  auto fail = [&](const std::string& reason, const std::string& detail) {
    // Every team is dead or returned: the structure walk is quiescent.
    p.fail(reason, detail, &sl, &rings,
           {{"sched_seed", std::to_string(cfg.sched_seed)},
            {"watchdog_step", std::to_string(sched.watchdog_step())},
            {"watchdog_fired", sched.watchdog_fired() ? "1" : "0"},
            {"global_steps", std::to_string(sched.global_steps())},
            {"batched", cfg.batched ? "1" : "0"},
            {"leases", cfg.attach.leases ? "1" : "0"}});
  };

  const LaunchResult launched =
      run_history(sl, &sched, sweep_ops(cfg, cfg.wl_seed), run);
  p.out.crossed = sched.global_steps();
  // The baseline counts no run: the tally is the swept points'.
  FaultTally baseline;
  FaultTally& t = p.k != 0 ? p.out.tally : baseline;
  ++t.runs;
  if (launched.killed[static_cast<std::size_t>(cfg.victim)]) ++t.kills_landed;
  for (int w = 0; w < cfg.workers; ++w) {
    // Survivors only die via the watchdog: the run livelocked.
    if (w != cfg.victim && launched.killed[static_cast<std::size_t>(w)]) {
      return fail("watchdog_stall", "hang: survivors hit the watchdog (step " +
                                        std::to_string(p.out.crossed) + ")");
    }
  }

  // Medic pass: a FRESH team id outside the scheduled participant set.
  // Reusing the victim's id would bump its lease epoch and hide any lock
  // the survivors should have been able to steal.
  simt::Team medic(cfg.team_size, cfg.workers, 7);
  if (p.reg != nullptr) medic.set_metrics(&p.reg->shard(cfg.workers));
  if (rings.teams() > 0) medic.set_trace(rings.team(cfg.workers));
  t.locks_released +=
      static_cast<std::uint64_t>(sl.recover_all_expired(medic));

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

  // The held snapshot survived the kill, the recovery rolls and the medic:
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
    ++t.snapshot_checks;
    sl.release_snapshot(held);
  }

  // Hinted-read differential: a quiescent contains() over every key in range
  // (most consults land on a published hint) must agree exactly with the
  // structure walk collect() did.  A divergence means a hint steered a search
  // past its key.
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
}

// --- Process kill ------------------------------------------------------------

// One journal record; a single write() under O_APPEND, so a SIGKILL can
// truncate the file only at a record boundary (a torn trailing record is
// discarded by the reader).  The record's file index is its logical tick.
struct JournalRec {
  std::uint8_t tag;  // 'B' = op begin, 'E' = op end
  std::uint8_t worker;
  std::uint8_t kind;    // OpKind
  std::uint8_t result;  // 'E' only
  std::uint32_t opid;   // index into the generated op array
  Key key;
  std::uint32_t reserved;  // zero; keeps the record 16 bytes
};
static_assert(sizeof(JournalRec) == 16);

std::string region_path(const FaultSweepConfig& cfg) {
  return cfg.work_dir + "/proc_crash_region.gfsl";
}
std::string journal_path(const FaultSweepConfig& cfg) {
  return cfg.work_dir + "/proc_crash_journal.bin";
}

// Journals each op of one child team: 'B' before it starts, 'E' after it
// returns.  Best-effort: a record the kill raced past is simply absent, which
// the checker reads as "never invoked" or "crashed", both sound.
class Journal final : public core::BatchOpObserver {
 public:
  Journal(int fd, int worker)
      : fd_(fd), w_(static_cast<std::uint8_t>(worker)) {}
  void on_begin(std::uint32_t idx, const Op& op) override {
    write({'B', w_, static_cast<std::uint8_t>(op.kind), 0, idx, op.key, 0});
  }
  void on_end(std::uint32_t idx, const Op& op, bool result) override {
    write({'E', w_, static_cast<std::uint8_t>(op.kind),
           static_cast<std::uint8_t>(result), idx, op.key, 0});
  }

 private:
  void write(const JournalRec& r) { (void)!::write(fd_, &r, sizeof r); }
  int fd_;
  std::uint8_t w_;
};

/// Child body: fresh region, deterministic threaded workload, journal every
/// op, die at the armed barrier (`kill_at` > 0) or exit(0) through
/// mark_clean().  Never returns.
[[noreturn]] void child_run(const FaultSweepConfig& cfg,
                            std::uint64_t kill_at) {
  ::alarm(kChildAlarmSeconds);  // livelock guard: SIGALRM terminates us
  try {
    // Opened (and armed) before the structure exists, so the kill count
    // includes the persist points of construction itself.
    device::PersistRegion region(
        region_path(cfg), device::PersistRegion::Mode::kCreate,
        {static_cast<std::uint32_t>(cfg.team_size), cfg.pool_chunks});
    if (kill_at != 0) region.arm_kill_at(kill_at);
    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                               cfg.sched_seed, cfg.workers);
    Rig rig(gfsl_config(cfg), cfg.attach, &sched, &region);
    const int jfd = ::open(journal_path(cfg).c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (jfd < 0) ::_exit(3);
    std::vector<Journal> journals;
    for (int w = 0; w < cfg.workers; ++w) journals.emplace_back(jfd, w);
    HistoryOptions run;
    run.workers = cfg.workers;
    for (auto& j : journals) run.observers.push_back(&j);
    (void)run_history(rig.gfsl(), &sched, sweep_ops(cfg, cfg.wl_seed), run);
    ::close(jfd);
    region.mark_clean();
    ::_exit(0);
  } catch (...) {
    ::_exit(3);
  }
}

/// Fork the child and wait for it.  Returns "" when it ended as expected
/// (SIGKILL when `kill_at` is armed, a clean exit otherwise), else why not.
std::string run_child(const FaultSweepConfig& cfg, std::uint64_t kill_at) {
  const pid_t pid = ::fork();
  if (pid < 0) return "fork failed: " + std::string(std::strerror(errno));
  if (pid == 0) child_run(cfg, kill_at);  // never returns
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    return "waitpid failed: " + std::string(std::strerror(errno));
  }
  if (WIFEXITED(status)) {
    if (WEXITSTATUS(status) != 0) {
      return "child exited with code " + std::to_string(WEXITSTATUS(status));
    }
    // A clean exit means the armed point was never reached; the
    // deterministic schedule makes that a sweep bug, not a tolerance.
    return kill_at == 0 ? ""
                        : "armed child exited cleanly before its kill point";
  }
  if (WIFSIGNALED(status)) {
    if (WTERMSIG(status) == SIGKILL && kill_at != 0) return "";
    if (WTERMSIG(status) == SIGALRM) return "child hit its alarm (livelock)";
    return "child died on signal " + std::to_string(WTERMSIG(status));
  }
  return "child neither exited nor was signaled";
}

std::vector<JournalRec> read_journal(const std::string& path) {
  std::vector<JournalRec> out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return out;
  JournalRec r;
  while (::read(fd, &r, sizeof r) == static_cast<ssize_t>(sizeof r)) {
    out.push_back(r);
  }
  ::close(fd);
  return out;
}

/// Parent side of one child image: attach, recover, check the journal
/// history against the recovered contents.
void verify_image(Point& p) {
  const FaultSweepConfig& cfg = p.cfg;
  Attach attach = cfg.attach;
  attach.persist = Attach::Persist{region_path(cfg), /*adopt=*/true};
  Rig rig(gfsl_config(cfg), attach);
  Gfsl& sl = rig.gfsl();
  const device::PersistRegion& region = *rig.region();
  p.out.crossed = region.recorded_persist_points();
  const core::RecoveryReport recovery = sl.recover();
  auto fail = [&](const std::string& msg,
                  const std::string& reason = "recovery_failure") {
    p.fail(reason, msg, &sl);
  };
  if (!recovery.ok) return fail("recover() failed: " + recovery.error);
  p.out.tally.locks_released +=
      static_cast<std::uint64_t>(recovery.locks_released);
  p.out.tally.intents_replayed +=
      static_cast<std::uint64_t>(recovery.intents_repaired);
  p.out.tally.chunks_freed += recovery.chunks_freed;

  // Journal -> per-key linearizable history.  Record index = logical tick;
  // a 'B' without an 'E' is the crashed (optional-effect) op.
  const auto recs = read_journal(journal_path(cfg));
  const auto ops = sweep_ops(cfg, cfg.wl_seed);
  std::vector<HistoryEvent> events;
  std::map<std::uint32_t, std::uint64_t> open;  // opid -> begin tick
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const JournalRec& r = recs[i];
    if (r.opid >= ops.size() ||
        static_cast<OpKind>(r.kind) != ops[r.opid].kind ||
        r.key != ops[r.opid].key) {
      return fail("journal record " + std::to_string(i) +
                  " does not match the generated workload");
    }
    if (r.tag == 'B') {
      open[r.opid] = i;
      continue;
    }
    const auto it = open.find(r.opid);
    if (it == open.end()) {
      return fail("journal end-record " + std::to_string(i) +
                  " without a begin");
    }
    events.push_back(HistoryEvent{it->second, i, static_cast<OpKind>(r.kind),
                                  r.key, r.result != 0, r.worker});
    open.erase(it);
  }
  for (const auto& [opid, tick] : open) {
    events.push_back(HistoryEvent{
        tick, UINT64_MAX, ops[opid].kind, ops[opid].key, false,
        static_cast<int>(opid % static_cast<std::uint32_t>(cfg.workers)),
        /*crashed=*/true});
  }

  const auto contents = sl.collect();
  std::vector<Key> final_keys;
  for (const auto& [k, v] : contents) final_keys.push_back(k);
  const auto check = check_history(events, {}, final_keys);
  if (!check.ok) {
    return fail("history violation after recovery: " + check.error);
  }

  // Single-worker runs are sequential programs: tighten to an exact replay.
  // Every completed op's result must match a std::map model, and the
  // recovered contents must equal the model with the one crashed op either
  // applied or not.
  if (cfg.workers == 1) {
    SetModel model;
    for (const JournalRec& r : recs) {
      if (r.tag != 'E') continue;
      const Op& op = ops[r.opid];
      const bool expect = model.apply(op);
      if (expect != (r.result != 0)) {
        return fail("oracle mismatch at op " + std::to_string(r.opid) +
                    " (key " + std::to_string(op.key) + "): journal says " +
                    std::to_string(r.result) + ", model says " +
                    std::to_string(expect));
      }
    }
    const std::uint32_t crashed_opid =
        open.empty() ? UINT32_MAX : open.begin()->first;
    bool matches = contents == model.collect();
    if (!matches && crashed_opid != UINT32_MAX) {
      (void)model.apply(ops[crashed_opid]);
      matches = contents == model.collect();
    }
    if (!matches) {
      return fail("recovered contents match neither replay model (crashed op " +
                  (crashed_opid == UINT32_MAX ? std::string("none")
                                              : std::to_string(crashed_opid)) +
                  ")");
    }
  }

  // Post-recovery MVCC coherence: the child's version chains died with it,
  // so a fresh snapshot must see the recovered contents verbatim (every
  // surviving key resolves as a legacy, pre-history key), and its revision
  // must sit at or above the durable clock the child pushed; a regressed
  // clock would let post-restart commits reuse pre-crash revisions.
  if (rig.snapshots() != nullptr) {
    const std::uint64_t durable =
        static_cast<std::atomic<std::uint64_t>*>(region.durable_rev())
            ->load(std::memory_order_acquire);
    core::Snapshot fresh = sl.snapshot();
    if (!fresh.open()) {
      return fail("post-recovery snapshot acquisition failed",
                  "snapshot_mismatch");
    }
    if (fresh.rev < durable) {
      return fail("post-recovery snapshot rev " + std::to_string(fresh.rev) +
                      " below the durable revision " + std::to_string(durable),
                  "snapshot_mismatch");
    }
    simt::Team team(cfg.team_size, 0, 7);
    std::vector<std::pair<Key, Value>> got;
    const auto st = sl.scan_at(team, fresh, MIN_USER_KEY, MAX_USER_KEY, got);
    if (st != core::ScanAtStatus::kOk) {
      return fail("post-recovery scan_at failed with status " +
                      std::to_string(static_cast<int>(st)),
                  "snapshot_mismatch");
    }
    if (got != contents) {
      return fail("post-recovery snapshot scan (" +
                      std::to_string(got.size()) +
                      " pairs) disagrees with recovered contents (" +
                      std::to_string(contents.size()) + ")",
                  "snapshot_mismatch");
    }
    sl.release_snapshot(fresh);
  }
}

void run_proc_point(Point& p) {
  ++p.out.tally.runs;
  const std::string err = run_child(p.cfg, p.k);
  if (!err.empty()) {
    p.fail("child_failure", err, nullptr);
    return;
  }
  if (p.k != 0) ++p.out.tally.kills_landed;
  verify_image(p);
  if (!p.out.error.empty()) return;  // files left behind for inspection
  ::unlink(region_path(p.cfg).c_str());
  ::unlink(journal_path(p.cfg).c_str());
}

// --- FaultPlane cell ---------------------------------------------------------

struct Cell {
  FaultSection section;
  FaultKind kind;
  std::uint64_t seed;

  /// Point k >= 1 of the section x kind x seed matrix, seeds innermost.
  static Cell at(std::uint64_t k, std::uint64_t seeds) {
    const std::uint64_t i = k - 1;
    return {static_cast<FaultSection>(i / seeds / device::kFaultKindCount),
            static_cast<FaultKind>(i / seeds % device::kFaultKindCount),
            i % seeds};
  }
  std::string name() const {
    return std::string(device::fault_section_name(section)) + ":" +
           device::fault_kind_name(kind) + ":" + std::to_string(seed);
  }
  std::string region_path(const FaultSweepConfig& cfg) const {
    return cfg.work_dir + "/corrupt_" + device::fault_section_name(section) +
           "_" + device::fault_kind_name(kind) + "_" + std::to_string(seed) +
           ".region";
  }
};

bool fail_cell(Point& p, const Cell& c, const std::string& what,
               const Gfsl* sl) {
  return p.fail("corruption_unresolved", c.name() + ": " + what, sl, nullptr,
                {{"cell", c.name()}});
}

/// Drive the seeded reference workload through `sl` with a single team,
/// checking every outcome against the model as it goes.  Single-team runs
/// are sequential, so any divergence here is a harness bug, not corruption.
bool drive(Gfsl& sl, SetModel& model, const FaultSweepConfig& cfg,
           std::uint64_t seed, std::string* err) {
  struct Check final : core::BatchOpObserver {
    SetModel& model;
    std::string& err;
    Check(SetModel& m, std::string& e) : model(m), err(e) {}
    void on_begin(std::uint32_t /*idx*/, const Op& /*op*/) override {}
    void on_end(std::uint32_t /*idx*/, const Op& op, bool got) override {
      if (got != model.apply(op) && err.empty()) {
        err = "pre-injection workload diverged from the model at key " +
              std::to_string(op.key);
      }
    }
  } check(model, *err);
  HistoryOptions run;
  run.observers = {&check};
  (void)run_history(sl, nullptr, sweep_ops(cfg, seed), run);
  return err->empty();
}

bool key_in_ranges(Key k, const std::vector<core::LostRange>& lost) {
  for (const auto& lr : lost) {
    if (k > lr.lo_exclusive && k <= lr.hi_inclusive) return true;
  }
  return false;
}

/// Exact-or-reported contents check: every surviving key must carry the
/// model's value (anything else is a silent wrong answer) and every missing
/// key must fall inside a reported blast radius.
bool check_contents(Gfsl& sl, const SetModel& model,
                    const std::vector<core::LostRange>& lost,
                    std::uint64_t* keys_lost, std::string* err) {
  const auto actual = sl.collect();
  const std::map<Key, Value> am(actual.begin(), actual.end());
  for (const auto& [k, v] : am) {
    const auto it = model.m.find(k);
    if (it == model.m.end()) {
      *err = "silent corruption: key " + std::to_string(k) +
             " present but never inserted";
      return false;
    }
    if (it->second != v) {
      *err = "silent corruption: key " + std::to_string(k) +
             " carries value " + std::to_string(v) + ", model says " +
             std::to_string(it->second);
      return false;
    }
  }
  for (const auto& [k, v] : model.m) {
    if (am.count(k) != 0) continue;
    if (!key_in_ranges(k, lost)) {
      *err = "silent loss: key " + std::to_string(k) +
             " vanished outside every reported blast radius";
      return false;
    }
    ++*keys_lost;
  }
  return true;
}

// Chunk data: in-memory inject -> scrub -> verify.
bool run_chunk_cell(Point& p, const Cell& c) {
  const FaultSweepConfig& cfg = p.cfg;
  FaultTally& t = p.out.tally;
  // Epochs + snapshots attached: bottom-chunk repair restores from the
  // version-record chains, so every key this workload wrote is recoverable.
  Rig rig(gfsl_config(cfg), Attach{.epochs = true,
                                   .snapshots = true,
                                   .integrity = Attach::Integrity::kCrc32c});
  Gfsl& sl = rig.gfsl();
  const core::IntegritySidecar& integrity = *rig.integrity();
  SetModel model;
  std::string err;
  if (!drive(sl, model, cfg, derive_seed(cfg.wl_seed, c.seed), &err)) {
    return fail_cell(p, c, err, &sl);
  }

  // Victim: a sealed, unlocked, live chunk, picked by the seed across every
  // level (upper chunks exercise index repair, bottom chunks exercise the
  // CRC-certified restore).
  const core::ChunkArena& arena = sl.arena();
  std::vector<ChunkRef> sealed;
  for (std::uint32_t r = 0; r < arena.high_water(); ++r) {
    const auto ref = static_cast<ChunkRef>(r);
    const std::uint32_t gen = arena.generation(ref);
    if ((gen & 1u) != 0 || !integrity.sealed(ref, gen)) continue;
    const KV lk = arena.entries(ref)[arena.lock_slot()].load(
        std::memory_order_relaxed);
    if (core::lock_entry_state(lk) != core::kUnlocked) continue;
    sealed.push_back(ref);
  }
  if (sealed.empty()) return fail_cell(p, c, "no sealed chunk to corrupt", &sl);
  Xoshiro256ss rng(derive_seed(cfg.wl_seed ^ 0xC022u, c.seed));
  const ChunkRef victim = sealed[rng.below(sealed.size())];
  const int slot =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(arena.dsize())));
  auto* word = const_cast<std::atomic<KV>*>(arena.entries(victim)) + slot;

  FaultPlane plane;
  const auto frep = plane.inject_at(c.kind, word, c.seed + 1);
  ++t.runs;
  const bool changed = frep.injected && frep.before != frep.after;
  if (changed) ++t.injected;

  simt::Team medic(cfg.team_size, 1, 3);
  auto srep = sl.scrub_pass(medic);
  if (c.kind == FaultKind::kStuckWord && changed) {
    // The failed cell re-asserts its corrupt value over whatever the first
    // pass repaired; the second pass must escalate to quarantine instead of
    // burning passes re-repairing unrepairable memory.
    plane.reassert();
    const auto srep2 = sl.scrub_pass(medic);
    if (srep2.mismatches != 0 && srep2.quarantined == 0) {
      plane.clear_stuck();
      return fail_cell(
          p, c, "stuck-at word was re-repaired instead of escalating", &sl);
    }
    srep.mismatches += srep2.mismatches;
    srep.repaired += srep2.repaired;
    srep.quarantined += srep2.quarantined;
    srep.lost.insert(srep.lost.end(), srep2.lost.begin(), srep2.lost.end());
  }
  plane.clear_stuck();

  t.detected += srep.mismatches;
  t.repaired += srep.repaired;
  t.quarantined += srep.quarantined;
  if (changed && srep.mismatches == 0) {
    return fail_cell(p, c, "damaged seal went undetected by the scrub pass",
                     &sl);
  }
  if (changed && srep.repaired + srep.quarantined == 0) {
    return fail_cell(
        p, c, "confirmed mismatch was neither repaired nor quarantined", &sl);
  }

  const auto vrep = sl.validate(/*strict=*/false);
  if (!vrep.ok) {
    return fail_cell(p, c, "post-scrub validate failed: " + vrep.error, &sl);
  }
  if (!check_contents(sl, model, srep.lost, &t.keys_lost, &err)) {
    return fail_cell(p, c, err, &sl);
  }
  // Post-resolution point reads across the whole key space: the repaired
  // structure must answer exactly like the model, modulo the reported radii.
  for (std::uint64_t k = 1; k <= cfg.key_range; ++k) {
    const Key key = static_cast<Key>(k);
    const bool got = sl.contains(medic, key);
    const bool want = model.m.count(key) != 0;
    if (got == want) continue;
    if (got) {
      return fail_cell(p, c, "contains(" + std::to_string(k) +
                                 ") invented a key", &sl);
    }
    if (!key_in_ranges(key, srep.lost)) {
      return fail_cell(p, c, "contains(" + std::to_string(k) +
                                 ") lost a key outside every blast radius",
                       &sl);
    }
  }
  return true;
}

// Durable sections: region-file inject -> recover -> verify.
bool run_region_cell(Point& p, const Cell& c) {
  const FaultSweepConfig& cfg = p.cfg;
  FaultTally& t = p.out.tally;
  const std::string path = c.region_path(cfg);
  std::remove(path.c_str());
  SetModel model;
  {  // Phase 1: write a clean reference image.
    Rig rig(gfsl_config(cfg), Attach{.persist = Attach::Persist{path}});
    Gfsl& sl = rig.gfsl();
    std::string err;
    if (!drive(sl, model, cfg, derive_seed(cfg.wl_seed, c.seed ^ 0xD15Cu),
               &err)) {
      std::remove(path.c_str());
      return fail_cell(p, c, err, &sl);
    }
    rig.region()->mark_clean();
  }
  const auto expected = model.collect();

  {  // Phase 2: damage the live window, then recover on the same mapping.
    FaultPlane plane;  // outlives every use; stuck addresses stay valid
    device::PersistRegion region(path, device::PersistRegion::Mode::kAttach);
    region.attach_fault_plane(&plane);
    region.arm_fault_sections(plane);
    const auto frep = plane.inject({c.section, c.kind, c.seed + 1});
    ++t.runs;
    if (frep.injected && frep.before != frep.after) ++t.injected;

    // The damaged image is handed over already open: the structure must
    // first see it in recover().
    Rig rig(gfsl_config(cfg), Attach{}, nullptr, &region);
    Gfsl& sl = rig.gfsl();
    // Accept either outcome of one recovery attempt: a typed refusal (only
    // the superblock section may refuse; every other section must always
    // converge) or a clean recovery whose contents match the closed image
    // exactly.  False once the cell has failed.
    bool rejected = false;
    const auto accept = [&](const core::RecoveryReport& rec) -> bool {
      if (!rec.ok) {
        if (c.section == FaultSection::kSuperblock) {
          rejected = true;
          ++t.rejected_typed;
          ++t.detected;
          return true;
        }
        return fail_cell(p, c, "recover() failed to converge: " + rec.error,
                         &sl);
      }
      ++t.recoveries;
      if (sl.collect() != expected) {
        return fail_cell(
            p, c, "recovered contents diverge from the pre-close image", &sl);
      }
      return true;
    };
    if (accept(sl.recover()) && c.kind == FaultKind::kStuckWord && !rejected) {
      // The failed cell re-asserts into the recovered image; a second
      // recovery must converge (or refuse) all over again: idempotence
      // under memory that will not stay fixed.
      plane.reassert();
      (void)accept(sl.recover());
    }
    plane.clear_stuck();
  }
  if (!p.out.error.empty()) return false;  // region left for inspection
  std::remove(path.c_str());
  return true;
}

// Dropped barriers: live-run arming, any section.
bool run_dropped_barrier_cell(Point& p, const Cell& c) {
  const FaultSweepConfig& cfg = p.cfg;
  FaultTally& t = p.out.tally;
  const std::string path = c.region_path(cfg);
  std::remove(path.c_str());
  SetModel model;
  {  // Live run with 1..8 persist barriers silently dropped.  MAP_SHARED
     // loses nothing without a machine crash, so the run must stay clean.
    FaultPlane plane;
    plane.arm_barrier_drops(1 + (c.seed % 8));
    device::PersistRegion region(
        path, device::PersistRegion::Mode::kCreate,
        device::PersistGeometry{static_cast<std::uint32_t>(cfg.team_size),
                                cfg.pool_chunks});
    region.attach_fault_plane(&plane);
    Rig rig(gfsl_config(cfg), Attach{}, nullptr, &region);
    Gfsl& sl = rig.gfsl();
    ++t.runs;
    std::string err;
    if (!drive(sl, model, cfg, derive_seed(cfg.wl_seed, c.seed ^ 0xD20Bu),
               &err)) {
      return fail_cell(p, c, err, &sl);
    }
    t.barriers_dropped += plane.barriers_dropped();
    const auto vrep = sl.validate(/*strict=*/false);
    if (!vrep.ok) {
      return fail_cell(
          p, c, "validate failed under dropped barriers: " + vrep.error, &sl);
    }
    if (sl.collect() != model.collect()) {
      return fail_cell(p, c, "contents diverged under dropped barriers", &sl);
    }
    region.mark_clean();
  }
  {  // Belt and braces: the closed image must still recover.
    Rig rig(gfsl_config(cfg),
            Attach{.persist = Attach::Persist{path, /*adopt=*/true}});
    Gfsl& sl = rig.gfsl();
    const auto rec = sl.recover();
    if (!rec.ok) {
      return fail_cell(p, c, "post-drop image failed to recover: " + rec.error,
                       &sl);
    }
    if (sl.collect() != model.collect()) {
      return fail_cell(p, c, "post-drop recovery diverged from the model", &sl);
    }
    ++t.recoveries;
  }
  std::remove(path.c_str());
  return true;
}

void run_cell_point(Point& p) {
  if (p.k == 0) {  // nothing to run: the matrix is the point count
    p.out.crossed = static_cast<std::uint64_t>(device::kFaultSectionCount) *
                    device::kFaultKindCount * p.cfg.corrupt_seeds;
    return;
  }
  const Cell c = Cell::at(p.k, p.cfg.corrupt_seeds);
  if (c.kind == FaultKind::kDroppedBarrier) {
    (void)run_dropped_barrier_cell(p, c);
  } else if (c.section == FaultSection::kChunkData) {
    (void)run_chunk_cell(p, c);
  } else {
    (void)run_region_cell(p, c);
  }
}

}  // namespace

FaultTally& FaultTally::operator+=(const FaultTally& o) {
  runs += o.runs;
  kills_landed += o.kills_landed;
  locks_released += o.locks_released;
  snapshot_checks += o.snapshot_checks;
  intents_replayed += o.intents_replayed;
  chunks_freed += o.chunks_freed;
  injected += o.injected;
  detected += o.detected;
  repaired += o.repaired;
  quarantined += o.quarantined;
  keys_lost += o.keys_lost;
  rejected_typed += o.rejected_typed;
  recoveries += o.recoveries;
  barriers_dropped += o.barriers_dropped;
  return *this;
}

const char* injector_mode(Injector injector) { return mode(injector).name; }

FaultSweepConfig fault_sweep_config(const Options& opt) {
  FaultSweepConfig cfg;
  if (opt.get_bool("proc-crash-sweep")) cfg.injector = Injector::kProcessKill;
  if (opt.get_bool("corrupt-sweep")) cfg.injector = Injector::kFaultCell;
  const Mode& m = mode(cfg.injector);
  const bool kill = cfg.injector == Injector::kSchedulerKill;
  const bool cell = cfg.injector == Injector::kFaultCell;
  cfg.at = opt.get_u64("at", 0);
  cfg.workers = static_cast<int>(cell ? m.workers
                                      : opt.get_u64("workers", m.workers));
  cfg.team_size = static_cast<int>(opt.get_u64("team-size", 8));
  cfg.ops = opt.get_u64("ops", m.ops);
  cfg.key_range = opt.get_u64("range", m.key_range);
  cfg.wl_seed = opt.get_u64(m.seed_flag, m.seed);
  cfg.sched_seed = cfg.wl_seed ^ 0x9E3779B97F4A7C15ull;
  cfg.pool_chunks =
      static_cast<std::uint32_t>(opt.get_u64("pool", m.pool_chunks));
  cfg.stride = opt.get_u64("crash-stride", 1);
  cfg.postmortem_dir = opt.get("postmortem-dir", "");
  if (!cell) {
    cfg.attach.epochs = opt.get_bool("with-epochs");
    cfg.attach.snapshots = opt.get_bool("with-snapshots");
    cfg.attach.foresight = kill && opt.get_bool("with-foresight");
  }
  if (!kill) cfg.work_dir = opt.get("work-dir", ".");
  if (kill) {
    cfg.victim = static_cast<int>(opt.get_u64("victim", 0));
    cfg.prefill = opt.get_u64("prefill", cfg.key_range / 2);
  }
  if (cell) cfg.corrupt_seeds = opt.get_u64("corrupt-seeds", 6);
  return cfg;
}

std::string fault_sweep_flags(const FaultSweepConfig& cfg) {
  const Mode& m = mode(cfg.injector);
  const bool kill = cfg.injector == Injector::kSchedulerKill;
  const bool cell = cfg.injector == Injector::kFaultCell;
  auto flag = [](const char* name, std::uint64_t v) {
    return std::string(" --") + name + " " + std::to_string(v);
  };
  std::string s = std::string("--") + m.name;
  if (cfg.at != 0) s += flag("at", cfg.at);
  s += flag(m.seed_flag, cfg.wl_seed);
  if (!cell) s += flag("workers", static_cast<std::uint64_t>(cfg.workers));
  s += flag("team-size", static_cast<std::uint64_t>(cfg.team_size)) +
       flag("ops", cfg.ops) + flag("range", cfg.key_range) +
       flag("pool", cfg.pool_chunks) + flag("crash-stride", cfg.stride);
  if (kill) {
    s += flag("victim", static_cast<std::uint64_t>(cfg.victim)) +
         flag("prefill", cfg.prefill);
  }
  if (cell) s += flag("corrupt-seeds", cfg.corrupt_seeds);
  if (!cell) s += attach_flags(cfg.attach);
  if (!kill) s += " --work-dir " + cfg.work_dir;
  if (!cfg.postmortem_dir.empty()) {
    s += " --postmortem-dir " + cfg.postmortem_dir;
  }
  return s;
}

FaultPoint run_fault_point(const FaultSweepConfig& cfg, std::uint64_t k,
                           std::uint64_t points, obs::MetricsRegistry* reg) {
  Point p{cfg, k, points, reg, {}};
  switch (cfg.injector) {
    case Injector::kSchedulerKill: run_kill_point(p); break;
    case Injector::kProcessKill: run_proc_point(p); break;
    case Injector::kFaultCell: run_cell_point(p); break;
  }
  return p.out;
}

FaultSweepResult run_fault_sweep(const FaultSweepConfig& cfg,
                                 obs::MetricsRegistry* reg,
                                 std::FILE* progress) {
  FaultSweepResult res;
  auto fail = [&](std::uint64_t k, const std::string& error) {
    res.ok = false;
    res.failed_at = k;
    res.error = error;
    res.repro = repro_at(cfg, k);
    return res;
  };
  // Baseline: same seeds, nothing injected; it counts the points.  A killed
  // run replays the baseline's interleaving up to its injection point.
  const FaultPoint base = run_fault_point(cfg, 0, 0, reg);
  res.tally += base.tally;
  res.points = base.crossed;
  if (!base.error.empty()) return fail(0, "baseline run failed: " + base.error);
  if (res.points == 0) {
    return fail(0, "the baseline crossed no injection point");
  }
  if (cfg.at > res.points) {
    return fail(cfg.at, "point " + std::to_string(cfg.at) +
                            " is past the baseline's " +
                            std::to_string(res.points));
  }
  const std::uint64_t stride = cfg.stride == 0 ? 1 : cfg.stride;
  const std::uint64_t first = cfg.at != 0 ? cfg.at : 1;
  const std::uint64_t last = cfg.at != 0 ? cfg.at : res.points;
  const std::uint64_t report_every = (last - first) / stride / 10 + 1;
  std::uint64_t since_report = 0;
  for (std::uint64_t k = first; k <= last; k += stride) {
    const FaultPoint pt = run_fault_point(cfg, k, res.points, reg);
    res.tally += pt.tally;
    if (!pt.error.empty()) return fail(k, pt.error);
    if (progress != nullptr && ++since_report >= report_every) {
      since_report = 0;
      std::fprintf(progress, "  %s %llu/%llu: %s\n",
                   injector_mode(cfg.injector),
                   static_cast<unsigned long long>(k),
                   static_cast<unsigned long long>(res.points),
                   fault_tally_summary(cfg, res.points, res.tally).c_str());
      std::fflush(progress);
    }
  }
  return res;
}

std::string fault_tally_summary(const FaultSweepConfig& cfg,
                                std::uint64_t points, const FaultTally& t) {
  auto n = [](std::uint64_t v) { return std::to_string(v); };
  const std::string over = " over " + n(points);
  const std::string stride = " (stride " + n(cfg.stride) + "), ";
  switch (cfg.injector) {
    case Injector::kSchedulerKill:
      return n(t.runs) + " runs" + over + " steps" + stride +
             n(t.kills_landed) + " kills landed, " + n(t.locks_released) +
             " medic recoveries, " + n(t.snapshot_checks) + " snapshot checks";
    case Injector::kProcessKill:
      return n(t.runs) + " child runs" + over + " persist points" + stride +
             n(t.kills_landed) + " SIGKILLs landed, " + n(t.locks_released) +
             " locks released, " + n(t.intents_replayed) +
             " intents replayed, " + n(t.chunks_freed) + " chunks freed";
    case Injector::kFaultCell:
      return n(t.runs) + " runs" + over + " cells" + stride + n(t.injected) +
             " faults injected, " + n(t.detected) + " detected, " +
             n(t.repaired) + " repaired, " + n(t.quarantined) +
             " quarantined (" + n(t.keys_lost) + " keys lost, all reported), " +
             n(t.rejected_typed) + " typed rejections, " + n(t.recoveries) +
             " recoveries, " + n(t.barriers_dropped) + " barriers dropped";
  }
  return {};
}

}  // namespace gfsl::harness
