// gfsl_replay — deterministic reproduction of a recorded run.
//
// Record a failing workload once:
//   gfsl_replay --record ops.txt --mix 20,20,60 --range 200 --ops 500 --seed 7
// then replay it, bit-for-bit, under a chosen deterministic schedule:
//   gfsl_replay --load ops.txt --workers 2 --sched-seed 42 --team-size 8
//
// Replay runs the op log against GFSL under StepScheduler::Deterministic,
// validates the structure afterwards, and (with --trace) dumps the last
// events of every team — the full workflow for cornering a concurrency bug.
#include <cstdio>
#include <iostream>

#include "harness/history.h"
#include "harness/oplog.h"
#include "harness/options.h"
#include "harness/rig.h"
#include "harness/workload.h"
#include "obs/trace_export.h"

using namespace gfsl;
using namespace gfsl::harness;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gfsl_replay --record FILE [--mix i,d,c] [--range N] [--ops N] "
      "[--seed N]\n"
      "  gfsl_replay --load FILE [--workers N] [--sched-seed N] "
      "[--team-size N] [--trace]\n");
  return 2;
}

Mix parse_mix(const std::string& s) {
  Mix m{};
  if (std::sscanf(s.c_str(), "%d,%d,%d", &m.insert_pct, &m.delete_pct,
                  &m.contains_pct) != 3 ||
      m.insert_pct + m.delete_pct + m.contains_pct != 100) {
    throw std::invalid_argument("--mix must be i,d,c summing to 100");
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = Options::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  try {
    if (opt.has("record")) {
      WorkloadConfig wl;
      wl.mix = parse_mix(opt.get("mix", "20,20,60"));
      wl.key_range = opt.get_u64("range", 200);
      wl.num_ops = opt.get_u64("ops", 500);
      wl.seed = opt.get_u64("seed", 7);
      const auto ops = generate_ops(wl);
      save_oplog_file(opt.get("record", ""), ops);
      std::printf("recorded %zu ops to %s\n", ops.size(),
                  opt.get("record", "").c_str());
      return 0;
    }

    if (!opt.has("load")) return usage();
    const auto ops = load_oplog_file(opt.get("load", ""));
    const int workers = static_cast<int>(opt.get_u64("workers", 2));
    const auto sched_seed = opt.get_u64("sched-seed", 1);
    const int team_size = static_cast<int>(opt.get_u64("team-size", 8));
    const bool want_trace = opt.get_bool("trace");

    sched::StepScheduler sched(sched::StepScheduler::Mode::Deterministic,
                               sched_seed, workers);
    Rig rig({.team_size = team_size, .pool_chunks = 1u << 16}, Attach{},
            &sched);
    core::Gfsl& sl = rig.gfsl();

    HistoryOptions run;
    run.workers = workers;
    run.team_seed = 1;
    HistoryLog log(ops.size(), workers);
    std::vector<HistoryRecorder> recorders;
    for (int w = 0; w < workers; ++w) recorders.emplace_back(log, w);
    obs::TraceSession traces(1u << 12);
    if (want_trace) run.trace = &traces;
    for (auto& r : recorders) run.observers.push_back(&r);
    (void)run_history(sl, &sched, ops, run);
    std::uint64_t trues = 0;
    for (const auto& e : log.merged()) trues += e.result ? 1 : 0;

    const auto rep = sl.validate(/*strict=*/false);
    std::printf(
        "replayed %zu ops on %d workers (schedule seed %llu, %llu steps)\n",
        ops.size(), workers,
        static_cast<unsigned long long>(sched_seed),
        static_cast<unsigned long long>(sched.global_steps()));
    std::printf("ops returning true: %llu; final size: %llu; valid: %s\n",
                static_cast<unsigned long long>(trues),
                static_cast<unsigned long long>(sl.size()),
                rep.ok ? "yes" : rep.error.c_str());
    if (want_trace) {
      for (int w = 0; w < workers; ++w) {
        std::printf("--- team %d trace (last %zu events) ---\n", w,
                    traces.team(w)->snapshot().size());
        traces.team(w)->dump(std::cout);
      }
    }
    return rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
