#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <new>
#include <stdexcept>
#include <thread>

#include "calibrate.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

using gfsl::Op;
using gfsl::OpKind;

// Timed epochs per run: at least kMinEpochs (medians need a few samples),
// then until --seconds of measured host time; capped so a much faster
// simulator still finishes promptly.
constexpr int kMinEpochs = 3;
constexpr int kMaxEpochs = 500;
/// Host speed settles within about a second of sustained load (idle vCPUs
/// of a virtual machine are woken lazily); epochs before this point are
/// checked and modeled but not timed.
constexpr double kHostWarmupSeconds = 2.0;
/// Ops of the traced run's per-op timing launch (enough that p99 has more
/// than ten samples beyond it for every op kind of every workload).
constexpr std::size_t kProbeOps = 32'768;
/// Op streams of the traced run's extra launches, apart from the epochs'.
constexpr int kProbeLaunch = 1'000'000;
constexpr int kCalibrationLaunch = 1'000'001;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// FNV-1a over a launch's simulated statistics.
std::uint64_t fingerprint_of(const gfsl::harness::RunResult& r) {
  const std::array<std::uint64_t, 7> v = {
      r.team_totals.instructions, r.team_totals.ballots,
      r.team_totals.shfls,        r.kernel.mem.transactions,
      r.kernel.mem.l2_hits,       r.kernel.mem.dram_transactions,
      r.kernel.mem.atomics};
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t x : v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Self-test hook: flip one result the checker must catch — the first
/// update's (it always changes the predicted key set) or else the first op's
/// (a contains on a key no update touches).
void corrupt_one(const std::vector<Op>& ops, std::vector<std::uint8_t>& results) {
  std::size_t i = 0;
  while (i < ops.size() && ops[i].kind == OpKind::Contains) ++i;
  if (i == ops.size()) i = 0;
  results[i] ^= 1;
}

/// Mismatched ops of one launch, at most the launch's op count.  A launch
/// that ran out of device memory fails as a whole.
std::uint64_t check(Fixture& f, const std::vector<Op>& ops,
                    std::vector<std::uint8_t>& results, bool out_of_memory,
                    bool exact, bool corrupt, Tracer& tr) {
  Scope s(tr, "bench.check");
  if (corrupt) corrupt_one(ops, results);
  const std::uint64_t bad = exact
                                ? f.oracle->check_sequential(ops, results, *f.sl)
                                : f.oracle->check_concurrent(ops, results, *f.sl);
  if (out_of_memory) return ops.size();
  return std::min<std::uint64_t>(bad, ops.size());
}

/// Sums over the launches that ran with device accounting on.
struct Totals {
  std::uint64_t ops = 0;
  gfsl::simt::TeamCounters team;
  gfsl::device::MemStats mem;
  std::uint64_t shards = 0, steals = 0, reuses = 0, fulls = 0;
  std::uint64_t rebuilds = 0;  // foresight republishes after priming
  // From the traced launches' metrics registries.
  std::uint64_t traced_ops = 0, fs_hits = 0, fs_fallbacks = 0, fs_stale = 0;
};

/// Per-op wall time of each kind, from the benchmark's own timed calls.
struct Probe {
  std::vector<std::uint8_t> results;
  std::array<std::vector<double>, 3> ns;  // indexed by OpKind
  bool out_of_memory = false;
};

/// A launch the benchmark drives itself, one span per Gfsl call: the same
/// team-per-thread, contiguous-slice split as harness::run_gfsl.
Probe probe(Fixture& f, const WorkloadSpec& w, const std::vector<Op>& ops,
            std::uint64_t seed, Tracer& tr) {
  Scope s(tr, "bench.probe");
  const std::uint32_t parent = tr.current();
  Probe p;
  p.results.assign(ops.size(), 0);
  const auto nw = static_cast<std::size_t>(w.workers);
  std::vector<std::vector<Span>> spans(nw);
  std::vector<std::array<std::vector<double>, 3>> ns(nw);
  std::atomic<bool> oom{false};
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < nw; ++t) {
      threads.emplace_back([&, t] {
        gfsl::simt::Team team(kTeamSize, static_cast<int>(t), team_seed(seed));
        const std::size_t begin = ops.size() * t / nw;
        const std::size_t end = ops.size() * (t + 1) / nw;
        try {
          for (std::size_t i = begin; i < end; ++i) {
            const Op& op = ops[i];
            const char* name = "core.contains";
            const std::int64_t t0 = tr.now_ns();
            bool r = false;
            switch (op.kind) {
              case OpKind::Insert:
                name = "core.insert";
                r = f.sl->insert(team, op.key, op.value);
                break;
              case OpKind::Delete:
                name = "core.erase";
                r = f.sl->erase(team, op.key);
                break;
              case OpKind::Contains:
                r = f.sl->contains(team, op.key);
                break;
            }
            const std::int64_t t1 = tr.now_ns();
            p.results[i] = r ? 1 : 0;
            ns[t][static_cast<std::size_t>(op.kind)].push_back(
                static_cast<double>(t1 - t0));
            spans[t].push_back(
                Span{name, tr.next_id(), parent, static_cast<int>(t) + 1, t0, t1});
          }
        } catch (const std::bad_alloc&) {
          oom.store(true);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (std::size_t t = 0; t < nw; ++t) {
    tr.absorb(spans[t]);
    for (std::size_t k = 0; k < 3; ++k) {
      p.ns[k].insert(p.ns[k].end(), ns[t][k].begin(), ns[t][k].end());
    }
  }
  p.out_of_memory = oom.load();
  return p;
}

void set_percentiles(Report& rep, const char* base, std::vector<double> ns) {
  gfsl::RunStats st;
  for (const double x : ns) st.add(x);
  const std::string b(base);
  rep.set(b + ".p50", st.percentile(0.50));
  rep.set(b + ".p99", st.percentile(0.99));
  rep.set(b + ".count", static_cast<double>(st.count()));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

RunOutcome run_workload(const WorkloadSpec& w, const RunOptions& o) {
  RunOutcome out;
  Report& rep = out.report;
  Tracer tr(o.trace);
  const bool exact = w.batch_size > 0;

  // --- epochs: set up, then one launch ---------------------------------------
  // Every epoch builds the same structure from the seed and runs a launch of
  // w.launch_ops ops on it (untraced epoch e draws its ops from (seed, e)).
  // Rebuilding keeps the measured work independent of how many epochs fit
  // in --seconds: a structure that keeps running degrades (erases strip
  // raised keys that inserts do not replace), so a faster simulator would
  // otherwise model a different structure.  Host time counts only epochs
  // that start after kHostWarmupSeconds, once the host runs at its steady
  // speed.  The traced run cycles its measured epochs through plain,
  // traced (metrics registry attached: the tracing overhead) and device
  // accounting off (what accounting costs).
  enum Mode { kPlain, kTraced, kNoAccounting };
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<Fixture> f;
  std::vector<SetupTimes> setups;
  std::array<std::vector<double>, 3> host_ns;  // per op, by Mode
  std::vector<gfsl::model::ModelResult> models;
  Totals tot;
  double measured = 0;
  int measured_epochs = 0;
  const int min_epochs = o.trace ? 6 : kMinEpochs;
  for (int e = 0;
       e < kMaxEpochs && (measured_epochs < min_epochs || measured < o.seconds);
       ++e) {
    const bool warming =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() < kHostWarmupSeconds;
    const Mode mode =
        warming || !o.trace ? kPlain : static_cast<Mode>(measured_epochs % 3);
    // A traced cycle's three epochs run the same ops (those of its plain
    // epoch), so the overhead and accounting differences compare like work.
    const int launch = e - static_cast<int>(mode);
    f.reset();  // one structure alive at a time
    f = set_up(w, o.seed, launch, tr);

    Scope es(tr, "bench.launch");
    std::unique_ptr<gfsl::obs::MetricsRegistry> reg;
    if (mode == kTraced) {
      reg = std::make_unique<gfsl::obs::MetricsRegistry>(w.workers);
    }
    f->mem.set_accounting(mode != kNoAccounting);
    Launch l = run_launch(*f, w, o.seed, reg.get(), tr);
    f->mem.set_accounting(true);
    out.failed += check(*f, f->ops, l.results, l.run.out_of_memory, exact,
                        o.corrupt_results && e == 0, tr);
    out.attempted += f->ops.size();
    ++out.epochs;
    if (!warming) {
      ++measured_epochs;
      measured += l.host_seconds;
      host_ns[mode].push_back(l.host_seconds * 1e9 /
                              static_cast<double>(f->ops.size()));
      setups.push_back(f->times);
    }
    if (mode == kNoAccounting) continue;  // no device statistics to model

    models.push_back(model_launch(w, l.run.kernel, tr));
    if (e == 0) {
      // With one worker the simulation is deterministic: the same seed
      // gives the same epoch-0 statistics, bit for bit.
      if (w.workers == 1) out.fingerprint = fingerprint_of(l.run);
      const auto& c = l.run.team_totals;
      const auto& m = l.run.kernel.mem;
      rep.set("simt.round0_instructions", static_cast<double>(c.instructions));
      rep.set("simt.round0_ballots", static_cast<double>(c.ballots));
      rep.set("simt.round0_shfls", static_cast<double>(c.shfls));
      rep.set("device.round0_transactions",
              static_cast<double>(m.transactions));
      rep.set("device.round0_l2_hits", static_cast<double>(m.l2_hits));
      rep.set("device.round0_dram_tx",
              static_cast<double>(m.dram_transactions));
      rep.set("device.round0_atomics", static_cast<double>(m.atomics));
    }
    tot.ops += f->ops.size();
    tot.team += l.run.team_totals;
    tot.mem += l.run.kernel.mem;
    tot.shards += l.batch.shards;
    tot.steals += l.batch.steals;
    tot.reuses += l.batch.descent_reuses;
    tot.fulls += l.batch.full_descents;
    tot.rebuilds +=
        f->foresight ? f->foresight->rebuilds() - f->rebuilds_primed : 0;
    if (reg) {
      const gfsl::obs::MetricsShard m = reg->merged();
      tot.traced_ops += f->ops.size();
      tot.fs_hits += m.counter(gfsl::obs::kForesightHits);
      tot.fs_fallbacks += m.counter(gfsl::obs::kForesightFallbacks);
      tot.fs_stale += m.counter(gfsl::obs::kForesightStaleHints);
    }
  }

  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total() < b.total();
            });
  const SetupTimes setup = setups[setups.size() / 2];
  // The epoch with the median modeled throughput stands for the model.
  std::sort(models.begin(), models.end(),
            [](const gfsl::model::ModelResult& a,
               const gfsl::model::ModelResult& b) { return a.mops < b.mops; });
  const gfsl::model::ModelResult mid = models[models.size() / 2];

  rep.set("model_mops", mid.mops);
  rep.set("host_ns_per_op", median(host_ns[kPlain]));
  rep.set("setup_s", setup.total());

  if (o.trace) {
    // Per-op timing launch on the last epoch's structure.
    const auto pops =
        launch_ops(w, o.seed, kProbeLaunch, std::min(kProbeOps, w.launch_ops));
    Probe p = probe(*f, w, pops, o.seed, tr);
    out.failed += check(*f, pops, p.results, p.out_of_memory, false, false, tr);
    out.attempted += pops.size();
    set_percentiles(rep, "core.insert_ns", std::move(p.ns[0]));
    set_percentiles(rep, "core.erase_ns", std::move(p.ns[1]));
    set_percentiles(rep, "core.contains_ns", std::move(p.ns[2]));
  }

  gfsl::core::ValidationReport v;
  {
    Scope s(tr, "core.validate");
    v = f->sl->validate(/*strict=*/true);
  }
  if (!v.ok) {
    std::cerr << w.name << ": validate failed: " << v.error << "\n";
    ++out.failed;
  }

  // --- per-layer metrics, calibration loops and spans (traced run only) -----
  if (o.trace) {
    const double ops = static_cast<double>(tot.ops);
    rep.set("simt.instructions_per_op", tot.team.instructions / ops);
    rep.set("simt.ballots_per_op", tot.team.ballots / ops);
    rep.set("simt.shfls_per_op", tot.team.shfls / ops);
    rep.set("device.reads_per_op", tot.mem.reads() / ops);
    rep.set("device.transactions_per_op", tot.mem.transactions / ops);
    rep.set("device.l2_hit_ratio",
            ratio(static_cast<double>(tot.mem.l2_hits),
                  static_cast<double>(tot.mem.transactions)));
    rep.set("device.dram_tx_per_op", tot.mem.dram_transactions / ops);
    rep.set("device.atomics_per_op", tot.mem.atomics / ops);
    rep.set("device.accounting_ns_per_op",
            median(host_ns[kPlain]) - median(host_ns[kNoAccounting]));
    rep.set("core.chunks_per_traversal", f->sl->avg_chunks_per_traversal());
    rep.set("core.lock_spins_per_op", tot.team.lock_spins / ops);
    rep.set("core.restarts_per_op", tot.team.restarts / ops);
    rep.set("core.height", v.height);
    rep.set("core.live_chunks", static_cast<double>(v.live_chunks));
    rep.set("core.foresight.hit_ratio",
            ratio(static_cast<double>(tot.fs_hits),
                  static_cast<double>(tot.fs_hits + tot.fs_fallbacks)));
    rep.set("core.foresight.stale_per_op",
            ratio(static_cast<double>(tot.fs_stale),
                  static_cast<double>(tot.traced_ops)));
    rep.set("core.foresight.rebuilds", tot.rebuilds * 1e6 / ops);
    rep.set("core.batch.descent_reuse_ratio",
            ratio(static_cast<double>(tot.reuses),
                  static_cast<double>(tot.reuses + tot.fulls)));
    rep.set("sched.steal_ratio", ratio(static_cast<double>(tot.steals),
                                       static_cast<double>(tot.shards)));
    rep.set("model.latency_s", mid.latency_seconds);
    rep.set("model.bandwidth_s", mid.bandwidth_seconds);
    rep.set("model.avg_epoch_latency_cycles", mid.avg_epoch_latency);
    rep.set("model.dram_bytes_per_op",
            mid.dram_bytes / static_cast<double>(w.launch_ops));
    rep.set("harness.generate_prefill_s", setup.generate_prefill);
    rep.set("harness.generate_ops_s", setup.generate_ops);
    rep.set("core.construct_s", setup.construct);
    rep.set("core.bulk_load_s", setup.bulk_load);
    rep.set("core.foresight_prime_s", setup.foresight_prime);
    rep.set("harness.warmup_s", setup.warmup);
    rep.set("obs.trace_overhead_ns_per_op",
            median(host_ns[kTraced]) - median(host_ns[kPlain]));

    Scope c(tr, "bench.calibrate");
    const auto cops = launch_ops(w, o.seed, kCalibrationLaunch, 65'536);
    {
      Scope s(tr, "simt.ballot");
      rep.set("simt.ballot_ns", ballot_ns(cops, kTeamSize));
    }
    {
      Scope s(tr, "simt.shfl");
      rep.set("simt.shfl_ns", shfl_ns(cops, kTeamSize));
    }
    const std::uint64_t footprint = f->sl->chunks_allocated();
    constexpr std::uint32_t kChunkBytes = kTeamSize * sizeof(gfsl::KV);
    {
      Scope s(tr, "device.warp_read");
      rep.set("device.warp_read_ns.t1",
              warp_read_ns(footprint, kChunkBytes, 1, o.seed));
    }
    {
      Scope s(tr, "device.warp_read");
      rep.set("device.warp_read_ns.t4",
              warp_read_ns(footprint, kChunkBytes, 4, o.seed));
    }
    {
      Scope s(tr, "sched.plan_shards");
      rep.set("sched.plan_shards_ns_per_op",
              plan_shards_ns_per_op(
                  cops, w.batch_size > 0 ? w.batch_size : 1024, w.workers));
    }
    c.stop();

    if (!o.trace_out.empty()) {
      std::ofstream os(o.trace_out);
      tr.write_json(os);
      if (!os) throw std::runtime_error("cannot write " + o.trace_out);
    }
  }
  rep.set("peak_rss_mb", peak_rss_mb());
  return out;
}

}  // namespace perfbench
