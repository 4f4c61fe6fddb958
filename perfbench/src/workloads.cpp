#include "workloads.h"

#include <algorithm>
#include <string>

#include "common/random.h"
#include "harness/experiment.h"
#include "model/occupancy.h"

namespace perfbench {

namespace gh = gfsl::harness;

namespace {

gh::WorkloadConfig config(const WorkloadSpec& w, std::uint64_t seed,
                          std::uint64_t num_ops) {
  gh::WorkloadConfig c;
  c.mix = w.mix;
  c.key_range = w.key_range;
  c.prefill = w.prefill;
  c.num_ops = num_ops;
  c.seed = seed;
  return c;
}

double prefill_keys(const WorkloadSpec& w) {
  switch (w.prefill) {
    case gh::Prefill::Empty: return 0.0;
    case gh::Prefill::HalfRange: return static_cast<double>(w.key_range / 2);
    case gh::Prefill::FullRange: break;
  }
  return static_cast<double>(w.key_range);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"mixed_1m", gh::kMix_10_10_80, 1'000'000, gh::Prefill::HalfRange, 4,
       false, 0, 100'000},
      {"foresight_1m", gh::kMix_10_10_80, 1'000'000, gh::Prefill::HalfRange, 4,
       true, 0, 100'000},
      {"batch_1m", gh::kMix_5_5_90, 1'000'000, gh::Prefill::HalfRange, 4,
       false, 1024, 131'072},
      {"contains_10k", gh::kContainsOnly, 10'000, gh::Prefill::FullRange, 1,
       false, 0, 100'000},
  };
  return kAll;
}

WorkloadSpec tiny(const WorkloadSpec& w) {
  WorkloadSpec t = w;
  t.key_range = std::max<std::uint64_t>(w.key_range / 100, 1000);
  t.launch_ops = w.launch_ops / 16;
  return t;
}

std::uint64_t team_seed(std::uint64_t seed) {
  return gfsl::derive_seed(seed, 0x6F51);
}

std::vector<gfsl::Op> launch_ops(const WorkloadSpec& w, std::uint64_t seed,
                                 int i, std::size_t n) {
  return gh::generate_ops(
      config(w, gfsl::derive_seed(seed, 0x100 + static_cast<std::uint64_t>(i)),
             n == 0 ? w.launch_ops : n));
}

std::unique_ptr<Fixture> set_up(const WorkloadSpec& w, std::uint64_t seed,
                                int launch, Tracer& tr) {
  Scope whole(tr, "bench.setup");
  auto f = std::make_unique<Fixture>();
  SetupTimes& t = f->times;

  std::vector<std::pair<gfsl::Key, gfsl::Value>> prefill;
  {
    Scope s(tr, "harness.generate_prefill");
    prefill = gh::generate_prefill(config(w, seed, 0));
    t.generate_prefill = s.stop();
  }
  {
    Scope s(tr, "core.construct");
    gfsl::core::GfslConfig cfg;
    cfg.team_size = kTeamSize;
    // Room for the measured launch and the traced run's per-op launch (the
    // structure runs without reclamation, so zombies accumulate).
    cfg.pool_chunks =
        gh::gfsl_pool_chunks(config(w, seed, 2 * w.launch_ops), kTeamSize);
    if (w.foresight) {
      f->foresight = std::make_unique<gfsl::core::ForesightIndex>(
          cfg.pool_chunks);
    }
    f->sl = std::make_unique<gfsl::core::Gfsl>(
        cfg, &f->mem, nullptr, nullptr, nullptr, nullptr, nullptr,
        f->foresight.get());
    t.construct = s.stop();
  }
  {
    Scope s(tr, "core.bulk_load");
    f->sl->bulk_load(prefill);
    t.bulk_load = s.stop();
  }
  if (w.foresight) {
    // Primed quiescently, as measure_gfsl does, so measured traffic starts
    // hinted instead of paying the lazy first rebuild.
    Scope s(tr, "core.foresight_prime");
    gfsl::simt::Team primer(kTeamSize, w.workers,
                            gfsl::derive_seed(seed, 0xF0E5));
    f->sl->foresight_prime(primer);
    t.foresight_prime = s.stop();
    f->rebuilds_primed = f->foresight->rebuilds();
  }
  std::vector<gfsl::Op> warm;
  {
    Scope s(tr, "harness.generate_ops");
    // Warm with reads only so the structure is unchanged when measuring
    // starts.
    gh::WorkloadConfig wc =
        config(w, gfsl::derive_seed(seed, 0xCAFE), kWarmupOps);
    wc.mix = gh::kContainsOnly;
    warm = gh::generate_ops(wc);
    f->ops = launch_ops(w, seed, launch);
    t.generate_ops = s.stop();
  }
  {
    Scope s(tr, "harness.warmup");
    gh::RunConfig rc;
    rc.num_workers = w.workers;
    rc.seed = team_seed(seed);
    rc.flush_cache_before = true;  // a fresh kernel starts with a cold L2
    (void)gh::run_gfsl(*f->sl, warm, rc, f->mem);
    t.warmup = s.stop();
  }
  f->oracle = std::make_unique<Oracle>(w.key_range, prefill);
  return f;
}

Launch run_launch(Fixture& f, const WorkloadSpec& w, std::uint64_t seed,
                  gfsl::obs::MetricsRegistry* metrics, Tracer& tr) {
  Launch l;
  gh::RunConfig rc;
  rc.num_workers = w.workers;
  rc.seed = team_seed(seed);
  rc.flush_cache_before = false;  // the warmup left the L2 warm
  rc.results = &l.results;
  rc.metrics = metrics;
  if (w.batch_size > 0) {
    gh::BatchRunOptions bo;
    bo.batch_size = w.batch_size;
    gfsl::core::BatchResult br;
    Scope s(tr, "harness.run_gfsl_batched");
    l.run = gh::run_gfsl_batched(*f.sl, f.ops, rc, f.mem, bo, &br);
    l.host_seconds = s.stop();
    l.batch = std::move(br.stats);
  } else {
    Scope s(tr, "harness.run_gfsl");
    l.run = gh::run_gfsl(*f.sl, f.ops, rc, f.mem);
    l.host_seconds = s.stop();
  }
  return l;
}

gfsl::model::ModelResult model_launch(const WorkloadSpec& w,
                                      gfsl::model::KernelRun k, Tracer& tr) {
  Scope s(tr, "model.throughput");
  const auto occ = gfsl::model::Occupancy().compute(gfsl::model::kGfslKernel,
                                                    kWarpsPerBlock);
  // The same contention inputs measure_gfsl derives for a launch of this
  // size: average live keys and the update fraction.
  const double grow = static_cast<double>(k.ops) *
                      (w.mix.insert_pct - w.mix.delete_pct) / 100.0 / 2.0;
  gh::ContentionInputs ci;
  ci.structure_keys = std::max(64.0, prefill_keys(w) + std::max(0.0, grow));
  ci.update_fraction = (w.mix.insert_pct + w.mix.delete_pct) / 100.0;
  gh::apply_gfsl_contention(k, occ, ci, kTeamSize);
  return gfsl::model::CostModel().throughput(k, occ);
}

}  // namespace perfbench
