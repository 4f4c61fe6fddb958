// Table 5.2 — "Effects on M&C of limiting warps launched per block".
//
// Same sweep as Table 5.1, for the M&C baseline.  The thesis's observation
// to reproduce: throughput "varies very little, regardless of the number of
// warps launched" because M&C is memory-dependence bound, and spill stays
// ~23-25% everywhere due to the thread-local path arrays.
#include <cstdio>
#include <iostream>

#include "common/env.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "model/occupancy.h"

using namespace gfsl;

int main() {
  const Scale sc = Scale::from_env();
  harness::print_scale_banner(sc);
  const std::uint64_t range = std::min<std::uint64_t>(1'000'000, sc.max_range);
  std::printf("# Table 5.2: M&C, mix [10,10,80], range %s\n\n",
              harness::fmt_range(range).c_str());

  auto wl = harness::make_workload(harness::kMix_10_10_80, range, sc.ops,
                                   sc.seed);
  const auto setup = harness::setup_from_scale(sc);
  const auto measured = harness::measure_mc(wl, setup);

  const model::Occupancy occ_calc;
  const model::CostModel cm;

  struct PaperRow {
    int warps;
    double occ, theo;
    int regs, blocks;
    double spill, mops;
  };
  const PaperRow paper[] = {
      {8, 0.529, 0.625, 42, 5, 0.25, 20.7},
      {16, 0.416, 0.500, 42, 2, 0.23, 21.3},
      {24, 0.590, 0.750, 40, 2, 0.23, 20.6},
      {32, 0.794, 1.000, 32, 2, 0.24, 20.2},
  };

  harness::Table t({"warps/block", "occup/theor", "paper", "regs", "paper",
                    "blocks", "paper", "spill", "paper", "MOPS(model)",
                    "paper"});
  double lo = 1e30, hi = 0.0;
  for (const auto& p : paper) {
    const auto o = occ_calc.compute(model::kMcKernel, p.warps);
    const auto r = cm.throughput(measured.kernel, o);
    lo = std::min(lo, r.mops);
    hi = std::max(hi, r.mops);
    t.add_row({std::to_string(p.warps),
               harness::fmt_pct(o.achieved_occupancy) + "/" +
                   harness::fmt_pct(o.theoretical_occupancy),
               harness::fmt_pct(p.occ) + "/" + harness::fmt_pct(p.theo),
               std::to_string(o.registers_per_thread), std::to_string(p.regs),
               std::to_string(o.active_blocks), std::to_string(p.blocks),
               harness::fmt_pct(o.spill_fraction, 0),
               harness::fmt_pct(p.spill, 0), harness::fmt(r.mops),
               harness::fmt(p.mops)});
  }
  t.print(std::cout);
  std::printf(
      "\nmodeled throughput spread across configs: %.1f%% "
      "(paper: ~5%% — flat, memory-dependence bound)\n",
      hi > 0 ? (hi - lo) / hi * 100.0 : 0.0);
  return 0;
}
