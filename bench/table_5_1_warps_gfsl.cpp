// Table 5.1 — "Effects on GFSL of limiting warps launched per block".
//
// Sweeps warps/block over {8, 16, 24, 32} for GFSL-32 on the [10,10,80] mix
// at the 1M key range (reduced by default; see the scale banner).  Occupancy,
// registers, active blocks and spill come from the occupancy calculator; the
// throughput row feeds the measured simulator events through the cost model
// under each launch configuration.  Paper reference values are printed in
// the adjacent columns.
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
  std::printf("# Table 5.1: GFSL, mix [10,10,80], range %s\n\n",
              harness::fmt_range(range).c_str());

  // One measured run; the launch configuration only changes the model side.
  auto wl = harness::make_workload(harness::kMix_10_10_80, range, sc.ops,
                                   sc.seed);
  const auto setup = harness::setup_from_scale(sc);
  const auto measured = harness::measure_gfsl(wl, setup);

  const model::Occupancy occ_calc;
  const model::CostModel cm;

  // Thesis Table 5.1 rows for side-by-side comparison.
  struct PaperRow {
    int warps;
    double occ, theo;
    int regs, blocks;
    double spill, mops;
  };
  const PaperRow paper[] = {
      {8, 0.367, 0.375, 79, 3, 0.00, 58.9},
      {16, 0.488, 0.500, 64, 2, 0.10, 65.7},
      {24, 0.730, 0.750, 40, 2, 0.43, 62.5},
      {32, 0.958, 1.000, 32, 2, 0.53, 52.9},
  };

  harness::Table t({"warps/block", "occup/theor", "paper", "regs", "paper",
                    "blocks", "paper", "spill", "paper", "MOPS(model)",
                    "paper"});
  double best_mops = 0.0;
  int best_warps = 0;
  for (const auto& p : paper) {
    const auto o = occ_calc.compute(model::kGfslKernel, p.warps);
    const auto r = cm.throughput(measured.kernel, o);
    if (r.mops > best_mops) {
      best_mops = r.mops;
      best_warps = p.warps;
    }
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
      "\nbest modeled configuration: %d warps/block (paper: 16 warps/block "
      "peaks at 65.7 MOPS)\n",
      best_warps);
  return 0;
}
