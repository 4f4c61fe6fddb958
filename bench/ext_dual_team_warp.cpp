// Extension — two teams per warp (thesis Chapter 7, future work).
//
// "We believe that GFSL-16 would probably outperform GFSL-32 with proper
//  support for executing two teams within the same warp.  However,
//  synchronization between threads in the same warp is a delicate task ...
//  teams in the same warp may deadlock while trying to take the lock for the
//  same chunk."
//
// This bench implements that support in the simulator: pairs of 16-lane
// teams share a warp under round-robin lockstep (StepScheduler::RoundRobin).
// The deadlock hazard is dissolved by construction — a spinning team yields
// at every iteration, so its warp-mate (possibly the lock holder) always
// advances.  The cost model overlaps the pair's memory waits while keeping
// their instruction issue serialized.  The conjecture to test: GFSL-16x2
// recovers the 128 B single-transaction chunk reads AND warp-level op
// parallelism, beating GFSL-32.
#include <cstdio>
#include <iostream>

#include "common/env.h"
#include "harness/campaign.h"
#include "harness/report.h"

using namespace gfsl;

int main() {
  const Scale sc = Scale::from_env();
  harness::print_scale_banner(sc);
  std::printf("# Extension: GFSL-16 x2 teams/warp vs GFSL-16 and GFSL-32\n");
  std::printf("# thesis conjecture: dual-team GFSL-16 should beat GFSL-32\n\n");

  const int reps = static_cast<int>(sc.reps);
  harness::Table t({"range", "GFSL-16 MOPS", "GFSL-32 MOPS", "GFSL-16x2 MOPS",
                    "16x2 / 32"});
  for (const auto range : harness::sweep_ranges(sc.max_range)) {
    auto wl = harness::make_workload(harness::kMix_10_10_80, range, sc.ops,
                                     sc.seed);
    const auto s16 = harness::setup_from_scale(sc, /*team_size=*/16);
    const auto s32 = harness::setup_from_scale(sc, /*team_size=*/32);
    const auto g16 = harness::repeat_gfsl(wl, s16, reps);
    const auto g32 = harness::repeat_gfsl(wl, s32, reps);
    const auto dual = harness::repeat_gfsl_dual(wl, s16, reps);
    t.add_row({harness::fmt_range(range),
               harness::fmt_ci(g16.mops.mean, g16.mops.ci95_half),
               harness::fmt_ci(g32.mops.mean, g32.mops.ci95_half),
               harness::fmt_ci(dual.mops.mean, dual.mops.ci95_half),
               harness::fmt(dual.mops.mean / g32.mops.mean, 2) + "x"});
  }
  t.print(std::cout);
  return 0;
}
