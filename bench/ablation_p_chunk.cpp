// §5.2 ablation — the effect of p_chunk on GFSL.
//
// The thesis: "using p_chunk ≈ 1 in GFSL gave the best results in all
// operation mixtures ... the average number of chunks read in a traversal is
// between structure-height+1 and structure-height+2 ... Lowering p_chunk
// causes more lateral steps to be taken, while not having a significant
// impact on structure height."  This bench sweeps p_chunk and reports
// modeled throughput, structure height and chunks-read-per-traversal.
#include <cstdio>
#include <iostream>

#include "common/env.h"
#include "harness/campaign.h"
#include "harness/report.h"

using namespace gfsl;

int main() {
  const Scale sc = Scale::from_env();
  harness::print_scale_banner(sc);
  const std::uint64_t range = std::min<std::uint64_t>(1'000'000, sc.max_range);
  std::printf("# p_chunk ablation: GFSL-32, mix [10,10,80], range %s\n",
              harness::fmt_range(range).c_str());
  std::printf("# paper: best at p_chunk ~ 1; traversal reads height+1..height+2\n\n");

  harness::Table t({"p_chunk", "MOPS(model)", "chunks/traversal",
                    "warp reads/op", "L2 hit"});
  double best_mops = 0.0;
  double best_p = 0.0;
  for (const double p : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto wl = harness::make_workload(harness::kMix_10_10_80, range, sc.ops,
                                     sc.seed);
    auto setup = harness::setup_from_scale(sc);
    setup.p_chunk = p;
    const auto m = harness::measure_gfsl(wl, setup);
    if (m.model_mops > best_mops) {
      best_mops = m.model_mops;
      best_p = p;
    }
    const double reads_per_op =
        static_cast<double>(m.kernel.mem.warp_reads) /
        static_cast<double>(m.kernel.ops ? m.kernel.ops : 1);
    const double hit =
        m.kernel.mem.transactions
            ? static_cast<double>(m.kernel.mem.l2_hits) /
                  static_cast<double>(m.kernel.mem.transactions)
            : 0.0;
    t.add_row({harness::fmt(p, 1), harness::fmt(m.model_mops),
               harness::fmt(m.avg_chunks_per_traversal, 2),
               harness::fmt(reads_per_op, 2), harness::fmt_pct(hit)});
  }
  t.print(std::cout);
  std::printf("\nbest p_chunk (modeled): %.1f (paper: ~1.0)\n", best_p);
  return 0;
}
