// Workload generation (§5.1).
//
// "Mixtures are represented as tuples [i, d, c] signifying a set of random
//  operations with a probability of i% Inserts, d% Deletes, and c% Contains.
//  ...  The operation type and keys for each entry are generated using
//  uniform random functions. ...  The initial structure on which the
//  mixed-operation tests are performed contains a random set of keys, exactly
//  half the size of the key range."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace gfsl::harness {

struct Mix {
  int insert_pct;
  int delete_pct;
  int contains_pct;

  std::string name() const;
};

/// Parse a `--mix i,d,c` value: three percentages summing to 100.  Throws
/// std::invalid_argument otherwise.
Mix parse_mix(const std::string& s);

/// The four mixed-op distributions of Figures 5.2/5.3 …
inline constexpr Mix kMix_1_1_98{1, 1, 98};
inline constexpr Mix kMix_5_5_90{5, 5, 90};
inline constexpr Mix kMix_10_10_80{10, 10, 80};
inline constexpr Mix kMix_20_20_60{20, 20, 60};
/// … and the single-op-type tests of Figure 5.4.
inline constexpr Mix kInsertOnly{100, 0, 0};
inline constexpr Mix kDeleteOnly{0, 100, 0};
inline constexpr Mix kContainsOnly{0, 0, 100};
/// Pure churn: the steady-state insert/erase mix the reclamation soaks use
/// (live size stays near the prefill while every op allocates or retires).
inline constexpr Mix kMix_50_50_0{50, 50, 0};

enum class Prefill {
  Empty,      // Insert-only benchmark
  HalfRange,  // mixed-op benchmarks: a random half of the key range
  FullRange,  // Contains-only / Delete-only benchmarks
};

struct WorkloadConfig {
  Mix mix = kMix_10_10_80;
  std::uint64_t key_range = 1'000'000;
  std::uint64_t num_ops = 100'000;
  Prefill prefill = Prefill::HalfRange;
  std::uint64_t seed = 1;
  // M&C host-side tower heights (§5.1: the op array carries the level).
  double p_key = 0.5;
  int mc_max_height = 32;
};

/// The per-launch operation array.
std::vector<Op> generate_ops(const WorkloadConfig& cfg);

/// A config for `mix` over [1, range] with the mix's default prefill.
WorkloadConfig make_workload(const Mix& mix, std::uint64_t range,
                             std::uint64_t ops, std::uint64_t seed);

/// Sorted, distinct <key, value> prefill pairs per the config's Prefill mode.
std::vector<std::pair<Key, Value>> generate_prefill(const WorkloadConfig& cfg);

/// The prefill policy the paper pairs with each mix.
Prefill default_prefill(const Mix& mix);

/// Cut a `num_ops`-long op array into contiguous kernel launches of
/// `batch_size` ops (the last one may be short).  `batch_size` 0 means one
/// batch covering everything.  Returned as half-open [begin, end) ranges.
std::vector<std::pair<std::size_t, std::size_t>> batch_slices(
    std::size_t num_ops, std::size_t batch_size);

}  // namespace gfsl::harness
