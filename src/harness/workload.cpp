#include "harness/workload.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "common/random.h"

namespace gfsl::harness {

std::string Mix::name() const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "[%d,%d,%d]", insert_pct, delete_pct,
                contains_pct);
  return buf;
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

Prefill default_prefill(const Mix& mix) {
  if (mix.insert_pct == 100) return Prefill::Empty;
  if (mix.contains_pct == 100 || mix.delete_pct == 100) {
    return Prefill::FullRange;
  }
  return Prefill::HalfRange;
}

WorkloadConfig make_workload(const Mix& mix, std::uint64_t range,
                             std::uint64_t ops, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.mix = mix;
  wl.key_range = range;
  wl.num_ops = ops;
  wl.prefill = default_prefill(mix);
  wl.seed = seed;
  return wl;
}

std::vector<Op> generate_ops(const WorkloadConfig& cfg) {
  if (cfg.mix.insert_pct + cfg.mix.delete_pct + cfg.mix.contains_pct != 100) {
    throw std::invalid_argument("operation mix must sum to 100");
  }
  if (cfg.key_range == 0 || cfg.key_range > MAX_USER_KEY) {
    throw std::invalid_argument("key range out of bounds");
  }
  Xoshiro256ss rng(derive_seed(cfg.seed, 0xA11));
  std::vector<Op> ops;
  ops.reserve(cfg.num_ops);
  for (std::uint64_t i = 0; i < cfg.num_ops; ++i) {
    Op op{};
    const auto dice = static_cast<int>(rng.below(100));
    if (dice < cfg.mix.insert_pct) {
      op.kind = OpKind::Insert;
    } else if (dice < cfg.mix.insert_pct + cfg.mix.delete_pct) {
      op.kind = OpKind::Delete;
    } else {
      op.kind = OpKind::Contains;
    }
    op.key = static_cast<Key>(1 + rng.below(cfg.key_range));
    op.value = 0;  // "Insert operations use NULL as the value" (§5.1)
    // Host-side tower height for M&C (geometric at p_key).
    int h = 1;
    while (h < cfg.mc_max_height && rng.bernoulli(cfg.p_key)) ++h;
    op.mc_height = static_cast<std::uint8_t>(h);
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::pair<Key, Value>> generate_prefill(const WorkloadConfig& cfg) {
  std::vector<std::pair<Key, Value>> out;
  if (cfg.prefill == Prefill::Empty) return out;

  if (cfg.prefill == Prefill::FullRange) {
    out.reserve(cfg.key_range);
    for (std::uint64_t k = 1; k <= cfg.key_range; ++k) {
      out.emplace_back(static_cast<Key>(k), Value{0});
    }
    return out;
  }

  // HalfRange: "a random set of keys, exactly half the size of the key
  // range".  Partial Fisher-Yates selects exactly range/2 distinct keys.
  Xoshiro256ss rng(derive_seed(cfg.seed, 0xF177));
  const std::uint64_t n = cfg.key_range;
  const std::uint64_t take = n / 2;
  std::vector<Key> keys(n);
  std::iota(keys.begin(), keys.end(), Key{1});
  for (std::uint64_t i = 0; i < take; ++i) {
    const std::uint64_t j = i + rng.below(n - i);
    std::swap(keys[i], keys[j]);
  }
  keys.resize(take);
  std::sort(keys.begin(), keys.end());
  out.reserve(take);
  for (const Key k : keys) out.emplace_back(k, Value{0});
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> batch_slices(
    std::size_t num_ops, std::size_t batch_size) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (num_ops == 0) return out;
  if (batch_size == 0) batch_size = num_ops;
  for (std::size_t begin = 0; begin < num_ops; begin += batch_size) {
    out.emplace_back(begin, std::min(num_ops, begin + batch_size));
  }
  return out;
}

}  // namespace gfsl::harness
