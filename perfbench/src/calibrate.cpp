#include "calibrate.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/random.h"
#include "device/device_memory.h"
#include "sched/batch_dispatch.h"
#include "simt/team.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keeps loop results observable so the timed calls are not optimized away.
std::atomic<std::uint64_t> g_sink{0};

constexpr std::size_t kVectors = 1024;

/// Lane vectors of consecutive op keys, one per group of team_size ops.
std::vector<gfsl::simt::LaneVec<gfsl::Key>> key_vectors(
    const std::vector<gfsl::Op>& ops, int team_size) {
  std::vector<gfsl::simt::LaneVec<gfsl::Key>> out(kVectors);
  for (std::size_t v = 0; v < kVectors; ++v) {
    for (int lane = 0; lane < team_size; ++lane) {
      out[v][lane] =
          ops[(v * static_cast<std::size_t>(team_size) +
               static_cast<std::size_t>(lane)) % ops.size()].key;
    }
  }
  return out;
}

}  // namespace

double ballot_ns(const std::vector<gfsl::Op>& ops, int team_size) {
  const auto keys = key_vectors(ops, team_size);
  std::vector<gfsl::simt::LaneVec<bool>> preds(kVectors);
  for (std::size_t v = 0; v < kVectors; ++v) {
    const gfsl::Key pivot = ops[v % ops.size()].key;
    for (int lane = 0; lane < team_size; ++lane) {
      preds[v][lane] = keys[v][lane] < pivot;
    }
  }
  gfsl::simt::Team team(team_size, 0, 1);
  constexpr std::size_t kCalls = 1u << 21;
  std::uint32_t acc = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    acc += team.ballot(preds[i % kVectors]);
  }
  const double s = seconds_since(t0);
  g_sink.fetch_add(acc, std::memory_order_relaxed);
  return s * 1e9 / static_cast<double>(kCalls);
}

double shfl_ns(const std::vector<gfsl::Op>& ops, int team_size) {
  const auto keys = key_vectors(ops, team_size);
  gfsl::simt::Team team(team_size, 0, 1);
  constexpr std::size_t kCalls = 1u << 23;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const auto& v = keys[i % kVectors];
    acc += team.shfl(v, static_cast<int>(v[0] % static_cast<unsigned>(team_size)));
  }
  const double s = seconds_since(t0);
  g_sink.fetch_add(acc, std::memory_order_relaxed);
  return s * 1e9 / static_cast<double>(kCalls);
}

double warp_read_ns(std::uint64_t footprint_chunks, std::uint32_t chunk_bytes,
                    int threads, std::uint64_t seed) {
  constexpr std::size_t kCalls = 200'000;  // per thread
  gfsl::device::DeviceMemory mem;
  std::vector<std::vector<std::uint64_t>> addrs(
      static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    gfsl::Xoshiro256ss rng(gfsl::derive_seed(seed, 0xAD0 + t));
    auto& a = addrs[static_cast<std::size_t>(t)];
    a.resize(kCalls);
    for (auto& x : a) {
      x = rng.below(std::max<std::uint64_t>(footprint_chunks, 1)) * chunk_bytes;
    }
  }
  std::vector<double> per_call(static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        // Start together so the threads contend for the whole loop.
        ready.fetch_add(1);
        while (ready.load() < threads) std::this_thread::yield();
        const auto& a = addrs[static_cast<std::size_t>(t)];
        const auto t0 = Clock::now();
        for (const std::uint64_t x : a) mem.warp_read(x, chunk_bytes);
        per_call[static_cast<std::size_t>(t)] =
            seconds_since(t0) * 1e9 / static_cast<double>(kCalls);
      });
    }
    for (auto& th : pool) th.join();
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

double plan_shards_ns_per_op(const std::vector<gfsl::Op>& ops,
                             std::size_t batch_size, int teams) {
  constexpr int kPasses = 4;
  std::uint64_t shards = 0;
  std::size_t planned = 0;
  const auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) {
    for (std::size_t b = 0; b < ops.size(); b += batch_size) {
      const std::size_t n = std::min(batch_size, ops.size() - b);
      shards += gfsl::sched::plan_shards(ops.data() + b, n, teams).shards.size();
      planned += n;
    }
  }
  const double s = seconds_since(t0);
  g_sink.fetch_add(shards, std::memory_order_relaxed);
  return s * 1e9 / static_cast<double>(planned);
}

}  // namespace perfbench
