#include "device/device_memory.h"

namespace gfsl::device {

MemStats& MemStats::operator+=(const MemStats& o) {
  warp_reads += o.warp_reads;
  warp_writes += o.warp_writes;
  lane_reads += o.lane_reads;
  lane_writes += o.lane_writes;
  transactions += o.transactions;
  l2_hits += o.l2_hits;
  dram_transactions += o.dram_transactions;
  atomics += o.atomics;
  bytes_moved += o.bytes_moved;
  prefetches += o.prefetches;
  return *this;
}

MemStats MemStats::operator-(const MemStats& o) const {
  MemStats r = *this;
  r.warp_reads -= o.warp_reads;
  r.warp_writes -= o.warp_writes;
  r.lane_reads -= o.lane_reads;
  r.lane_writes -= o.lane_writes;
  r.transactions -= o.transactions;
  r.l2_hits -= o.l2_hits;
  r.dram_transactions -= o.dram_transactions;
  r.atomics -= o.atomics;
  r.bytes_moved -= o.bytes_moved;
  r.prefetches -= o.prefetches;
  return r;
}

DeviceMemory::DeviceMemory(const CacheConfig& cfg)
    : cache_(cfg), accounting_(true) {}

DeviceMemory::StatShard& DeviceMemory::shard() {
  // Slots are handed out round-robin as threads first touch any device, so
  // up to kStatShards concurrent threads each own a shard.
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kStatShards;
  return shards_[slot];
}

namespace {

void add(std::atomic<std::uint64_t>& c, std::uint64_t n) {
  if (n != 0) c.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

void DeviceMemory::record_contiguous(std::uint64_t addr, std::uint32_t bytes,
                                     Counter class_counter) {
  if (!accounting()) return;
  const std::uint32_t line = cache_.config().line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + bytes - 1) / line;

  std::uint64_t hits = 0;
  for (std::uint64_t l = first; l <= last; ++l) {
    if (cache_.access(l * line)) ++hits;
  }
  StatShard& s = shard();
  add(s.*class_counter, 1);
  add(s.l2_hits, hits);
  add(s.dram_transactions, last - first + 1 - hits);
}

void DeviceMemory::atomic_rmw(std::uint64_t addr) {
  if (!accounting()) return;
  // An atomic still moves its line through L2 (atomics resolve in L2 on
  // Maxwell); classify it like a one-line transaction.
  const std::uint32_t line = cache_.config().line_bytes;
  const bool hit = cache_.access((addr / line) * line);
  StatShard& s = shard();
  add(s.atomics, 1);
  add(hit ? s.l2_hits : s.dram_transactions, 1);
}

void DeviceMemory::prefetch(std::uint64_t addr, std::uint32_t bytes) {
  if (!accounting()) return;
  add(shard().prefetches, 1);
  const std::uint32_t line = cache_.config().line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = (addr + bytes - 1) / line;
  for (std::uint64_t l = first; l <= last; ++l) {
    // Touch the line through the L2 model so the demand read that follows
    // classifies as a hit; no transaction or byte accounting — a prefetch
    // rides otherwise-idle bandwidth in the modeled machine.
    cache_.access(l * line);
  }
}

MemStats DeviceMemory::snapshot() const {
  MemStats s;
  for (const StatShard& sh : shards_) {
    s.warp_reads += sh.warp_reads.load(std::memory_order_relaxed);
    s.warp_writes += sh.warp_writes.load(std::memory_order_relaxed);
    s.lane_reads += sh.lane_reads.load(std::memory_order_relaxed);
    s.lane_writes += sh.lane_writes.load(std::memory_order_relaxed);
    s.l2_hits += sh.l2_hits.load(std::memory_order_relaxed);
    s.dram_transactions += sh.dram_transactions.load(std::memory_order_relaxed);
    s.atomics += sh.atomics.load(std::memory_order_relaxed);
    s.prefetches += sh.prefetches.load(std::memory_order_relaxed);
  }
  s.transactions = s.l2_hits + s.dram_transactions;
  s.bytes_moved = s.transactions * cache_.config().line_bytes;
  return s;
}

void DeviceMemory::reset_stats() {
  for (StatShard& sh : shards_) {
    for (Counter c : {&StatShard::warp_reads, &StatShard::warp_writes,
                      &StatShard::lane_reads, &StatShard::lane_writes,
                      &StatShard::l2_hits, &StatShard::dram_transactions,
                      &StatShard::atomics, &StatShard::prefetches}) {
      (sh.*c).store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace gfsl::device
