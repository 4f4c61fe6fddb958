// Set-associative LRU cache simulator standing in for the GTX 970's L2.
//
// The evaluation's central effect (§5.3) is cache residency: "In the smaller
// range (10K), the entire structure fits into the L2 cache in both
// implementations ... in larger key ranges, M&C requires frequent uncoalesced
// accesses to the global memory that causes a sharp degradation".  We model
// that with the thesis's own L2 geometry: 1.75 MB, 128 B lines (the memory
// transaction granularity from §2.2).
//
// Each set carries its own lock, LRU clock and hit/miss tally, the way the
// GPU's address-sliced L2 serves each slice's lines on their own: teams on
// separate host threads that touch different sets never wait on each other.
// LRU order only ever compares stamps within one set, so a per-set clock
// picks the same victims as one global clock would.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace gfsl::device {

struct CacheConfig {
  std::uint64_t capacity_bytes = 1792ull * 1024;  // 1.75 MB (GTX 970 L2)
  std::uint32_t line_bytes = 128;                 // transaction granularity
  std::uint32_t associativity = 16;
};

class CacheSim {
 public:
  explicit CacheSim(const CacheConfig& cfg = CacheConfig{});

  /// Access one cache line by byte address; returns true on hit.
  /// Thread-safe: only the line's set is locked, so host threads touching
  /// different sets proceed in parallel.
  bool access(std::uint64_t byte_addr);

  /// Drop all cached lines (used between kernel launches).  Locks one set
  /// at a time.
  void invalidate_all();

  /// Sums of the per-set tallies; race-free, and exact once accesses stop.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  const CacheConfig& config() const { return cfg_; }
  std::uint32_t num_sets() const { return num_sets_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use stamp from the set's clock; 0 = empty
  };

  /// Test-and-test-and-set lock: a set's critical section is a few dozen
  /// instructions, far shorter than a futex round trip.
  class SpinLock {
   public:
    void lock();
    void unlock() { held_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool> held_{false};
  };

  /// One set's lock, LRU clock and tally, on a cache line of its own.
  struct alignas(64) SetState {
    SpinLock mu;
    std::uint64_t clock = 0;  // guarded by mu
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::vector<Way> ways_;  // num_sets_ * associativity, row-major by set
  std::unique_ptr<SetState[]> sets_;
};

}  // namespace gfsl::device
