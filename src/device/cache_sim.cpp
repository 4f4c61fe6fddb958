#include "device/cache_sim.h"

#include <mutex>
#include <stdexcept>
#include <thread>

namespace gfsl::device {

void CacheSim::SpinLock::lock() {
  for (unsigned spins = 0; held_.exchange(true, std::memory_order_acquire);) {
    while (held_.load(std::memory_order_relaxed)) {
      // A holder preempted mid-section would otherwise cost a whole slice.
      if (++spins % 256 == 0) std::this_thread::yield();
    }
  }
}

CacheSim::CacheSim(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.line_bytes == 0 || (cfg_.line_bytes & (cfg_.line_bytes - 1)) != 0) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (cfg_.associativity == 0) {
    throw std::invalid_argument("associativity must be positive");
  }
  const std::uint64_t lines = cfg_.capacity_bytes / cfg_.line_bytes;
  num_sets_ = static_cast<std::uint32_t>(lines / cfg_.associativity);
  if (num_sets_ == 0) num_sets_ = 1;
  ways_.assign(static_cast<std::size_t>(num_sets_) * cfg_.associativity, Way{});
  sets_ = std::make_unique<SetState[]>(num_sets_);
}

bool CacheSim::access(std::uint64_t byte_addr) {
  const std::uint64_t line = byte_addr / cfg_.line_bytes;
  const std::uint32_t set = static_cast<std::uint32_t>(line % num_sets_);
  const std::uint64_t tag = line / num_sets_;

  SetState& st = sets_[set];
  std::lock_guard<SpinLock> lk(st.mu);
  const std::uint64_t now = ++st.clock;  // starts at 1: 0 marks an empty way
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.associativity];

  Way* victim = base;
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    Way& way = base[w];
    if (way.lru != 0 && way.tag == tag) {
      way.lru = now;
      // Written only under st.mu, so a plain load+store is enough; the
      // atomic only makes hits() safe to read concurrently.
      st.hits.store(st.hits.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
      return true;
    }
    if (way.lru == 0) {
      victim = &way;  // prefer an empty way over evicting
    } else if (victim->lru != 0 && way.lru < victim->lru) {
      victim = &way;
    }
  }

  victim->tag = tag;
  victim->lru = now;
  st.misses.store(st.misses.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  return false;
}

void CacheSim::invalidate_all() {
  for (std::uint32_t s = 0; s < num_sets_; ++s) {
    std::lock_guard<SpinLock> lk(sets_[s].mu);
    Way* base = &ways_[static_cast<std::size_t>(s) * cfg_.associativity];
    for (std::uint32_t w = 0; w < cfg_.associativity; ++w) base[w].lru = 0;
  }
}

std::uint64_t CacheSim::hits() const {
  std::uint64_t n = 0;
  for (std::uint32_t s = 0; s < num_sets_; ++s) {
    n += sets_[s].hits.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t CacheSim::misses() const {
  std::uint64_t n = 0;
  for (std::uint32_t s = 0; s < num_sets_; ++s) {
    n += sets_[s].misses.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace gfsl::device
