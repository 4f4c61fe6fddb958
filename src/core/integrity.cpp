#include "core/integrity.h"

#include <bit>
#include <vector>

namespace gfsl::core {

namespace {

/// CRC32C (Castagnoli, reflected 0x82F63B78) — the iSCSI/SSE4.2 polynomial.
/// Table-driven byte-at-a-time: the inner loop is a load+xor+shift, fast
/// enough for a dsize<=30 stamp and free of any ISA dependency.
struct Crc32cTable {
  std::uint32_t t[256];
  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? (c >> 1) ^ 0x82f63b78u : c >> 1;
      }
      t[i] = c;
    }
  }
};

std::uint32_t crc32c(const std::uint64_t* words, std::size_t count) {
  static const Crc32cTable table;
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t w = words[i];
    for (int b = 0; b < 8; ++b) {
      c = table.t[(c ^ static_cast<std::uint32_t>(w)) & 0xffu] ^ (c >> 8);
      w >>= 8;
    }
  }
  return c ^ 0xffffffffu;
}

/// Position-salted XOR fold: each word is rotated by its slot index before
/// folding, so two swapped entries (which a plain XOR cannot see) change the
/// digest; the 64->32 fold keeps both halves contributing.
std::uint32_t xor_fold(const std::uint64_t* words, std::size_t count) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= std::rotl(words[i] + 0x165667b19e3779f9ull * (i + 1),
                   static_cast<int>((i * 7 + 1) & 63));
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

void IntegritySidecar::bind(std::uint32_t capacity) {
  if (capacity == capacity_ && seal_ != nullptr) return;
  capacity_ = capacity;
  seal_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
  suspect_ = std::make_unique<std::atomic<std::uint8_t>[]>(capacity);
  repairs_ = std::make_unique<std::atomic<std::uint32_t>[]>(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    seal_[i].store(0, std::memory_order_relaxed);
    suspect_[i].store(0, std::memory_order_relaxed);
    repairs_[i].store(0, std::memory_order_relaxed);
  }
  sealed_count_.store(0, std::memory_order_relaxed);
  suspects_.store(0, std::memory_order_relaxed);
}

std::uint32_t IntegritySidecar::checksum(const std::uint64_t* words,
                                         std::size_t count) const {
  return algo_ == SealAlgo::kCrc32c ? crc32c(words, count)
                                    : xor_fold(words, count);
}

std::uint32_t IntegritySidecar::compute(const std::atomic<KV>* entries,
                                        int dsize) const {
  std::uint64_t buf[64];
  const int n = dsize <= 64 ? dsize : 64;
  for (int i = 0; i < n; ++i) {
    buf[i] = entries[i].load(std::memory_order_acquire);
  }
  return checksum(buf, static_cast<std::size_t>(n));
}

void IntegritySidecar::stamp(ChunkRef ref, std::uint32_t gen,
                             const std::atomic<KV>* entries, int dsize) {
  const std::uint64_t s = pack_seal(gen, compute(entries, dsize));
  // Release: the seal must be visible before the lock-release store that
  // follows at the call site, so an unlocked observation implies a current
  // seal.
  const std::uint64_t prev = seal_[ref].exchange(s, std::memory_order_release);
  if ((prev & 1u) == 0) sealed_count_.fetch_add(1, std::memory_order_relaxed);
  stamped_.fetch_add(1, std::memory_order_relaxed);
}

void IntegritySidecar::unseal(ChunkRef ref) {
  const std::uint64_t prev = seal_[ref].exchange(0, std::memory_order_release);
  if ((prev & 1u) != 0) sealed_count_.fetch_sub(1, std::memory_order_relaxed);
  reset_repairs(ref);
  clear_suspect(ref);
}

bool IntegritySidecar::verify_exact(ChunkRef ref, std::uint32_t gen,
                                    const std::atomic<KV>* entries,
                                    int dsize) {
  const std::uint64_t s = seal_[ref].load(std::memory_order_acquire);
  if ((s & 1u) == 0 || seal_gen(s) != (gen & kGenMask)) return true;
  verified_.fetch_add(1, std::memory_order_relaxed);
  if (seal_crc(s) == compute(entries, dsize)) return true;
  mismatched_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool IntegritySidecar::verify_snapshot(ChunkRef ref, std::uint32_t gen,
                                       const KV* data, int dsize) {
  const std::uint64_t s = seal_[ref].load(std::memory_order_acquire);
  if ((s & 1u) == 0 || seal_gen(s) != (gen & kGenMask)) return true;
  verified_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t buf[64];
  const int n = dsize <= 64 ? dsize : 64;
  for (int i = 0; i < n; ++i) buf[i] = data[i];
  if (seal_crc(s) == checksum(buf, static_cast<std::size_t>(n))) return true;
  mismatched_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool IntegritySidecar::flag_suspect(ChunkRef ref) {
  if (suspect_[ref].exchange(1, std::memory_order_acq_rel) == 0) {
    suspects_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void IntegritySidecar::clear_suspect(ChunkRef ref) {
  if (suspect_[ref].exchange(0, std::memory_order_acq_rel) != 0) {
    suspects_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace gfsl::core
