// Deterministic fault-injection plane for the device layer (DESIGN.md §15).
//
// The paper's target hardware is a consumer GTX-970: ECC-less GDDR5 where a
// cosmic-ray bit flip lands in live data and nothing at the device level
// notices.  The FaultPlane models that adversary *deterministically*: each
// durable section of the region (chunk slots, generation stamps, free-list
// linkage, intent descriptors, the superblock) registers its byte window
// here, and `inject()` picks a victim 8-byte word from a seed-driven PRNG
// and applies one fault kind:
//
//   * kBitFlip       — one bit inverted in the victim word (classic soft
//                      error in an idle cell).
//   * kMultiBitFlip  — 2–4 bits inverted, possibly spanning adjacent bytes
//                      (a row-disturb burst; defeats parity-per-byte
//                      schemes, still caught by CRC32C).
//   * kTornEntry     — half of an 8-byte entry replaced with pseudo-random
//                      garbage (a 32-bit-granular store torn by power loss;
//                      the word is *plausible*, not obviously insane).
//   * kStuckWord     — a bit flip that *re-asserts itself*: the plane
//                      remembers (address, corrupt value) and rewrites it on
//                      every `reassert()` tick, modeling a failed cell that
//                      repair cannot durably overwrite.
//   * kDroppedBarrier— the n-th persist barrier after arming is silently
//                      skipped (no fence, no sync), modeling a write-combining
//                      buffer that lied about durability.
//
// Everything is a pure function of (section windows, spec.seed): the same
// build, workload, and spec corrupts the same bit of the same word, which is
// what lets `gfsl_fuzz --corrupt-sweep` print a one-line repro for any
// failure.  The plane never allocates after arming and injection is plain
// stores — it is safe to call from the harness between quiesced phases or
// (for reassert) from the traffic path.
//
// Detached behavior: a null FaultPlane pointer anywhere (DeviceMemory,
// PersistRegion) is the default and costs one branch; no section window is
// consulted and no fault can fire.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gfsl::device {

enum class FaultSection : std::uint8_t {
  kChunkData = 0,    // chunk slot payload (DATA entries of sealed chunks)
  kFreeList = 1,     // free-list linkage words
  kIntents = 2,      // published intent descriptors
  kSuperblock = 3,   // region superblock page
  kGenerations = 4,  // per-chunk generation stamps
};
constexpr int kFaultSectionCount = 5;

enum class FaultKind : std::uint8_t {
  kBitFlip = 0,
  kMultiBitFlip = 1,
  kTornEntry = 2,
  kStuckWord = 3,
  kDroppedBarrier = 4,
};
constexpr int kFaultKindCount = 5;

const char* fault_section_name(FaultSection s);
const char* fault_kind_name(FaultKind k);
/// Parses the names fault_section_name/fault_kind_name print; returns false
/// on unknown input.
bool parse_fault_section(const std::string& s, FaultSection* out);
bool parse_fault_kind(const std::string& s, FaultKind* out);

struct FaultSpec {
  FaultSection section = FaultSection::kChunkData;
  FaultKind kind = FaultKind::kBitFlip;
  std::uint64_t seed = 1;
};

/// What one injection did — enough to reproduce and to assert detection.
struct FaultReport {
  bool injected = false;          // false: no window / empty window / barrier-arm only
  FaultSection section = FaultSection::kChunkData;
  FaultKind kind = FaultKind::kBitFlip;
  std::uint64_t seed = 0;
  const void* address = nullptr;  // victim word (8-byte aligned)
  std::uint64_t offset = 0;       // byte offset of the word within its window
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  std::string describe() const;
};

class FaultPlane {
 public:
  FaultPlane() = default;
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // --- Arming ---------------------------------------------------------------

  /// Registers (or replaces) the byte window injections against `s` draw
  /// their victim word from.  `bytes` rounds down to whole 8-byte words.
  void map_section(FaultSection s, void* base, std::size_t bytes);
  /// True when `s` has a non-empty window.
  bool armed(FaultSection s) const;

  // --- Injection ------------------------------------------------------------

  /// Injects one fault per the spec: picks a victim word in the section's
  /// window from splitmix64(seed) and applies the kind.  kDroppedBarrier
  /// ignores the window and arms the next barrier to be dropped instead.
  /// Returns a report with injected=false when the section has no window.
  FaultReport inject(const FaultSpec& spec);

  /// Word-targeted variant for callers that already chose the victim (e.g.
  /// "corrupt this sealed chunk's data slots"): `word` must be 8-byte
  /// aligned; only the kind + seed drive which bits are damaged.
  FaultReport inject_at(FaultKind kind, void* word, std::uint64_t seed);

  // --- Stuck-at cells -------------------------------------------------------

  /// Rewrites every stuck word back to its corrupt value (the failed cell
  /// re-asserting itself).  Called from DeviceMemory's traffic tick and
  /// directly by harnesses between phases.
  void reassert();
  std::size_t stuck_words() const { return stuck_.size(); }
  void clear_stuck() { stuck_.clear(); }

  /// Traffic tick: every kReassertPeriod calls, reassert().  Cheap enough
  /// for DeviceMemory's store paths (one counter decrement when attached).
  void on_traffic() {
    if (stuck_.empty()) return;
    if (traffic_.fetch_add(1, std::memory_order_relaxed) % kReassertPeriod ==
        kReassertPeriod - 1) {
      reassert();
    }
  }

  // --- Dropped barriers -----------------------------------------------------

  /// Arms the next `count` barriers to be dropped (consumed by
  /// PersistRegion::barrier through consume_barrier_drop()).
  void arm_barrier_drops(std::uint64_t count) {
    drop_budget_.store(count, std::memory_order_relaxed);
  }
  /// True => the caller must skip this barrier's fence/sync.
  bool consume_barrier_drop() {
    std::uint64_t b = drop_budget_.load(std::memory_order_relaxed);
    while (b > 0) {
      if (drop_budget_.compare_exchange_weak(b, b - 1,
                                             std::memory_order_relaxed)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }
  std::uint64_t barriers_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  static constexpr std::uint64_t kReassertPeriod = 64;

 private:
  struct Window {
    void* base = nullptr;
    std::size_t words = 0;  // 8-byte words
  };
  struct Stuck {
    std::uint64_t* addr = nullptr;
    std::uint64_t value = 0;
  };

  Window windows_[kFaultSectionCount]{};
  std::vector<Stuck> stuck_;
  std::atomic<std::uint64_t> traffic_{0};
  std::atomic<std::uint64_t> drop_budget_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace gfsl::device
