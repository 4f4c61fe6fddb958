// Correctness checks for the benchmark's launches.
//
// The oracle holds the key set the structure must contain (a dense
// membership array over the key range) and checks every launch's result
// vector against it.  Each check returns the number of mismatched
// operations; the benchmark counts them as failed ops and exits nonzero.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/gfsl.h"

namespace perfbench {

class Oracle {
 public:
  Oracle(std::uint64_t key_range,
         const std::vector<std::pair<gfsl::Key, gfsl::Value>>& prefill);

  /// Per-op dispatch by concurrent teams: the interleaving is not
  /// reproducible, so only facts that hold under every interleaving are
  /// checked.  Per key, true inserts and true erases alternate, so their
  /// difference is the key's membership change (0 or +1 if it was absent,
  /// 0 or -1 if present).  A contains on a key no update touched returns the
  /// key's membership.  Afterwards the structure's bottom level must hold
  /// exactly the predicted key set (which implies size() == prefill + true
  /// inserts - true erases).
  std::uint64_t check_concurrent(const std::vector<gfsl::Op>& ops,
                                 const std::vector<std::uint8_t>& results,
                                 const gfsl::core::Gfsl& sl);

  /// Batched dispatch: batches preserve per-key submission order, so every
  /// outcome equals a sequential replay in submission order.  Checks each op
  /// exactly, then the structure's key set.
  std::uint64_t check_sequential(const std::vector<gfsl::Op>& ops,
                                 const std::vector<std::uint8_t>& results,
                                 const gfsl::core::Gfsl& sl);

  std::uint64_t size() const { return size_; }

 private:
  /// Compare sl.collect() with the predicted key set.
  std::uint64_t check_structure(const gfsl::core::Gfsl& sl) const;

  std::vector<std::uint8_t> present_;  // indexed by key, [0, range]
  std::vector<std::int32_t> net_;      // scratch: per-key membership change
  std::vector<std::uint8_t> touched_;  // scratch: key saw an update this launch
  std::uint64_t size_ = 0;
};

}  // namespace perfbench
