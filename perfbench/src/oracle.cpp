#include "oracle.h"

#include <cstdlib>

namespace perfbench {

using gfsl::Key;
using gfsl::Op;
using gfsl::OpKind;

Oracle::Oracle(std::uint64_t key_range,
               const std::vector<std::pair<Key, gfsl::Value>>& prefill)
    : present_(key_range + 1, 0), net_(key_range + 1, 0),
      touched_(key_range + 1, 0) {
  for (const auto& kv : prefill) present_[kv.first] = 1;
  size_ = prefill.size();
}

std::uint64_t Oracle::check_concurrent(const std::vector<Op>& ops,
                                       const std::vector<std::uint8_t>& results,
                                       const gfsl::core::Gfsl& sl) {
  std::uint64_t bad = 0;
  std::vector<Key> keys;
  for (const Op& op : ops) {
    if (op.kind == OpKind::Contains || touched_[op.key] != 0) continue;
    touched_[op.key] = 1;
    keys.push_back(op.key);
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool r = results[i] != 0;
    switch (op.kind) {
      case OpKind::Insert: net_[op.key] += r ? 1 : 0; break;
      case OpKind::Delete: net_[op.key] -= r ? 1 : 0; break;
      case OpKind::Contains:
        if (touched_[op.key] == 0 && r != (present_[op.key] != 0)) ++bad;
        break;
    }
  }
  for (const Key k : keys) {
    const std::int32_t after = present_[k] + net_[k];
    if (after < 0 || after > 1) {
      bad += static_cast<std::uint64_t>(std::abs(net_[k]));
    } else {
      size_ = size_ - present_[k] + static_cast<std::uint64_t>(after);
      present_[k] = static_cast<std::uint8_t>(after);
    }
    net_[k] = 0;
    touched_[k] = 0;
  }
  return bad + check_structure(sl);
}

std::uint64_t Oracle::check_sequential(const std::vector<Op>& ops,
                                       const std::vector<std::uint8_t>& results,
                                       const gfsl::core::Gfsl& sl) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    std::uint8_t& p = present_[op.key];
    bool expect = false;
    switch (op.kind) {
      case OpKind::Insert:
        expect = p == 0;
        if (expect) ++size_;
        p = 1;
        break;
      case OpKind::Delete:
        expect = p != 0;
        if (expect) --size_;
        p = 0;
        break;
      case OpKind::Contains: expect = p != 0; break;
    }
    if ((results[i] != 0) != expect) ++bad;
  }
  return bad + check_structure(sl);
}

std::uint64_t Oracle::check_structure(const gfsl::core::Gfsl& sl) const {
  std::uint64_t bad = 0;
  std::uint64_t n = 0;
  Key prev = 0;
  for (const auto& kv : sl.collect()) {
    const Key k = kv.first;
    if (k <= prev || k >= present_.size() || present_[k] == 0) ++bad;
    prev = k;
    ++n;
  }
  // Keys the oracle holds but the structure lost.
  const std::uint64_t good = n - bad;
  if (good < size_) bad += size_ - good;
  return bad;
}

}  // namespace perfbench
