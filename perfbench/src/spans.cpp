#include "spans.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>

#include "obs/json_util.h"

namespace perfbench {

void Tracer::absorb(const std::vector<Span>& spans) {
  if (enabled_) spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void Tracer::write_json(std::ostream& os) const {
  // Self time = duration minus the union of the children's intervals
  // (children on parallel worker threads overlap each other).
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.begin_ns, s.end_ns);
  }
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (auto& [parent, iv] : children) {
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = iv.front().first, hi = iv.front().second;
    for (const auto& [b, e] : iv) {
      if (b > hi) {
        covered += hi - lo;
        lo = b;
        hi = e;
      } else {
        hi = std::max(hi, e);
      }
    }
    child_ns[parent] = covered + (hi - lo);
  }
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    const std::int64_t dur = s.end_ns - s.begin_ns;
    Totals& t = by_name[s.name];
    ++t.calls;
    t.total_ns += dur;
    const auto it = child_ns.find(s.id);
    t.self_ns += dur - (it == child_ns.end() ? 0 : it->second);

    os << (first ? "" : ",") << "\n{\"name\":";
    first = false;
    gfsl::obs::json_string(os, s.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"ts\":";
    gfsl::obs::json_number(os, static_cast<double>(s.begin_ns) / 1e3);
    os << ",\"dur\":";
    gfsl::obs::json_number(os, static_cast<double>(dur) / 1e3);
    os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n],\"summary\":{";
  first = true;
  for (const auto& [name, t] : by_name) {
    os << (first ? "" : ",") << "\n";
    first = false;
    gfsl::obs::json_string(os, name);
    os << ":{\"calls\":" << t.calls << ",\"total_s\":";
    gfsl::obs::json_number(os, static_cast<double>(t.total_ns) / 1e9);
    os << ",\"self_s\":";
    gfsl::obs::json_number(os, static_cast<double>(t.self_ns) / 1e9);
    os << "}";
  }
  os << "\n}}\n";
}

Scope::Scope(Tracer& t, const char* name) : t_(t) {
  s_.name = name;
  s_.parent = t_.current();
  if (t_.enabled()) {
    s_.id = t_.next_id();
    t_.push(s_.id);
  }
  s_.begin_ns = t_.now_ns();
}

double Scope::stop() {
  if (open_) {
    open_ = false;
    s_.end_ns = t_.now_ns();
    if (t_.enabled()) {
      t_.pop();
      t_.add(s_);
    }
  }
  return static_cast<double>(s_.end_ns - s_.begin_ns) / 1e9;
}

}  // namespace perfbench
