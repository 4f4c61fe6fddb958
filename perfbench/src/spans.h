// Benchmark-side tracing: one span around every call the benchmark makes
// into a layer of the program (harness, core, sched, simt, device, model).
//
// Spans live in memory while the benchmark runs and are written out once at
// the end as Chrome trace-event JSON.  The program itself is not
// instrumented; a span covers a whole public call, so a layer's self time is
// its span minus the child spans the benchmark opened inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     // "<layer>.<function>", a string literal
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = top level
  int thread = 0;            // 0 = main thread, w + 1 = worker w
  std::int64_t begin_ns = 0; // since the tracer was created
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::uint32_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Innermost open main-thread span (the parent of new spans), 0 if none.
  std::uint32_t current() const { return open_.empty() ? 0 : open_.back(); }

  /// Main thread only.
  void push(std::uint32_t id) { open_.push_back(id); }
  void pop() { open_.pop_back(); }
  void add(const Span& s) {
    if (enabled_) spans_.push_back(s);
  }
  /// Fold a worker thread's spans in after the worker has been joined.
  void absorb(const std::vector<Span>& spans);

  /// Chrome trace-event JSON ("traceEvents") plus a per-name summary of
  /// calls, total and self seconds.
  void write_json(std::ostream& os) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint32_t> ids_{0};
  std::vector<std::uint32_t> open_;
  std::vector<Span> spans_;
};

/// Main-thread span.  Always times its interval (set-up time is an
/// end-to-end metric of the untraced run too) but records a Span only when
/// the tracer is enabled.
class Scope {
 public:
  Scope(Tracer& t, const char* name);
  ~Scope() { stop(); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close the span now; returns its length in seconds.  Idempotent.
  double stop();

 private:
  Tracer& t_;
  Span s_;
  bool open_ = true;
};

}  // namespace perfbench
