// In-memory spans for the traced in-process replay. The benchmark opens a
// span around each call it makes into a layer (name, start, end, parent,
// request id); nothing inside the library is instrumented. Spans stay in
// memory until the run ends, then per-name totals feed the per-layer
// metrics and the whole list can be written out as JSON lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into Tracer::spans(), -1 = root
  long long request = -1;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and reads no clock, so the same
  /// replay loop run untraced prices the tracing overhead.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (-1 when disabled).
  int begin(const char* name, long long request, int parent = -1);
  void end(int span);
  /// Closes a span `seconds` after it opened, for work timed elsewhere.
  void end_after(int span, double seconds);

  /// Times `body` as one span.
  template <typename Body>
  auto scoped(const char* name, long long request, int parent, Body&& body) {
    const int span = begin(name, request, parent);
    struct Closer {
      Tracer* tracer;
      int span;
      ~Closer() { tracer->end(span); }
    } closer{this, span};
    return body();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Every span closed, every child inside its parent, and every span
  /// inside its request's root span. Empty when they nest; else the first
  /// violation.
  std::string check_nesting() const;

  /// Per span name: number of spans and their total duration in seconds.
  struct Total {
    std::uint64_t count = 0;
    double seconds = 0.0;
    double mean_us() const { return count ? seconds * 1e6 / count : 0.0; }
  };
  std::map<std::string, Total> totals() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  void write_jsonl(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
