#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int Tracer::begin(const char* name, long long request, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, now_ns(), -1, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

void Tracer::end_after(int span, double seconds) {
  if (span < 0) return;
  Span& open = spans_[static_cast<std::size_t>(span)];
  open.end_ns = open.start_ns + static_cast<std::int64_t>(seconds * 1e9);
}

std::string Tracer::check_nesting() const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string where = std::string(span.name) + " (span " + std::to_string(i) +
                              ", request " + std::to_string(span.request) +
                              ")";
    if (span.end_ns < span.start_ns) return where + " is not closed";
    // Walk to the root: each ancestor must contain the span, and the root
    // (the request's wall time) must belong to the same request.
    int parent = span.parent;
    while (parent >= 0) {
      const Span& outer = spans_[static_cast<std::size_t>(parent)];
      if (outer.request != span.request) {
        return where + " has an ancestor of another request";
      }
      if (span.start_ns < outer.start_ns || span.end_ns > outer.end_ns) {
        return where + " is not inside " + outer.name;
      }
      parent = outer.parent;
    }
  }
  return {};
}

std::map<std::string, Tracer::Total> Tracer::totals() const {
  std::map<std::string, Total> totals;
  for (const Span& span : spans_) {
    Total& total = totals[span.name];
    ++total.count;
    total.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return totals;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
}

}  // namespace perfbench
