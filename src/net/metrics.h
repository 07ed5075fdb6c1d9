// The counters' exposition: the `stats` frame and the /metrics endpoint.
//
// Each stats struct — the scheduling service's counters and gauges
// (ServiceStats), the solve cache (CacheStats), the server's own
// connection/byte/frame counters (ServerCounters) and the write-ahead
// journal (JournalStats) — has exactly one field list, stat_fields(). Both
// renderers read those lists, so a field added there shows up in the
// `stats` frame and at `GET /metrics` alike (DESIGN.md §5 "Metrics").
//
// The series of a field is bagsched_<group>_<key>, plus _total for a
// counter; a key that already starts with its group's name (the journal's
// journal_bytes) is not prefixed twice.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "api/service.h"
#include "cache/solve_cache.h"
#include "net/protocol.h"

namespace bagsched::persist {
struct JournalStats;
}  // namespace bagsched::persist

namespace bagsched::net {

/// One exported number of a stats struct.
struct StatField {
  enum class Type { Counter, Gauge };
  const char* key;   ///< the `stats`-frame key, and the series' suffix
  Type type;
  const char* help;  ///< the series' HELP text
  std::variant<std::uint64_t, double> value;
};

std::vector<StatField> stat_fields(const api::ServiceStats& stats);
std::vector<StatField> stat_fields(const cache::CacheStats& stats);
std::vector<StatField> stat_fields(const ServerCounters& stats);
std::vector<StatField> stat_fields(const persist::JournalStats& stats);

/// {"type":"stats","service":{...},"cache":{...},"server":{...}}.
std::string stats_frame(const api::ServiceStats& service,
                        const cache::CacheStats& cache,
                        const ServerCounters& server);

/// The full exposition document (text/plain 0.0.4, HELP/TYPE lines
/// included). `journal` (optional — sched_server passes it when
/// --journal-dir is set) adds the journal's series.
std::string prometheus_text(const api::ServiceStats& service,
                            const cache::CacheStats& cache,
                            const ServerCounters& server,
                            const persist::JournalStats* journal = nullptr);

/// Minimal HTTP/1.0 response envelope (Content-Length + close).
std::string http_response(int status, const std::string& content_type,
                          const std::string& body);

}  // namespace bagsched::net
