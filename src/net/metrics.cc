#include "net/metrics.h"

#include "persist/journal.h"
#include "util/json.h"

namespace bagsched::net {

namespace {

constexpr auto kCounter = StatField::Type::Counter;
constexpr auto kGauge = StatField::Type::Gauge;

util::Json to_json(const std::vector<StatField>& fields) {
  util::Json json = util::Json::object();
  for (const StatField& field : fields) {
    std::visit([&](auto value) { json.set(field.key, value); }, field.value);
  }
  return json;
}

void append_series(std::string& out, const std::string& group,
                   const std::vector<StatField>& fields) {
  for (const StatField& field : fields) {
    std::string name = "bagsched_";
    const std::string key = field.key;
    if (key.rfind(group + "_", 0) != 0) name += group + "_";
    name += key;
    if (field.type == kCounter) name += "_total";
    out += "# HELP " + name + ' ' + field.help + "\n# TYPE " + name +
           (field.type == kCounter ? " counter\n" : " gauge\n") + name + ' ';
    std::visit([&](auto value) { out += std::to_string(value); },
               field.value);
    out += '\n';
  }
}

}  // namespace

std::vector<StatField> stat_fields(const api::ServiceStats& stats) {
  return {
      {"submitted", kCounter,
       "Ops accepted by the service queue: solves, session opens and deltas",
       stats.submitted},
      {"rejected", kCounter, "Requests shed at the max_queue_depth cap",
       stats.rejected},
      {"queue_depth", kGauge,
       "Ops waiting to dispatch right now: for a slot, their session's FIFO "
       "turn or a running single-flight twin",
       std::uint64_t{stats.queue_depth}},
      {"active", kGauge, "Ops (solves and session ops) running right now",
       std::uint64_t{stats.active}},
      {"finished", kCounter, "Accepted requests that resolved",
       stats.finished},
      {"cache_hits", kCounter, "Requests served from the solve cache",
       stats.cache_hits},
      {"cache_rounded_hits", kCounter,
       "Cache hits through the eps-rounded key", stats.cache_rounded_hits},
      {"dedup_shared", kCounter,
       "Single-flight twins resolved from another request's solve",
       stats.dedup_shared},
      {"queue_wait_ewma_seconds", kGauge,
       "EWMA of request queue wait in seconds (brown-out signal)",
       stats.queue_wait_ewma_seconds},
      {"sessions_opened", kCounter, "Online schedule sessions opened",
       stats.sessions_opened},
      {"sessions_closed", kCounter, "Online schedule sessions closed",
       stats.sessions_closed},
      {"open_sessions", kGauge, "Online schedule sessions open right now",
       std::uint64_t{stats.open_sessions}},
      {"session_deltas", kCounter,
       "Delta requests resolved by online sessions", stats.session_deltas},
      {"session_repaired", kCounter,
       "Deltas settled without a full solve (noop/repair/region)",
       stats.session_repaired},
      {"session_fresh", kCounter,
       "Deltas that fell through to a fresh portfolio solve",
       stats.session_fresh},
      {"sessions_restored", kCounter,
       "Sessions re-adopted from the journal at boot",
       stats.sessions_restored},
      {"session_duplicates", kCounter,
       "Deltas answered from the commit cache via expect_revision",
       stats.session_duplicates},
  };
}

std::vector<StatField> stat_fields(const cache::CacheStats& stats) {
  return {
      {"hits", kCounter, "Solve-cache lookup hits", stats.hits},
      {"misses", kCounter, "Solve-cache lookup misses", stats.misses},
      {"insertions", kCounter, "Solve-cache insertions", stats.insertions},
      {"evictions", kCounter, "Entries evicted to fit the byte budget",
       stats.evictions},
      {"oversized", kCounter,
       "Inserts skipped because the entry alone exceeds a shard's budget",
       stats.oversized},
      {"entries", kGauge, "Resident cache entries",
       std::uint64_t{stats.entries}},
      {"bytes", kGauge, "Approximate resident cache footprint in bytes",
       std::uint64_t{stats.bytes}},
  };
}

std::vector<StatField> stat_fields(const ServerCounters& stats) {
  return {
      {"connections_accepted", kCounter, "Client connections accepted",
       stats.connections_accepted},
      {"connections_active", kGauge, "Client connections open right now",
       stats.connections_active},
      {"frames_in", kCounter, "Protocol frames received", stats.frames_in},
      {"frames_out", kCounter, "Protocol frames sent", stats.frames_out},
      {"bytes_in", kCounter, "Bytes received from clients", stats.bytes_in},
      {"bytes_out", kCounter, "Bytes sent to clients", stats.bytes_out},
      {"parse_errors", kCounter, "Frames rejected by the JSON parser",
       stats.parse_errors},
      {"oversized_frames", kCounter,
       "Connections closed for exceeding the frame-size cap",
       stats.oversized_frames},
      {"submits", kCounter, "Submit frames admitted to the service",
       stats.submits},
      {"cancels", kCounter, "Cancel frames applied to an in-flight request",
       stats.cancels},
      {"metrics_requests", kCounter, "GET /metrics scrapes served",
       stats.metrics_requests},
      {"healthz_requests", kCounter, "GET /healthz probes served",
       stats.healthz_requests},
      {"disconnect_cancels", kCounter,
       "Orphaned solves cancelled after a client disconnect",
       stats.disconnect_cancels},
      {"slow_client_disconnects", kCounter,
       "Clients dropped for an overfull outbound buffer",
       stats.slow_client_disconnects},
      {"brownouts", kCounter,
       "Submits degraded to the brown-out solver under queue pressure",
       stats.brownouts},
      {"request_timeouts", kCounter,
       "Requests escalated to a timeout error by the budget watchdog",
       stats.request_timeouts},
      {"session_opens", kCounter,
       "open_session frames admitted to the service", stats.session_opens},
      {"session_deltas", kCounter, "delta frames routed to an open session",
       stats.session_deltas},
      {"session_closes", kCounter,
       "Sessions closed by close_session frames or disconnects",
       stats.session_closes},
      {"version_rejects", kCounter,
       "Frames rejected for declaring a newer proto_version",
       stats.version_rejects},
      {"session_resumes", kCounter, "Sessions reclaimed via resume_session",
       stats.session_resumes},
      {"resume_rejects", kCounter, "resume_session frames refused",
       stats.resume_rejects},
      {"sessions_orphaned", kCounter,
       "Sessions parked in the linger window after a disconnect",
       stats.sessions_orphaned},
      {"orphans_expired", kCounter,
       "Orphaned sessions closed because nobody resumed them",
       stats.orphans_expired},
      {"recovering_rejects", kCounter,
       "Frames refused while the journal replayed",
       stats.recovering_rejects},
  };
}

std::vector<StatField> stat_fields(const persist::JournalStats& stats) {
  return {
      {"records_appended", kCounter,
       "Records appended to the write-ahead journal", stats.records_appended},
      {"bytes_appended", kCounter, "Payload bytes appended to the journal",
       stats.bytes_appended},
      {"fsyncs", kCounter, "fsync calls issued by the journal", stats.fsyncs},
      {"snapshots", kCounter, "Snapshot compactions completed",
       stats.snapshots},
      {"snapshot_failures", kCounter,
       "Snapshot compactions abandoned (old journal kept)",
       stats.snapshot_failures},
      {"records_replayed", kCounter,
       "Records replayed from the journal at boot", stats.records_replayed},
      {"sessions_recovered", kCounter,
       "Sessions reconstructed from the journal at boot",
       stats.sessions_recovered},
      {"truncated_bytes", kCounter,
       "Torn-tail bytes truncated at journal open", stats.truncated_bytes},
      {"live_sessions", kGauge, "Sessions the journal currently tracks",
       stats.live_sessions},
      {"journal_bytes", kGauge, "Journal file size in bytes",
       stats.journal_bytes},
  };
}

std::string stats_frame(const api::ServiceStats& service,
                        const cache::CacheStats& cache,
                        const ServerCounters& server) {
  util::Json frame = util::Json::object();
  frame.set("type", "stats");
  frame.set("service", to_json(stat_fields(service)));
  frame.set("cache", to_json(stat_fields(cache)));
  frame.set("server", to_json(stat_fields(server)));
  return frame.dump();
}

std::string prometheus_text(const api::ServiceStats& service,
                            const cache::CacheStats& cache,
                            const ServerCounters& server,
                            const persist::JournalStats* journal) {
  std::string out;
  out.reserve(8192);
  append_series(out, "service", stat_fields(service));
  append_series(out, "cache", stat_fields(cache));
  append_series(out, "server", stat_fields(server));
  if (journal != nullptr) append_series(out, "journal", stat_fields(*journal));
  return out;
}

std::string http_response(int status, const std::string& content_type,
                          const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 503 ? "Service Unavailable"
                                       : "Bad Request";
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace bagsched::net
