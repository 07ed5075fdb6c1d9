#include "net/metrics.h"

#include <cstdint>

#include "persist/journal.h"

namespace bagsched::net {

namespace {

void metric_header(std::string& out, const char* name, const char* type,
                   const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
  out += name;
  out += ' ';
}

void metric(std::string& out, const char* name, const char* type,
            const char* help, std::uint64_t value) {
  metric_header(out, name, type, help);
  out += std::to_string(value);
  out += '\n';
}

void metric(std::string& out, const char* name, const char* type,
            const char* help, double value) {
  metric_header(out, name, type, help);
  out += std::to_string(value);
  out += '\n';
}

}  // namespace

std::string prometheus_text(const api::ServiceStats& service,
                            const cache::CacheStats& cache,
                            const ServerCounters& server,
                            const persist::JournalStats* journal) {
  std::string out;
  out.reserve(4096);
  // --- SchedulingService ---------------------------------------------------
  metric(out, "bagsched_service_submitted_total", "counter",
         "Requests accepted by the service queue", service.submitted);
  metric(out, "bagsched_service_rejected_total", "counter",
         "Requests shed at the max_queue_depth cap", service.rejected);
  metric(out, "bagsched_service_finished_total", "counter",
         "Accepted requests that resolved", service.finished);
  metric(out, "bagsched_service_queue_depth", "gauge",
         "Requests waiting for a slot right now", service.queue_depth);
  metric(out, "bagsched_service_active", "gauge",
         "Requests running right now", service.active);
  metric(out, "bagsched_service_cache_hits_total", "counter",
         "Requests served from the solve cache", service.cache_hits);
  metric(out, "bagsched_service_cache_rounded_hits_total", "counter",
         "Cache hits through the eps-rounded key", service.cache_rounded_hits);
  metric(out, "bagsched_service_dedup_shared_total", "counter",
         "Single-flight followers resolved from another request's solve",
         service.dedup_shared);
  metric(out, "bagsched_service_queue_wait_ewma_seconds", "gauge",
         "EWMA of request queue wait in seconds (brown-out signal)",
         service.queue_wait_ewma_seconds);
  metric(out, "bagsched_service_sessions_opened_total", "counter",
         "Online schedule sessions opened", service.sessions_opened);
  metric(out, "bagsched_service_sessions_closed_total", "counter",
         "Online schedule sessions closed", service.sessions_closed);
  metric(out, "bagsched_service_open_sessions", "gauge",
         "Online schedule sessions open right now", service.open_sessions);
  metric(out, "bagsched_service_session_deltas_total", "counter",
         "Delta requests resolved by online sessions", service.session_deltas);
  metric(out, "bagsched_service_session_repaired_total", "counter",
         "Deltas settled without a full solve (noop/repair/region)",
         service.session_repaired);
  metric(out, "bagsched_service_session_fresh_total", "counter",
         "Deltas that fell through to a fresh portfolio solve",
         service.session_fresh);
  metric(out, "bagsched_service_sessions_restored_total", "counter",
         "Sessions re-adopted from the journal at boot",
         service.sessions_restored);
  metric(out, "bagsched_service_session_duplicates_total", "counter",
         "Deltas answered from the commit cache via expect_revision",
         service.session_duplicates);
  // --- SolveCache ----------------------------------------------------------
  metric(out, "bagsched_cache_hits_total", "counter", "Solve-cache lookup hits",
         cache.hits);
  metric(out, "bagsched_cache_misses_total", "counter",
         "Solve-cache lookup misses", cache.misses);
  metric(out, "bagsched_cache_insertions_total", "counter",
         "Solve-cache insertions", cache.insertions);
  metric(out, "bagsched_cache_evictions_total", "counter",
         "Entries evicted to fit the byte budget", cache.evictions);
  metric(out, "bagsched_cache_entries", "gauge", "Resident cache entries",
         cache.entries);
  metric(out, "bagsched_cache_bytes", "gauge",
         "Approximate resident cache footprint in bytes", cache.bytes);
  // --- Server --------------------------------------------------------------
  metric(out, "bagsched_server_connections_accepted_total", "counter",
         "Client connections accepted", server.connections_accepted);
  metric(out, "bagsched_server_connections_active", "gauge",
         "Client connections open right now", server.connections_active);
  metric(out, "bagsched_server_frames_in_total", "counter",
         "Protocol frames received", server.frames_in);
  metric(out, "bagsched_server_frames_out_total", "counter",
         "Protocol frames sent", server.frames_out);
  metric(out, "bagsched_server_bytes_in_total", "counter",
         "Bytes received from clients", server.bytes_in);
  metric(out, "bagsched_server_bytes_out_total", "counter",
         "Bytes sent to clients", server.bytes_out);
  metric(out, "bagsched_server_parse_errors_total", "counter",
         "Frames rejected by the JSON parser", server.parse_errors);
  metric(out, "bagsched_server_oversized_frames_total", "counter",
         "Connections closed for exceeding the frame-size cap",
         server.oversized_frames);
  metric(out, "bagsched_server_submits_total", "counter",
         "Submit frames admitted to the service", server.submits);
  metric(out, "bagsched_server_cancels_total", "counter",
         "Cancel frames applied to an in-flight request", server.cancels);
  metric(out, "bagsched_server_metrics_requests_total", "counter",
         "GET /metrics scrapes served", server.metrics_requests);
  metric(out, "bagsched_server_disconnect_cancels_total", "counter",
         "Orphaned solves cancelled after a client disconnect",
         server.disconnect_cancels);
  metric(out, "bagsched_server_slow_client_disconnects_total", "counter",
         "Clients dropped for an overfull outbound buffer",
         server.slow_client_disconnects);
  metric(out, "bagsched_server_healthz_requests_total", "counter",
         "GET /healthz probes served", server.healthz_requests);
  metric(out, "bagsched_server_brownouts_total", "counter",
         "Submits degraded to the brown-out solver under queue pressure",
         server.brownouts);
  metric(out, "bagsched_server_request_timeouts_total", "counter",
         "Requests escalated to a timeout error by the budget watchdog",
         server.request_timeouts);
  metric(out, "bagsched_server_session_opens_total", "counter",
         "open_session frames admitted to the service", server.session_opens);
  metric(out, "bagsched_server_session_deltas_total", "counter",
         "delta frames routed to an open session", server.session_deltas);
  metric(out, "bagsched_server_session_closes_total", "counter",
         "Sessions closed by close_session frames or disconnects",
         server.session_closes);
  metric(out, "bagsched_server_version_rejects_total", "counter",
         "Frames rejected for declaring a newer proto_version",
         server.version_rejects);
  metric(out, "bagsched_server_session_resumes_total", "counter",
         "Sessions reclaimed via resume_session", server.session_resumes);
  metric(out, "bagsched_server_resume_rejects_total", "counter",
         "resume_session frames refused", server.resume_rejects);
  metric(out, "bagsched_server_sessions_orphaned_total", "counter",
         "Sessions parked in the linger window after a disconnect",
         server.sessions_orphaned);
  metric(out, "bagsched_server_orphans_expired_total", "counter",
         "Orphaned sessions closed because nobody resumed them",
         server.orphans_expired);
  metric(out, "bagsched_server_recovering_rejects_total", "counter",
         "Frames refused while the journal replayed",
         server.recovering_rejects);
  // --- Journal (only when sched_server runs with --journal-dir) -----------
  if (journal != nullptr) {
    metric(out, "bagsched_journal_records_appended_total", "counter",
           "Records appended to the write-ahead journal",
           journal->records_appended);
    metric(out, "bagsched_journal_bytes_appended_total", "counter",
           "Payload bytes appended to the journal", journal->bytes_appended);
    metric(out, "bagsched_journal_fsyncs_total", "counter",
           "fsync calls issued by the journal", journal->fsyncs);
    metric(out, "bagsched_journal_snapshots_total", "counter",
           "Snapshot compactions completed", journal->snapshots);
    metric(out, "bagsched_journal_snapshot_failures_total", "counter",
           "Snapshot compactions abandoned (old journal kept)",
           journal->snapshot_failures);
    metric(out, "bagsched_journal_records_replayed_total", "counter",
           "Records replayed from the journal at boot",
           journal->records_replayed);
    metric(out, "bagsched_journal_sessions_recovered_total", "counter",
           "Sessions reconstructed from the journal at boot",
           journal->sessions_recovered);
    metric(out, "bagsched_journal_truncated_bytes_total", "counter",
           "Torn-tail bytes truncated at journal open",
           journal->truncated_bytes);
    metric(out, "bagsched_journal_live_sessions", "gauge",
           "Sessions the journal currently tracks", journal->live_sessions);
    metric(out, "bagsched_journal_bytes", "gauge",
           "Journal file size in bytes", journal->journal_bytes);
  }
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
