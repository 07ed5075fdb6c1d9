// Streaming progress for long-running solves.
//
// A ProgressFn observes a solve while it runs: the scheduling service emits
// lifecycle events (Queued / Started / Finished), solver adapters emit
// Phase transitions, and the solvers that maintain an incumbent (exact,
// milp, local-search) emit an Incumbent event every time their best
// makespan improves. Callbacks fire on worker threads — they must be
// thread-safe and cheap (they run inside solver hot paths).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace bagsched::api {

struct SolveResult;  // api/solver.h

enum class ProgressKind {
  Queued,     ///< request accepted by the service queue (never emitted for
              ///< backpressure-rejected submits, which only see Finished)
  Started,    ///< request left the queue; a worker is running it
  Phase,      ///< solver pipeline entered a named phase
  Incumbent,  ///< the solver's best-known makespan improved
  Finished,   ///< terminal; `result` points at the final SolveResult
};

const char* to_string(ProgressKind kind);

struct ProgressEvent {
  ProgressKind kind = ProgressKind::Phase;
  /// Service request id; 0 when the solve runs outside a service.
  std::uint64_t request_id = 0;
  /// Registry name of the reporting solver ("" for service-level events).
  std::string solver{};
  /// Phase name (Phase events only), e.g. "pipeline", "fallback".
  std::string phase{};
  /// Best makespan known so far (Incumbent events only).
  double incumbent_makespan = 0.0;
  /// Seconds since the request was submitted (or the solve started when
  /// running outside a service).
  double elapsed_seconds = 0.0;
  /// Finished events only: the final result. Valid for the duration of the
  /// callback — copy what you need, do not retain the pointer.
  const SolveResult* result = nullptr;
};

/// Observer callback; invoked from worker threads, possibly concurrently
/// for different requests — and, for Queued events, while the service
/// holds its internal lock. Callbacks must be cheap, thread-safe, and must
/// never call back into the service. An empty function disables streaming.
using ProgressFn = std::function<void(const ProgressEvent&)>;

}  // namespace bagsched::api
