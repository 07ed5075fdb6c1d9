// The versioned request hierarchy: everything the SchedulingService can be
// asked to do is a RequestBase subtype.
//
//   * SolveRequest — one asynchronous solve of a full instance (the
//     original, v1 request shape);
//   * DeltaRequest — one incremental update against an open schedule
//     session (v2): the service routes it to the session's
//     online::ScheduleSession, which repairs the committed schedule and
//     reports migration cost alongside makespan.
//
// The split exists so the service, the JSON serializer and the wire
// protocol agree on what is shared (options, solver selection, priority,
// deadline, progress observer) versus what is request-specific (the
// instance vs. the session id + delta). kApiVersion gates compatibility:
// serialized requests carry it, and the NDJSON server rejects frames from
// the future (net/protocol.h, DESIGN.md §5).
//
//   auto request = api::make_request(instance, {.eps = 0.25}, {"eptas"});
//   request.priority = 10;
//   request.deadline = api::deadline_in(0.250);  // 250 ms from now
//   auto handle = service.submit(std::move(request));
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/progress.h"
#include "api/solver.h"
#include "model/delta.h"
#include "model/instance.h"

namespace bagsched::api {

/// Version of the request/result surface (and of the NDJSON wire protocol,
/// which mirrors it). v1: solve requests only. v2: delta sessions, the
/// migration-cost result axis, versioned frames. Bump when a change is not
/// understood by older peers; see DESIGN.md §5 for the compatibility rule.
inline constexpr int kApiVersion = 2;

/// Monotonic clock used for deadlines (absolute time points survive
/// suspend-free wall-clock adjustments; they do NOT cross processes — the
/// JSON form carries seconds-until-deadline instead, see api/serialize.h).
using ServiceClock = std::chrono::steady_clock;

/// Absolute deadline `seconds` from now.
inline ServiceClock::time_point deadline_in(double seconds) {
  return ServiceClock::now() +
         std::chrono::duration_cast<ServiceClock::duration>(
             std::chrono::duration<double>(seconds));
}

/// Fields shared by every request the service accepts.
struct RequestBase {
  /// Options passed to every solver the request runs (the service installs
  /// its own cancellation token chained onto options.cancel).
  SolveOptions options;

  /// Solver selection: empty → the default portfolio mix; exactly one
  /// registry name → that solver; several names → a portfolio race over
  /// them (best feasible result wins, stragglers are certificate-cancelled).
  std::vector<std::string> solvers;

  /// Queue priority: larger values dispatch first when the service is
  /// saturated; ties break by deadline (earlier first), then submit order.
  /// A session op competes with it once it heads its session's FIFO; the
  /// session's own ops always run in submit order.
  int priority = 0;

  /// Absolute deadline. When it expires the service cooperatively cancels
  /// the run and the handle resolves with SolveStatus::Cancelled carrying
  /// the best incumbent found so far (a session op that was already
  /// running commits instead, see SchedulingService::submit(DeltaRequest)).
  /// Unset = no deadline.
  std::optional<ServiceClock::time_point> deadline;

  /// Streaming observer for this request: Queued/Started/Finished from the
  /// service, Phase and Incumbent events from the solvers. Invoked on
  /// worker threads; must be thread-safe and must outlive the request's
  /// completion (waiting on the handle is enough).
  ProgressFn on_progress;
};

/// One asynchronous solve of a full instance.
struct SolveRequest : RequestBase {
  /// The instance to schedule. Shared (not copied) so a batch of requests
  /// over one workload — or a portfolio fan-out — doesn't duplicate it.
  std::shared_ptr<const model::Instance> instance;
};

/// One incremental update against an open schedule session. The service
/// serializes deltas per session (FIFO), repairs the committed schedule
/// (online::ScheduleSession) and resolves the handle with a result whose
/// moved_jobs / migration_ratio fields are filled. options/solvers are
/// ignored — a session fixes them at open time so its solves and regret
/// accounting stay coherent.
struct DeltaRequest : RequestBase {
  /// Session id from SchedulingService::open_session. Unknown or closed
  /// ids resolve the handle with SolveStatus::Error ("unknown session").
  std::uint64_t session = 0;
  model::Delta delta;
  /// Resend-safe commits: the session revision the client believes it is
  /// at. Unset → apply unconditionally (the pre-v3 behavior). Set and the
  /// session is one revision AHEAD with an identical last delta → the
  /// cached result of that commit is returned instead of re-applying (the
  /// delta was committed but its ack was lost — the crash/reconnect
  /// window). Any other mismatch resolves with SolveStatus::Error
  /// ("revision mismatch"), never a silent double-apply.
  std::optional<std::uint64_t> expect_revision;
};

/// Convenience builder: owns a copy of the instance.
inline SolveRequest make_request(model::Instance instance,
                                 SolveOptions options = {},
                                 std::vector<std::string> solvers = {}) {
  SolveRequest request;
  request.instance =
      std::make_shared<const model::Instance>(std::move(instance));
  request.options = std::move(options);
  request.solvers = std::move(solvers);
  return request;
}

/// Convenience builder sharing an already-owned instance.
inline SolveRequest make_request(
    std::shared_ptr<const model::Instance> instance,
    SolveOptions options = {}, std::vector<std::string> solvers = {}) {
  SolveRequest request;
  request.instance = std::move(instance);
  request.options = std::move(options);
  request.solvers = std::move(solvers);
  return request;
}

/// Convenience builder for a session delta.
inline DeltaRequest make_delta_request(std::uint64_t session,
                                       model::Delta delta) {
  DeltaRequest request;
  request.session = session;
  request.delta = std::move(delta);
  return request;
}

}  // namespace bagsched::api
