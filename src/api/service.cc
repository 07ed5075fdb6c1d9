#include "api/service.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <random>
#include <stdexcept>
#include <utility>

#include "api/options_digest.h"
#include "api/portfolio.h"
#include "api/registry.h"
#include "api/serialize.h"
#include "model/lower_bounds.h"
#include "persist/journal.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace bagsched::api {

namespace detail {

struct SessionState;

/// The session half of a session op: which session, and what to do to it.
/// The outcome fields are written by the op's run and read when it settles.
struct SessionOp {
  std::shared_ptr<SessionState> state;
  bool open = false;  ///< the session's initial solve; a delta otherwise
  model::Delta delta;
  std::optional<std::uint64_t> expect_revision;
  /// The delta's JSON, encoded at most once per op: the duplicate check,
  /// the journal record and the resume shadow all reuse it.
  std::string delta_json;
  bool committed = false;  ///< the op moved the session to a new commit
  bool failed = false;     ///< the session can no longer serve deltas
  std::string digest;      ///< schedule_digest of the new commit
};

struct RequestState {
  explicit RequestState(SolveRequest req)
      : request(std::move(req)), cancel(request.options.cancel) {}

  std::uint64_t id = 0;
  SolveRequest request;
  /// Set for session ops (open or delta), unset for solves.
  std::optional<SessionOp> session;

  // --- Solve-cache participation (immutable after prepare_cache) ---------
  bool cache_enabled = false;   ///< cache_mode != Off and instance is valid
  bool rounded_enabled = false; ///< also keyed on the eps-rounded form
  cache::CanonicalForm form;          ///< exact canonical form
  cache::CanonicalForm rounded_form;  ///< only when rounded_enabled
  cache::CacheKey key;                ///< exact-fingerprint cache key
  cache::CacheKey rounded_key;        ///< only when rounded_enabled
  /// Submit-time cache hit, resolved without queueing (set in pass 1 of
  /// submit_batch, consumed under the service lock).
  std::optional<SolveResult> submit_hit;
  /// Per-request token chained onto the caller's options.cancel; fired by
  /// the deadline watchdog, SolveHandle::cancel() and service shutdown.
  util::CancellationToken cancel;
  /// The service itself requested the stop (deadline / handle / shutdown),
  /// so the final status must read Cancelled.
  std::atomic<bool> service_cancel{false};
  std::atomic<bool> deadline_fired{false};
  /// The deadline clamp reduced the solver's time budget below what the
  /// options asked for (see execute()). A Feasible-but-unproven result
  /// produced under a tighter budget must not be cached or shared under
  /// the full-budget options key — it could be arbitrarily weaker than
  /// what an unconstrained run would return.
  std::atomic<bool> budget_clamped{false};
  util::Stopwatch since_submit;
  double queue_seconds = 0.0;  ///< written by the dispatcher, pre-Started

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  SolveResult result;

  /// Observer fan-out with the request id and submit-relative elapsed time
  /// filled in. Lifecycle events (Queued/Started/Finished) go only to
  /// request.on_progress — options.progress is the solver-level stream, and
  /// forwarding lifecycle there would leak nested portfolio-member
  /// lifecycles as extra "terminal" Finished events on the outer request.
  void emit(ProgressEvent event, bool solver_level = false) {
    if (!request.on_progress && !request.options.progress) return;
    event.request_id = id;
    event.elapsed_seconds = since_submit.seconds();
    try {
      if (request.on_progress) request.on_progress(event);
      if (solver_level && request.options.progress) {
        request.options.progress(event);
      }
    } catch (...) {
      // Observability must never break scheduling: a throwing callback is
      // dropped so the solve still resolves and the handle never hangs.
    }
  }
};

/// One open schedule session: the repair engine plus a FIFO of its pending
/// operations. All fields except `session` are guarded by the service
/// mutex; `session` (the ScheduleSession itself) is only ever touched by
/// the single in-flight op of this session, which the FIFO serializes.
struct SessionState {
  std::uint64_t id = 0;
  online::SessionOptions tuning;
  std::shared_ptr<const model::Instance> initial_instance;
  std::unique_ptr<online::ScheduleSession> session;
  bool closed = false;  ///< no new ops accepted; drains then retires
  bool failed = false;  ///< the initial solve failed; deltas error out
  /// Admitted ops not yet finished, in submit order. The front one runs or
  /// is next to dispatch; the others wait, in the service queue too.
  std::deque<std::shared_ptr<RequestState>> pending;
  // --- Resume/durability shadow (guarded by the service mutex; written
  // by the session's single in-flight op BEFORE it resolves, so whatever
  // a client was acked is already visible to session_info) --------------
  std::uint64_t epoch = 0;
  std::uint64_t revision = 0;
  std::string last_delta_json;     ///< serialized delta of the last commit
  SolveResult last_commit_result;  ///< returned again on a duplicate resend
  std::string digest;              ///< schedule_digest of the last commit
};

}  // namespace detail

using detail::RequestState;
using detail::SessionState;

// --- SolveHandle -----------------------------------------------------------

std::uint64_t SolveHandle::id() const {
  return state_ != nullptr ? state_->id : 0;
}

const SolveResult& SolveHandle::wait() {
  if (state_ == nullptr) {
    throw std::logic_error("SolveHandle: wait() on an invalid handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

std::optional<SolveResult> SolveHandle::try_get() const {
  if (state_ == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->done) return std::nullopt;
  return state_->result;
}

bool SolveHandle::wait_for(double seconds) const {
  if (state_ == nullptr) {
    throw std::logic_error("SolveHandle: wait_for() on an invalid handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                             [this] { return state_->done; });
}

bool SolveHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void SolveHandle::cancel() {
  if (state_ == nullptr) return;
  state_->service_cancel.store(true, std::memory_order_relaxed);
  state_->cancel.request_stop();
}

// --- SchedulingService -----------------------------------------------------

namespace {

/// Queue order: priority desc, then deadline asc (none = last), then
/// submission order. Used to pick the next request, not to keep the vector
/// sorted — queue depths are service-level, not algorithmic.
bool dispatches_before(const RequestState& a, const RequestState& b) {
  if (a.request.priority != b.request.priority) {
    return a.request.priority > b.request.priority;
  }
  const bool a_has = a.request.deadline.has_value();
  const bool b_has = b.request.deadline.has_value();
  if (a_has != b_has) return a_has;
  if (a_has && *a.request.deadline != *b.request.deadline) {
    return *a.request.deadline < *b.request.deadline;
  }
  return a.id < b.id;
}

/// Cache-key component for the solver selection: the registry name, a
/// joined portfolio list, or a marker for the default portfolio mix.
std::string solver_signature(const std::vector<std::string>& solvers) {
  if (solvers.empty()) return "portfolio:default";
  std::string signature = solvers.front();
  for (std::size_t i = 1; i < solvers.size(); ++i) {
    signature += '+';
    signature += solvers[i];
  }
  return signature;
}

/// Whether every requested solver tolerates eps-rounded key collisions: a
/// rounded hit hands back a schedule whose makespan is only within a
/// (1+eps) factor of what a fresh solve would find, which is fine for the
/// approximation/heuristic solvers but would silently weaken an exact
/// solver's contract (and the bag-ignoring reference solvers never produce
/// cacheable schedules at all).
bool rounded_keys_allowed(const std::vector<std::string>& solvers) {
  if (solvers.empty()) return false;  // default portfolio includes "exact"
  for (const auto& name : solvers) {
    const Guarantee guarantee =
        SolverRegistry::global().info(name).guarantee;
    if (guarantee == Guarantee::Exact || guarantee == Guarantee::Reference) {
      return false;
    }
  }
  return true;
}

/// A result worth storing: a complete, bag-feasible schedule that wasn't
/// truncated by cancellation. Infeasible/Error outcomes are not cached —
/// they can encode request-specific circumstances (a malformed twin, a
/// transient failure) that must not leak onto other requests.
bool is_cacheable(const SolveResult& result) {
  return (result.status == SolveStatus::Optimal ||
          result.status == SolveStatus::Feasible) &&
         result.schedule_feasible && !result.cancelled;
}

/// Eager validation of a submit or open: a null instance or an unknown
/// solver name throws std::invalid_argument (listing the names).
void validate(const SolveRequest& request) {
  if (request.instance == nullptr) {
    throw std::invalid_argument("SolveRequest.instance is null");
  }
  for (const auto& name : request.solvers) {
    SolverRegistry::global().resolve(name);
  }
}

/// A result without a schedule: an op that resolved without running
/// (rejected, expired, cancelled or shut down while queued: Cancelled) or
/// a session op that failed.
SolveResult unsolved(SolveStatus status, std::string error,
                     std::string solver = {}) {
  SolveResult result;
  result.status = status;
  result.cancelled = status == SolveStatus::Cancelled;
  result.solver = std::move(solver);
  result.error = std::move(error);
  return result;
}

SolveResult rejected(std::size_t max_queue_depth) {
  return unsolved(SolveStatus::Cancelled,
                  "rejected: service queue is full (max_queue_depth=" +
                      std::to_string(max_queue_depth) + ")");
}

/// Single-flight twins: cache-enabled solves with the same exact key. Only
/// solves prepare a cache key, so session ops are never twins.
bool twins(const RequestState& a, const RequestState& b) {
  return a.cache_enabled && b.cache_enabled && a.key == b.key;
}

/// Whether a queued op may take a slot now. A session op only at the front
/// of its session's FIFO (a running op stays in front); a cache-enabled
/// solve only while no twin runs, so it waits to share that twin's result.
bool dispatchable(const RequestState& state,
                  const std::vector<std::shared_ptr<RequestState>>& running) {
  if (state.session.has_value()) {
    return state.session->state->pending.front().get() == &state;
  }
  for (const auto& other : running) {
    if (twins(state, *other)) return false;
  }
  return true;
}

/// Settles how the service's stop (deadline, handle or shutdown) shows in
/// the result. Deadline attribution is decided here, from the clock, not
/// from the watchdog: the time-limit clamp in execute() can stop a solver
/// right at the deadline before the watchdog's wakeup lands, and the
/// outcome must not depend on that race. A stopped solve resolves
/// Cancelled — except a completed optimality proof, which beats the
/// deadline — with its incumbent fields kept as the solver filled them:
/// Cancelled-with-incumbent is a usable result. A session op keeps its
/// committed status: to an expect_revision resend, Cancelled must mean
/// "not committed" (DESIGN.md §7).
void attribute_stop(RequestState& state, SolveResult& result) {
  if (state.request.deadline.has_value() &&
      ServiceClock::now() >= *state.request.deadline) {
    state.deadline_fired.store(true, std::memory_order_relaxed);
    state.service_cancel.store(true, std::memory_order_relaxed);
  }
  if (state.service_cancel.load(std::memory_order_relaxed) &&
      !state.session.has_value()) {
    if (result.status == SolveStatus::Feasible) {
      result.status = SolveStatus::Cancelled;
    }
    if (result.status == SolveStatus::Cancelled) result.cancelled = true;
  }
  if (state.deadline_fired.load(std::memory_order_relaxed)) {
    result.stats["deadline_expired"] = true;
  }
}

/// The delta's JSON, encoded on first use and kept on the op.
const std::string& delta_json(detail::SessionOp& op) {
  if (op.delta_json.empty()) append_delta(op.delta_json, op.delta);
  return op.delta_json;
}

/// Stores the result, emits Finished pointing at the stored copy, then
/// opens the done gate: every progress event for a request is delivered
/// before any wait() on its handle returns.
void resolve(RequestState& state, SolveResult result) {
  state.result = std::move(result);
  ProgressEvent event;
  event.kind = ProgressKind::Finished;
  event.solver = state.result.solver;
  event.result = &state.result;
  state.emit(std::move(event));
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.done = true;
  }
  state.cv.notify_all();
}

}  // namespace

SchedulingService::SchedulingService(Config config)
    : config_(config), cache_(config.cache), pool_(config.num_threads) {
  max_concurrent_ =
      config_.max_concurrent != 0 ? config_.max_concurrent : pool_.size();
  std::random_device entropy;
  boot_nonce_ = (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
  // The deadline watchdog starts lazily on the first deadline-bearing
  // submit — deadline-free services (e.g. the per-call service inside
  // Portfolio::solve) never pay for the extra thread.
}

SchedulingService::~SchedulingService() {
  std::vector<std::shared_ptr<RequestState>> pending;
  const SolveResult shut_down =
      unsolved(SolveStatus::Cancelled,
               "cancelled: service shut down before the request ran");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    pending = std::move(queue_);
    queue_.clear();
    // Running ops stop cooperatively; a session op still commits the best
    // feasible schedule it holds.
    for (const auto& state : running_) {
      state->service_cancel.store(true, std::memory_order_relaxed);
      state->cancel.request_stop();
    }
    for (const auto& state : pending) {
      drop_locked(*state);
      count_finished_locked(*state, shut_down);
    }
  }
  watchdog_cv_.notify_all();
  // Resolve never-dispatched requests so their handles don't block forever.
  for (const auto& state : pending) resolve(*state, shut_down);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return running_.empty(); });
  }
  if (watchdog_.joinable()) watchdog_.join();
  // pool_ destructor joins the workers (its queue is already drained).
}

SolveHandle SchedulingService::submit(SolveRequest request) {
  std::vector<SolveRequest> one;
  one.push_back(std::move(request));
  return submit_batch(std::move(one)).front();
}

std::vector<SolveHandle> SchedulingService::submit_batch(
    std::vector<SolveRequest> requests) {
  std::vector<SolveHandle> handles;
  handles.reserve(requests.size());
  std::vector<std::shared_ptr<RequestState>> states;
  states.reserve(requests.size());
  for (auto& request : requests) {
    validate(request);
    auto state = std::make_shared<RequestState>(std::move(request));
    state->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Canonicalization and the first cache probe run outside the service
    // lock — they are O(n log n) per request and purely local.
    prepare_cache(*state);
    if (state->cache_enabled) state->submit_hit = cache_lookup(*state);
    handles.push_back(SolveHandle(state));
    states.push_back(std::move(state));
  }
  std::vector<std::shared_ptr<RequestState>> bounced;
  std::vector<std::shared_ptr<RequestState>> hits;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::logic_error("SchedulingService: submit after shutdown");
    }
    for (auto& state : states) {
      // Cache hits take no queue slot, no backpressure, no solver run.
      // Counters settle under the lock; the handle resolves after it is
      // released (like rejected submits), so a Finished callback that
      // calls back into the service cannot deadlock on mutex_.
      if (state->submit_hit.has_value()) {
        ++stats_.submitted;
        ++stats_.finished;
        ++stats_.cache_hits;
        if (stat_bool(state->submit_hit->stats, "cache_hit_rounded")) {
          ++stats_.cache_rounded_hits;
        }
        state->emit({.kind = ProgressKind::Queued});
        hits.push_back(std::move(state));
        continue;
      }
      if (!admit_locked(state)) bounced.push_back(state);
    }
    // One dispatch pass after the whole batch is queued, so the batch is
    // prioritised as a unit instead of first-come-first-dispatched.
    dispatch_locked();
  }
  for (const auto& state : hits) {
    SolveResult result = std::move(*state->submit_hit);
    state->submit_hit.reset();
    result.stats["request_id"] = static_cast<long long>(state->id);
    result.stats["queue_seconds"] = 0.0;
    resolve(*state, std::move(result));
  }
  for (const auto& state : bounced) {
    resolve(*state, rejected(config_.max_queue_depth));
  }
  watchdog_cv_.notify_one();
  return handles;
}

void SchedulingService::accept_locked(RequestState& state) {
  ++stats_.submitted;
  if (state.request.deadline.has_value() && !watchdog_.joinable()) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  // Queued is emitted under the lock, strictly for accepted requests: the
  // dispatch happens after, so Started can never precede it.
  state.emit({.kind = ProgressKind::Queued});
}

bool SchedulingService::admit_locked(
    const std::shared_ptr<RequestState>& state) {
  // Backpressure counts the slots the deferred dispatch will free: after
  // it runs, the pending queue is back under max_queue_depth, and a batch
  // (which dispatches once, after all of it is queued) admits exactly what
  // the same requests submitted one-by-one would have admitted.
  const std::size_t free_slots =
      max_concurrent_ > running_.size() ? max_concurrent_ - running_.size()
                                        : 0;
  if (config_.max_queue_depth != 0 &&
      queue_.size() >= config_.max_queue_depth + free_slots) {
    ++stats_.rejected;
    drop_locked(*state);
    return false;
  }
  accept_locked(*state);
  if (state->session.has_value()) {
    state->session->state->pending.push_back(state);
  }
  queue_.push_back(state);
  return true;
}

// --- Sessions ---------------------------------------------------------------

SchedulingService::SessionOpening SchedulingService::open_session(
    SolveRequest request, online::SessionOptions tuning) {
  validate(request);
  // The request's options/solvers become the session's solve configuration
  // (the tuning struct only contributes the repair knobs) — one source of
  // truth for the session's solves and regret accounting.
  tuning.solve = request.options;
  tuning.solvers = request.solvers;
  // The session runs its own solves; the caller's progress callback is the
  // request's, not the option-level one (which portfolio members would
  // multiply), and each op passes the session its own cancellation token.
  tuning.solve.progress = nullptr;
  tuning.solve.cancel = nullptr;

  auto session = std::make_shared<SessionState>();
  session->tuning = std::move(tuning);
  session->initial_instance = request.instance;
  auto state = std::make_shared<RequestState>(std::move(request));
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  state->session.emplace();
  state->session->state = session;
  state->session->open = true;

  SessionOpening opening;
  opening.initial = SolveHandle(state);
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::logic_error("SchedulingService: open_session after shutdown");
    }
    session->id = ++next_session_id_;
    session->epoch = util::mix64(session->id ^ boot_nonce_);
    sessions_.emplace(session->id, session);
    ++stats_.sessions_opened;
    admitted = admit_locked(state);
    dispatch_locked();
  }
  opening.session = session->id;
  opening.epoch = session->epoch;
  if (!admitted) resolve(*state, rejected(config_.max_queue_depth));
  watchdog_cv_.notify_one();
  return opening;
}

SolveHandle SchedulingService::submit(DeltaRequest request) {
  // Carry the shared base fields (deadline, priority, progress, ...) in a
  // SolveRequest shell with no instance — session ops never dereference it.
  SolveRequest carrier;
  static_cast<RequestBase&>(carrier) =
      std::move(static_cast<RequestBase&>(request));
  auto state = std::make_shared<RequestState>(std::move(carrier));
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  state->session.emplace();
  state->session->delta = std::move(request.delta);
  state->session->expect_revision = request.expect_revision;

  std::optional<SolveResult> answer;  // set when the delta does not queue
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::logic_error("SchedulingService: submit after shutdown");
    }
    const auto it = sessions_.find(request.session);
    if (it == sessions_.end() || it->second->closed) {
      answer = unsolved(SolveStatus::Error,
                        "unknown session " + std::to_string(request.session),
                        "online-session");
      ++stats_.submitted;
      count_finished_locked(*state, *answer);
    } else {
      state->session->state = it->second;
      if (!admit_locked(state)) answer = rejected(config_.max_queue_depth);
      dispatch_locked();
    }
  }
  if (answer.has_value()) resolve(*state, std::move(*answer));
  watchdog_cv_.notify_one();
  return SolveHandle(state);
}

bool SchedulingService::close_session(std::uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end() || it->second->closed) return false;
    it->second->closed = true;
    ++stats_.sessions_closed;
    // Queued deltas still resolve; the last one retires the entry. An idle
    // session retires immediately.
    retire_if_drained_locked(*it->second);
  }
  if (config_.journal != nullptr) {
    try {
      config_.journal->record_close(session);
    } catch (const std::exception&) {
      // Worst case the next boot recovers an already-closed session; that
      // wastes memory but corrupts nothing, so a close is never failed
      // over its journal record.
    }
  }
  return true;
}

std::optional<SchedulingService::SessionInfo> SchedulingService::session_info(
    std::uint64_t session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second->closed || it->second->failed) {
    return std::nullopt;
  }
  SessionInfo info;
  info.session = session;
  info.epoch = it->second->epoch;
  info.revision = it->second->revision;
  info.digest = it->second->digest;
  return info;
}

std::size_t SchedulingService::restore_sessions(
    const persist::RecoveredState& recovered) {
  std::size_t restored = 0;
  for (const persist::RecoveredSession& entry : recovered.sessions) {
    auto session = std::make_shared<SessionState>();
    session->id = entry.session;
    session->epoch = entry.epoch;
    session->tuning = entry.tuning;
    session->initial_instance =
        std::make_shared<const model::Instance>(entry.instance);
    try {
      session->session = std::make_unique<online::ScheduleSession>(
          entry.instance, entry.schedule, session->tuning);
    } catch (const std::exception&) {
      continue;  // journaled as feasible; skip rather than refuse to boot
    }
    session->session->restore_revision(entry.revision);
    session->revision = entry.revision;
    session->last_delta_json = entry.last_delta_json;
    session->digest = entry.digest;
    SolveResult result = session->session->last_result();
    result.stats["session"] = static_cast<long long>(session->id);
    result.stats["online.revision"] = static_cast<long long>(entry.revision);
    result.stats["online.recovered"] = true;
    session->last_commit_result = std::move(result);

    std::lock_guard<std::mutex> lock(mutex_);
    sessions_[session->id] = session;
    ++stats_.sessions_restored;
    ++restored;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_session_id_ < recovered.max_session_id) {
    next_session_id_ = recovered.max_session_id;
  }
  return restored;
}

void SchedulingService::retire_if_drained_locked(const SessionState& session) {
  if (session.closed && session.pending.empty()) {
    const std::uint64_t id = session.id;  // the erase may free `session`
    sessions_.erase(id);
  }
}

void SchedulingService::drop_locked(RequestState& state) {
  if (!state.session.has_value()) return;
  detail::SessionOp& op = *state.session;
  auto& pending = op.state->pending;
  const auto it = std::find_if(
      pending.begin(), pending.end(),
      [&state](const auto& queued) { return queued.get() == &state; });
  if (it != pending.end()) pending.erase(it);
  // The session itself is untouched — but an open that never ran leaves a
  // session with no schedule to serve.
  op.failed = op.open;
  settle_session_locked(state, SolveResult{});
  retire_if_drained_locked(*op.state);
}

SolveResult SchedulingService::run_session(RequestState& state) {
  detail::SessionOp& op = *state.session;
  SessionState& session = *op.state;
  const auto fail = [](SolveStatus status, std::string error) {
    return unsolved(status, std::move(error), "online-session");
  };
  SolveResult result;
  if (state.service_cancel.load(std::memory_order_relaxed)) {
    // Cancelled (or expired) while queued: resolve without touching the
    // session, so its revision stays and its FIFO moves on.
    op.failed = op.open;
    result = unsolved(SolveStatus::Cancelled,
                      "cancelled: the request was cancelled before it ran");
  } else if (op.open) {
    try {
      session.session = std::make_unique<online::ScheduleSession>(
          *session.initial_instance, session.tuning, &state.cancel);
      result = session.session->last_result();
      op.committed = true;
    } catch (const std::exception& error) {
      op.failed = true;
      result = fail(state.cancel.stop_requested() ? SolveStatus::Cancelled
                                                  : SolveStatus::Infeasible,
                    error.what());
    }
  } else if (session.failed || session.session == nullptr) {
    result = fail(SolveStatus::Error, "unknown session " +
                                          std::to_string(session.id) +
                                          ": its initial solve failed");
  } else {
    const std::uint64_t revision = session.session->revision();
    // Resend-safe commits: a client that lost an ack resubmits with the
    // revision it last saw. One revision behind with an identical delta
    // means the commit landed and only the ack was lost — hand back the
    // cached result instead of double-applying. Anything else is a real
    // divergence and must fail loudly.
    if (op.expect_revision.has_value() &&
        *op.expect_revision + 1 == revision &&
        delta_json(op) == session.last_delta_json) {
      result = session.last_commit_result;
      result.stats["online.duplicate"] = true;
    } else if (op.expect_revision.has_value() &&
               *op.expect_revision != revision) {
      result = fail(
          SolveStatus::Error,
          "revision mismatch: session " + std::to_string(session.id) +
              " is at revision " + std::to_string(revision) +
              ", request expected " + std::to_string(*op.expect_revision));
    } else {
      try {
        result = session.session->apply(op.delta, &state.cancel);
        op.committed = session.session->revision() != revision;
      } catch (const std::exception& error) {
        // Malformed delta (unknown job ids, duplicate departures, ...): the
        // session keeps its previous commit and stays usable.
        result = fail(SolveStatus::Error,
                      std::string("invalid delta: ") + error.what());
      }
    }
  }

  // Durability: journal every commit BEFORE the handle resolves, so an
  // acked commit is on disk no matter when the process dies (DESIGN.md
  // §8, "acked ⇒ recovered"). A journal append failure poisons the
  // session — the client gets an error, not an ack the journal missed —
  // and the session closes rather than drift from its journal.
  if (op.committed) {
    op.digest = persist::schedule_digest(session.session->schedule());
    if (!op.open) delta_json(op);
    if (config_.journal != nullptr) {
      try {
        if (op.open) {
          config_.journal->record_open(session.id, session.epoch,
                                       session.session->instance(),
                                       session.tuning,
                                       session.session->schedule());
        } else {
          config_.journal->record_commit(
              session.id, session.session->revision(), op.delta,
              op.delta_json, session.session->schedule(), op.digest,
              session.session->shared_instance());
        }
      } catch (const std::exception& error) {
        op.committed = false;
        op.failed = true;
        result = fail(SolveStatus::Error,
                      std::string("journal append failed, session closed: ") +
                          error.what());
      }
    }
  }
  result.stats["session"] = static_cast<long long>(session.id);
  return result;
}

void SchedulingService::settle_session_locked(RequestState& state,
                                              const SolveResult& result) {
  // Publishes the resume/dedupe shadow and the session's closed state
  // before the ack is visible: a client that acts on this result must find
  // session_info consistent with it.
  detail::SessionOp& op = *state.session;
  SessionState& session = *op.state;
  if (op.failed && !session.closed) {
    // A session that never committed a schedule — or whose journal no
    // longer matches its state — cannot serve deltas; close it so queued
    // ones drain with "unknown session".
    session.failed = true;
    session.closed = true;
    ++stats_.sessions_closed;
  }
  if (op.committed) {
    session.revision = session.session->revision();
    session.digest = std::move(op.digest);
    if (!op.open) session.last_delta_json = std::move(op.delta_json);
    session.last_commit_result = result;
  }
}

void SchedulingService::count_finished_locked(const RequestState& state,
                                              const SolveResult& result) {
  ++stats_.finished;
  if (!state.session.has_value() || state.session->open) return;
  ++stats_.session_deltas;
  if (stat_bool(result.stats, "online.duplicate")) {
    ++stats_.session_duplicates;
  } else if (stat_str(result.stats, "online.path") == "fresh") {
    ++stats_.session_fresh;
  } else if (result.ok()) {
    ++stats_.session_repaired;
  }
}

void SchedulingService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_.empty(); });
}

SchedulingService::Stats SchedulingService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.queue_depth = queue_.size();
  stats.active = running_.size();
  for (const auto& [id, session] : sessions_) {
    if (!session->closed) ++stats.open_sessions;
  }
  return stats;
}

void SchedulingService::prepare_cache(RequestState& state) {
  const SolveRequest& request = state.request;
  if (request.options.cache_mode == CacheMode::Off) return;
  // Malformed instances stay out of the cache and single-flight: their
  // fingerprints could collide with valid twins, and their error messages
  // describe this request's instance specifically.
  try {
    request.instance->validate();
  } catch (const std::exception&) {
    return;
  }
  const std::string signature = solver_signature(request.solvers);
  const std::uint64_t digest = options_digest(request.options);
  state.form = cache::Canonicalizer::exact(*request.instance);
  state.key = cache::CacheKey{state.form.fingerprint, signature, digest,
                              /*rounded=*/false};
  state.cache_enabled = true;
  if (request.options.eps > 0.0 && rounded_keys_allowed(request.solvers)) {
    state.rounded_form = cache::Canonicalizer::rounded(*request.instance,
                                                       request.options.eps);
    state.rounded_key =
        cache::CacheKey{state.rounded_form.fingerprint, signature, digest,
                        /*rounded=*/true};
    state.rounded_enabled = true;
  }
}

std::optional<SolveResult> SchedulingService::cache_lookup(
    RequestState& state) {
  const model::Instance& instance = *state.request.instance;
  if (auto hit = cache_.lookup(state.key)) {
    // Exact-fingerprint twin: sizes agree position-by-position, so the
    // remapped schedule has the identical makespan and the cached status —
    // including a proven Optimal — transfers verbatim.
    SolveResult result = std::move(*hit);
    if (result.schedule.num_jobs() == instance.num_jobs() &&
        result.schedule.num_jobs() > 0) {
      result.schedule = cache::from_canonical(result.schedule, state.form);
    }
    result.stats["cache_hit"] = true;
    return result;
  }
  if (!state.rounded_enabled) return std::nullopt;
  if (auto hit = cache_.lookup(state.rounded_key)) {
    // Rounded-key twin: the bag structure matches position-by-position but
    // sizes only agree up to (1+eps), so the remapped schedule is
    // re-evaluated against THIS instance — the returned makespan/gap are
    // exact for the schedule we hand back; only optimality claims and the
    // solver's a-priori ratio are relaxed by the rounding.
    SolveResult result = std::move(*hit);
    if (result.schedule.num_jobs() != instance.num_jobs() ||
        result.schedule.num_jobs() == 0) {
      return std::nullopt;
    }
    result.schedule =
        cache::from_canonical(result.schedule, state.rounded_form);
    if (!model::validate(instance, result.schedule).ok()) {
      return std::nullopt;  // cannot happen for equal fingerprints
    }
    result.makespan = result.schedule.makespan(instance);
    result.lower_bound = model::combined_lower_bound(instance);
    result.schedule_feasible = true;
    result.proven_optimal = false;
    result.status = SolveStatus::Feasible;
    result.optimality_gap =
        result.lower_bound > 0.0
            ? result.makespan / result.lower_bound - 1.0
            : 0.0;
    result.stats["cache_hit"] = true;
    result.stats["cache_hit_rounded"] = true;
    return result;
  }
  return std::nullopt;
}

void SchedulingService::dispatch_locked() {
  while (running_.size() < max_concurrent_) {
    auto next = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (dispatchable(**it, running_) &&
          (next == queue_.end() || dispatches_before(**it, **next))) {
        next = it;
      }
    }
    if (next == queue_.end()) return;
    std::shared_ptr<RequestState> state = std::move(*next);
    queue_.erase(next);
    state->queue_seconds = state->since_submit.seconds();
    stats_.queue_wait_ewma_seconds =
        0.8 * stats_.queue_wait_ewma_seconds + 0.2 * state->queue_seconds;
    running_.push_back(state);
    pool_.submit([this, state = std::move(state)]() mutable {
      run_op(std::move(state));
    });
  }
}

SolveResult SchedulingService::execute(RequestState& state) {
  // Injected solver failure: run_solve's catch turns the throw into a
  // terminal SolveStatus::Error result, so the handle still resolves.
  if (BAGSCHED_FAULT("service.execute")) {
    throw std::runtime_error("injected fault: service.execute");
  }
  const SolveRequest& request = state.request;
  SolveOptions options = request.options;
  options.cancel = &state.cancel;
  // Deadline cooperation beyond the token: solvers that only honour wall
  // budgets (exact / MILP time limits) get their budget clamped to the
  // time remaining, so they stop near the deadline even between polls.
  if (request.deadline.has_value()) {
    const double remaining =
        std::chrono::duration<double>(*request.deadline -
                                      ServiceClock::now())
            .count();
    if (remaining < options.time_limit_seconds) {
      state.budget_clamped.store(true, std::memory_order_relaxed);
    }
    options.time_limit_seconds =
        std::min(options.time_limit_seconds, std::max(remaining, 0.0));
  }
  // Progress events from the solver layer (Phase / Incumbent — and, for a
  // portfolio, the members' solver streams) fan out to both observers.
  options.progress = [&state](const ProgressEvent& event) {
    state.emit(event, /*solver_level=*/true);
  };

  if (request.solvers.size() == 1) {
    return SolverRegistry::global()
        .resolve(request.solvers.front())
        .solve(*request.instance, options);
  }

  // Portfolio race (empty selection = the default mix). The portfolio is
  // itself a client of a nested service, so this stays one code path.
  Portfolio portfolio = request.solvers.empty()
                            ? Portfolio()
                            : Portfolio(request.solvers);
  PortfolioResult race = portfolio.solve(*request.instance, options);
  SolveResult result = std::move(race.best);
  result.stats["portfolio_members"] =
      static_cast<long long>(portfolio.solvers().size());
  result.stats["portfolio_cancelled"] =
      static_cast<long long>(race.cancelled_count);
  // Per-member summaries (schedules dropped) ride along machine-readably,
  // so service clients can still render the whole race.
  util::Json runs = util::Json::array();
  for (const auto& run : race.runs) {
    runs.push_back(to_json(run, /*include_schedule=*/false));
  }
  result.stats["portfolio_runs_json"] = runs.dump();
  return result;
}

SolveResult SchedulingService::run_solve(RequestState& state) {
  // Second-chance probe: the first lookup ran at submit time, but anything
  // cached since then — by a rounded-key twin, which dedups only through
  // the cache, or by an exact twin whose outcome this request did not
  // share — serves now without running a solver.
  if (state.cache_enabled &&
      !state.service_cancel.load(std::memory_order_relaxed)) {
    if (auto hit = cache_lookup(state)) return std::move(*hit);
  }
  try {
    return execute(state);
  } catch (const std::exception& error) {
    // A throwing solver (bad eps, internal failure) must still resolve the
    // handle — an unhandled exception would die in the pool wrapper and
    // leave wait() blocked forever.
    SolveResult result;
    if (state.request.solvers.size() == 1) {
      result.solver = state.request.solvers.front();
    }
    result.status = SolveStatus::Error;
    result.error = error.what();
    return result;
  } catch (...) {
    SolveResult result;
    result.status = SolveStatus::Error;
    result.error = "solver threw a non-standard exception";
    return result;
  }
}

void SchedulingService::run_op(std::shared_ptr<RequestState> state) {
  state->emit({.kind = ProgressKind::Started});
  const bool is_session = state->session.has_value();
  SolveResult result = is_session ? run_session(*state) : run_solve(*state);
  attribute_stop(*state, result);
  result.stats["request_id"] = static_cast<long long>(state->id);
  result.stats["queue_seconds"] = state->queue_seconds;

  // Settled and counted before any handle resolves: a stats() or
  // session_info() read issued right after an answer arrives must already
  // agree with it.
  std::vector<std::shared_ptr<RequestState>> shared;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (is_session) {
      settle_session_locked(*state, result);
    } else {
      shared = settle_solve_locked(state, result);
    }
    count_finished_locked(*state, result);
  }
  if (!is_session) share_solve(*state, result, shared);
  resolve(*state, std::move(result));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_.erase(std::find(running_.begin(), running_.end(), state));
    if (is_session) {
      SessionState& session = *state->session->state;
      session.pending.pop_front();  // this op: the next one may dispatch
      retire_if_drained_locked(session);
    }
    if (!stopping_) dispatch_locked();
  }
  idle_cv_.notify_all();
  watchdog_cv_.notify_one();
}

std::vector<std::shared_ptr<RequestState>>
SchedulingService::settle_solve_locked(
    const std::shared_ptr<RequestState>& state, const SolveResult& result) {
  if (stat_bool(result.stats, "cache_hit")) {
    ++stats_.cache_hits;
    if (stat_bool(result.stats, "cache_hit_rounded")) {
      ++stats_.cache_rounded_hits;
    }
  }
  // Single-flight settlement: the twins queued behind this solve (the
  // dispatch gate held them while it ran) take a shareable outcome in
  // share_solve. A cancelled/error outcome must not spread (the
  // cancellation or failure may be specific to this request), so those
  // twins stay queued and the next dispatch pass picks one to lead. A
  // clamped-budget Feasible result only blocks sharing when it is neither
  // proven (Optimal is budget-independent) nor structural (Infeasible does
  // not depend on the budget at all).
  std::vector<std::shared_ptr<RequestState>> shared;
  const bool shareable =
      !result.cancelled && result.status != SolveStatus::Error &&
      !(state->budget_clamped.load(std::memory_order_relaxed) &&
        result.status == SolveStatus::Feasible);
  if (state->cache_enabled && shareable) {
    const auto twin = [&state](const std::shared_ptr<RequestState>& queued) {
      return twins(*state, *queued);
    };
    std::copy_if(queue_.begin(), queue_.end(), std::back_inserter(shared),
                 twin);
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), twin),
                 queue_.end());
  }
  stats_.finished += shared.size();
  stats_.dedup_shared += shared.size();
  return shared;
}

void SchedulingService::share_solve(
    const RequestState& state, SolveResult& result,
    const std::vector<std::shared_ptr<RequestState>>& shared) {
  // Store before sharing/resolving: any request submitted from a Finished
  // callback already finds the entry. The cached copy keeps its schedule
  // in canonical order and drops the per-request bookkeeping.
  // Store under the leader's ReadWrite — or a shared twin's: the twins
  // asked the identical question, so any of them opting into writes is
  // enough to persist the answer.
  bool store = state.request.options.cache_mode == CacheMode::ReadWrite;
  for (const auto& twin : shared) {
    store = store || twin->request.options.cache_mode == CacheMode::ReadWrite;
  }
  if (!stat_bool(result.stats, "cache_hit") && state.cache_enabled &&
      store && is_cacheable(result) &&
      !(state.budget_clamped.load(std::memory_order_relaxed) &&
        result.status == SolveStatus::Feasible)) {
    SolveResult canonical = result;
    canonical.stats.erase("request_id");
    canonical.stats.erase("queue_seconds");
    canonical.schedule = cache::to_canonical(result.schedule, state.form);
    const auto payload = cache_.insert(state.key, std::move(canonical));
    // The rounded key shares the payload; only its canonical order differs.
    if (state.rounded_enabled) {
      cache_.insert_alias(
          state.rounded_key, payload,
          cache::to_canonical(result.schedule, state.rounded_form));
    }
    result.stats["cache_stored"] = true;
  }

  // Fan the result out to the twins (exact keys: the remapped schedule,
  // makespan and status transfer verbatim), honouring each twin's own
  // deadline/cancel state. The leader is still in running_, so
  // wait_idle() cannot fire while twins are unresolved.
  for (const auto& twin : shared) {
    SolveResult out = result;
    out.stats.erase("cache_stored");
    if (out.schedule.num_jobs() > 0 &&
        out.schedule.num_jobs() == twin->request.instance->num_jobs()) {
      out.schedule = model::remap_jobs(result.schedule, state.form.job_at,
                                       twin->form.job_at);
    }
    out.stats["single_flight"] = true;
    out.stats["request_id"] = static_cast<long long>(twin->id);
    out.stats["queue_seconds"] = twin->since_submit.seconds();
    attribute_stop(*twin, out);
    resolve(*twin, std::move(out));
  }
}

void SchedulingService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    std::optional<ServiceClock::time_point> earliest;
    const auto consider = [&](const std::shared_ptr<RequestState>& state) {
      if (!state->request.deadline.has_value()) return;
      if (state->deadline_fired.load(std::memory_order_relaxed)) return;
      if (!earliest.has_value() || *state->request.deadline < *earliest) {
        earliest = *state->request.deadline;
      }
    };
    for (const auto& state : queue_) consider(state);
    for (const auto& state : running_) consider(state);

    if (!earliest.has_value()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    if (watchdog_cv_.wait_until(lock, *earliest) ==
        std::cv_status::timeout) {
      const auto now = ServiceClock::now();
      const auto fire = [&](const std::shared_ptr<RequestState>& state) {
        if (!state->request.deadline.has_value()) return false;
        if (*state->request.deadline > now) return false;
        if (state->deadline_fired.exchange(true,
                                           std::memory_order_relaxed)) {
          return false;
        }
        state->service_cancel.store(true, std::memory_order_relaxed);
        state->cancel.request_stop();
        return true;
      };
      for (const auto& state : running_) fire(state);
      // Queued requests whose deadline passed resolve right here — the
      // deadline is a latency bound, so the handle must not keep waiting
      // behind a busy slot or a running twin (nor burn a slot later just to
      // report Cancelled).
      std::vector<std::shared_ptr<RequestState>> expired;
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (fire(*it)) {
          expired.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      // An expired session op leaves its session's FIFO, which may let
      // the next one dispatch.
      for (const auto& state : expired) drop_locked(*state);
      if (!expired.empty()) dispatch_locked();
      // Resolved while the lock is held (like Queued emission), so there
      // is no window where wait_idle()/stats() see the queue drained while
      // an expired handle is still unresolved.
      for (const auto& state : expired) {
        SolveResult result = unsolved(
            SolveStatus::Cancelled,
            "cancelled: deadline expired before the request was dispatched");
        result.stats["deadline_expired"] = true;
        result.stats["request_id"] = static_cast<long long>(state->id);
        count_finished_locked(*state, result);
        resolve(*state, std::move(result));
      }
      if (!expired.empty()) idle_cv_.notify_all();
    }
  }
}

}  // namespace bagsched::api
