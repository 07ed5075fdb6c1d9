// Tests for the asynchronous SchedulingService: submit/wait/try_get,
// batched fan-out over a bounded pool, priority ordering under saturation,
// deadline-triggered cooperative cancellation (best incumbent returned),
// handle cancellation, backpressure, progress streaming and shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "api/api.h"
#include "hog_request.h"

namespace bagsched {
namespace {

using api::ProgressEvent;
using api::ProgressKind;
using api::SchedulingService;
using api::SolveHandle;
using api::SolveRequest;
using api::SolveStatus;

SolveRequest quick_request(std::uint64_t seed, const char* solver) {
  api::SolveOptions options;
  options.seed = seed;
  return api::make_request(api::make_instance("uniform", 40, 6, options),
                           options, {solver});
}

// --- Async submit + wait ----------------------------------------------------

TEST(ServiceTest, SubmitWaitMatchesSynchronousSolve) {
  SchedulingService service({.num_threads = 2});
  const auto instance = api::make_instance("uniform", 80, 8, {.seed = 5});
  auto handle = service.submit(
      api::make_request(instance, {.seed = 5}, {"local-search"}));
  EXPECT_GT(handle.id(), 0u);
  const auto& result = handle.wait();
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.schedule_feasible);
  // Same instance + options through the blocking path: identical outcome.
  const auto sync = api::solve("local-search", instance, {.seed = 5});
  EXPECT_DOUBLE_EQ(result.makespan, sync.makespan);
  EXPECT_EQ(result.schedule.assignment(), sync.schedule.assignment());
  // Telemetry gained the service-side fields.
  EXPECT_EQ(api::stat_int(result.stats, "request_id"),
            static_cast<long long>(handle.id()));
}

TEST(ServiceTest, TryGetIsNonBlocking) {
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  auto blocker = service.submit(hog_request());
  auto queued = service.submit(quick_request(1, "greedy-bags"));
  // The blocker owns the only slot, so the queued request cannot be done.
  EXPECT_FALSE(queued.done());
  EXPECT_EQ(queued.try_get(), std::nullopt);
  blocker.cancel();
  const auto& result = queued.wait();
  EXPECT_TRUE(result.ok());
  ASSERT_TRUE(queued.try_get().has_value());
  EXPECT_DOUBLE_EQ(queued.try_get()->makespan, result.makespan);
  blocker.wait();
}

TEST(ServiceTest, WaitForTimesOutThenSucceeds) {
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  auto blocker = service.submit(hog_request());
  auto queued = service.submit(quick_request(2, "greedy-bags"));
  EXPECT_FALSE(queued.wait_for(0.05));
  blocker.cancel();
  EXPECT_TRUE(queued.wait_for(30.0));
  blocker.wait();
}

// --- Batch submit over a bounded pool ---------------------------------------

TEST(ServiceTest, BatchOf32ResolvesEveryHandleOverBoundedPool) {
  SchedulingService service({.num_threads = 4, .max_concurrent = 4});
  std::vector<SolveRequest> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back(quick_request(static_cast<std::uint64_t>(i + 1),
                                  i % 2 == 0 ? "greedy-bags" : "multifit"));
  }
  auto handles = service.submit_batch(std::move(batch));
  ASSERT_EQ(handles.size(), 32u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto& result = handles[i].wait();
    EXPECT_TRUE(result.ok()) << "request " << i;
    EXPECT_TRUE(result.schedule_feasible) << "request " << i;
    // Deterministic solvers: the async result matches a blocking solve.
    const api::SolveOptions options{
        .seed = static_cast<std::uint64_t>(i + 1)};
    const auto sync =
        api::solve(i % 2 == 0 ? "greedy-bags" : "multifit",
                   api::make_instance("uniform", 40, 6, options), options);
    EXPECT_DOUBLE_EQ(result.makespan, sync.makespan) << "request " << i;
  }
  service.wait_idle();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.finished, 32u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active, 0u);
}

// --- Priority ordering under a saturated queue ------------------------------

TEST(ServiceTest, PriorityOrdersDispatchUnderSaturation) {
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});

  std::mutex order_mutex;
  std::vector<int> started_priorities;
  const auto record_start = [&](int priority) {
    return [&, priority](const ProgressEvent& event) {
      if (event.kind != ProgressKind::Started) return;
      std::lock_guard<std::mutex> lock(order_mutex);
      started_priorities.push_back(priority);
    };
  };

  // Saturate the single slot first, then queue mixed priorities.
  auto blocker = service.submit(hog_request());
  std::vector<SolveHandle> handles;
  const int priorities[] = {0, 5, 1, 9, 3};
  for (const int priority : priorities) {
    auto request = quick_request(static_cast<std::uint64_t>(priority + 1),
                                 "greedy-bags");
    request.priority = priority;
    request.on_progress = record_start(priority);
    handles.push_back(service.submit(std::move(request)));
  }
  blocker.cancel();
  for (auto& handle : handles) handle.wait();
  blocker.wait();

  // One worker slot → strictly descending dispatch by priority.
  const std::vector<int> expected = {9, 5, 3, 1, 0};
  EXPECT_EQ(started_priorities, expected);
}

// --- Deadlines --------------------------------------------------------------

TEST(ServiceTest, DeadlineExpiryReturnsCancelledWithBestIncumbent) {
  SchedulingService service({.num_threads = 2});
  auto request = hog_request();
  request.deadline = api::deadline_in(0.05);
  auto handle = service.submit(std::move(request));
  const auto& result = handle.wait();
  EXPECT_EQ(result.status, SolveStatus::Cancelled);
  EXPECT_TRUE(result.cancelled);
  // The cancellation contract: the incumbent survives with its makespan
  // and feasibility filled in.
  EXPECT_TRUE(result.schedule_feasible);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GE(result.makespan, result.lower_bound);
  EXPECT_TRUE(api::stat_bool(result.stats, "deadline_expired"));
  // Cut well before the 30 s time limit (CI slack: 5 s).
  EXPECT_LT(result.wall_seconds, 5.0);
}

TEST(ServiceTest, DeadlineExpiryWhileQueuedResolvesAtTheDeadline) {
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  auto blocker = service.submit(hog_request());
  auto doomed = quick_request(4, "greedy-bags");
  doomed.deadline = api::deadline_in(0.03);
  auto handle = service.submit(std::move(doomed));
  // The deadline is a latency bound: the handle resolves at ~30 ms even
  // though the only worker slot stays busy for much longer.
  EXPECT_TRUE(handle.wait_for(5.0));
  const auto& result = handle.wait();
  EXPECT_EQ(result.status, SolveStatus::Cancelled);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(api::stat_bool(result.stats, "deadline_expired"));
  blocker.cancel();
  blocker.wait();
  service.wait_idle();
  // The expired request never occupied the slot, but still counts as
  // finished.
  EXPECT_EQ(service.stats().finished, 2u);
}

TEST(ServiceTest, HandleCancelResolvesWithIncumbent) {
  SchedulingService service({.num_threads = 2});
  auto handle = service.submit(hog_request());
  // Give the exact search a moment to install its first incumbent.
  handle.wait_for(0.05);
  handle.cancel();
  const auto& result = handle.wait();
  EXPECT_EQ(result.status, SolveStatus::Cancelled);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.schedule_feasible);  // incumbent preserved
  EXPECT_LT(result.wall_seconds, 5.0);
}

// --- Progress streaming -----------------------------------------------------

TEST(ServiceTest, ProgressStreamsLifecycleAndIncumbents) {
  SchedulingService service({.num_threads = 2});
  std::mutex events_mutex;
  std::vector<ProgressEvent> events;
  api::SolveOptions options;
  options.seed = 7;
  auto request = api::make_request(
      api::make_instance("uniform", 18, 4, options), options, {"exact"});
  request.on_progress = [&](const ProgressEvent& event) {
    std::lock_guard<std::mutex> lock(events_mutex);
    events.push_back(event);
  };
  auto handle = service.submit(std::move(request));
  const auto& result = handle.wait();
  ASSERT_TRUE(result.ok());

  // All events are delivered before wait() returns, in lifecycle order,
  // all tagged with the request id.
  std::lock_guard<std::mutex> lock(events_mutex);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, ProgressKind::Queued);
  EXPECT_EQ(events[1].kind, ProgressKind::Started);
  EXPECT_EQ(events.back().kind, ProgressKind::Finished);
  for (const auto& event : events) {
    EXPECT_EQ(event.request_id, handle.id());
  }
  // The exact solver streamed at least its initial incumbent, and
  // incumbents only ever improve.
  double last = -1.0;
  int incumbents = 0;
  for (const auto& event : events) {
    if (event.kind != ProgressKind::Incumbent) continue;
    ++incumbents;
    EXPECT_EQ(event.solver, "exact");
    if (last >= 0.0) EXPECT_LE(event.incumbent_makespan, last);
    last = event.incumbent_makespan;
  }
  EXPECT_GE(incumbents, 1);
  EXPECT_NEAR(last, result.makespan, 1e-9);
}

// --- Backpressure and rejection ---------------------------------------------

TEST(ServiceTest, QueueDepthCapRejectsOverflow) {
  SchedulingService service(
      {.num_threads = 1, .max_concurrent = 1, .max_queue_depth = 1});
  auto blocker = service.submit(hog_request());
  auto queued = service.submit(quick_request(1, "greedy-bags"));
  auto bounced = service.submit(quick_request(2, "greedy-bags"));
  // The rejected handle resolves immediately, without running.
  const auto& rejection = bounced.wait();
  EXPECT_EQ(rejection.status, SolveStatus::Cancelled);
  EXPECT_NE(rejection.error.find("rejected"), std::string::npos);
  EXPECT_FALSE(rejection.schedule_feasible);
  blocker.cancel();
  EXPECT_TRUE(queued.wait().ok());
  blocker.wait();
  service.wait_idle();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().submitted, 2u);
}

TEST(ServiceTest, BatchBackpressureCountsFreeWorkerSlots) {
  // An idle service with free slots must not bounce a batch that the same
  // requests submitted one-by-one would have been admitted for.
  SchedulingService service(
      {.num_threads = 2, .max_concurrent = 2, .max_queue_depth = 1});
  std::vector<SolveRequest> batch;
  for (int i = 0; i < 3; ++i) {  // 2 free slots + depth 1 → all 3 admitted
    batch.push_back(quick_request(static_cast<std::uint64_t>(i + 1),
                                  "greedy-bags"));
  }
  auto handles = service.submit_batch(std::move(batch));
  for (auto& handle : handles) {
    EXPECT_TRUE(handle.wait().ok());
  }
  service.wait_idle();
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(ServiceTest, ThrowingProgressCallbackDoesNotHangTheHandle) {
  SchedulingService service({.num_threads = 1});
  auto request = quick_request(1, "greedy-bags");
  request.on_progress = [](const ProgressEvent&) {
    throw std::runtime_error("observer bug");
  };
  auto handle = service.submit(std::move(request));
  ASSERT_TRUE(handle.wait_for(30.0));  // resolves despite the throwing observer
  EXPECT_TRUE(handle.wait().ok());
}

TEST(ServiceTest, ThrowingSolverResolvesHandleWithStructuredError) {
  // eps outside (0,1) makes the EPTAS throw inside the worker; the handle
  // must still resolve (with the error), never hang.
  SchedulingService service({.num_threads = 1});
  api::SolveOptions options;
  options.eps = 2.0;
  auto handle = service.submit(api::make_request(
      api::make_instance("uniform", 20, 4, options), options, {"eptas"}));
  ASSERT_TRUE(handle.wait_for(30.0));
  const auto& result = handle.wait();
  EXPECT_FALSE(result.ok());
  // Error, not Infeasible: the options were bad, not the instance.
  EXPECT_EQ(result.status, SolveStatus::Error);
  EXPECT_NE(result.error.find("eps"), std::string::npos);
  EXPECT_EQ(result.solver, "eptas");
}

TEST(ServiceTest, InvalidHandleFailsDetectably) {
  SolveHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.id(), 0u);
  EXPECT_FALSE(handle.done());
  EXPECT_EQ(handle.try_get(), std::nullopt);
  handle.cancel();  // no-op, not a crash
  EXPECT_THROW(handle.wait(), std::logic_error);
  EXPECT_THROW(handle.wait_for(0.01), std::logic_error);
}

TEST(ServiceTest, SubmitValidatesEagerly) {
  SchedulingService service({.num_threads = 1});
  EXPECT_THROW(service.submit(SolveRequest{}), std::invalid_argument);
  auto request = quick_request(1, "greedy-bags");
  request.solvers = {"no-such-solver"};
  EXPECT_THROW(service.submit(std::move(request)), std::invalid_argument);
}

// --- Portfolio through the service ------------------------------------------

TEST(ServiceTest, MultiSolverRequestRunsPortfolioRace) {
  SchedulingService service({.num_threads = 4});
  api::SolveOptions options;
  options.eps = 0.5;
  options.seed = 4;
  auto request = api::make_request(
      api::make_instance("uniform", 120, 10, options), options,
      {"local-search", "multifit", "bag-lpt"});
  auto handle = service.submit(std::move(request));
  const auto& result = handle.wait();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.schedule_feasible);
  EXPECT_EQ(api::stat_int(result.stats, "portfolio_members"), 3);
  // Per-member summaries ride along as JSON.
  const std::string runs_json =
      api::stat_str(result.stats, "portfolio_runs_json");
  ASSERT_FALSE(runs_json.empty());
  const util::Json runs = util::Json::parse(runs_json);
  ASSERT_EQ(runs.size(), 3u);
  double best = 1e300;
  for (const auto& run : runs.as_array()) {
    best = std::min(best, run.at("makespan").as_number());
  }
  EXPECT_DOUBLE_EQ(best, result.makespan);
}

TEST(ServiceTest, PortfolioRequestEmitsExactlyOneLifecycle) {
  // Nested member lifecycles must not leak: one Queued, one Started, one
  // terminal Finished per request id, no matter how many members race.
  SchedulingService service({.num_threads = 4});
  std::atomic<int> queued{0}, started{0}, finished{0};
  api::SolveOptions options;
  options.seed = 4;
  auto request = api::make_request(
      api::make_instance("uniform", 80, 8, options), options,
      {"local-search", "multifit", "bag-lpt"});
  request.on_progress = [&](const ProgressEvent& event) {
    if (event.kind == ProgressKind::Queued) ++queued;
    if (event.kind == ProgressKind::Started) ++started;
    if (event.kind == ProgressKind::Finished) ++finished;
  };
  auto handle = service.submit(std::move(request));
  ASSERT_TRUE(handle.wait().ok());
  EXPECT_EQ(queued.load(), 1);
  EXPECT_EQ(started.load(), 1);
  EXPECT_EQ(finished.load(), 1);
}

TEST(ServiceTest, CertificateCancelsStragglersAndAllHandlesResolve) {
  // Through the portfolio-as-service-client path: once the MILP (or the
  // EPTAS) certifies on this small instance, the slow exact straggler is
  // cooperatively cancelled and every member handle still resolves.
  const auto instance = api::make_instance("uniform", 200, 16, {.seed = 4});
  api::Portfolio portfolio({"eptas", "exact", "greedy-bags"});
  api::SolveOptions options;
  options.eps = 0.5;
  options.time_limit_seconds = 20.0;
  const auto race = portfolio.solve(instance, options);
  ASSERT_TRUE(race.ok());
  ASSERT_EQ(race.runs.size(), 3u);
  for (const auto& run : race.runs) {
    EXPECT_FALSE(run.solver.empty());  // every handle resolved with a result
  }
  EXPECT_LT(race.wall_seconds, options.time_limit_seconds + 10.0);
  // cancelled_count counts exactly the runs that observed the stop.
  int observed = 0;
  for (const auto& run : race.runs) {
    if (run.cancelled) ++observed;
  }
  EXPECT_EQ(race.cancelled_count, observed);
}

// --- Shutdown ---------------------------------------------------------------

TEST(ServiceTest, DestructorResolvesQueuedRequestsAsCancelled) {
  std::vector<SolveHandle> handles;
  {
    SchedulingService service({.num_threads = 1, .max_concurrent = 1});
    handles.push_back(service.submit(hog_request()));
    for (int i = 0; i < 3; ++i) {
      handles.push_back(
          service.submit(quick_request(static_cast<std::uint64_t>(i + 1),
                                       "greedy-bags")));
    }
    // Service goes out of scope with one running and three queued.
  }
  for (auto& handle : handles) {
    ASSERT_TRUE(handle.done());
    const auto& result = handle.wait();
    EXPECT_EQ(result.status, SolveStatus::Cancelled);
  }
}

TEST(ServiceTest, ShutdownCountsQueuedSessionOpsAsSubmittedBeforeFinished) {
  // Deltas queued behind a running solve are drained at shutdown. They were
  // counted as submitted when admitted, so no snapshot taken while they
  // resolve may show more finished than submitted ops.
  std::mutex mutex;
  std::vector<api::ServiceStats> seen;
  std::vector<SolveHandle> deltas;
  {
    SchedulingService service({.num_threads = 1, .max_concurrent = 1});
    auto opening =
        service.open_session(quick_request(4, "greedy-bags"));
    ASSERT_TRUE(opening.initial.wait().ok());
    auto blocker = service.submit(hog_request());
    for (int i = 0; i < 3; ++i) {
      model::Delta delta;
      delta.arrivals.push_back({0.5, 0});
      auto request = api::make_delta_request(opening.session, delta);
      request.on_progress = [&](const ProgressEvent& event) {
        if (event.kind != ProgressKind::Finished) return;
        std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(service.stats());
      };
      deltas.push_back(service.submit(std::move(request)));
    }
  }
  ASSERT_EQ(seen.size(), deltas.size());
  for (const auto& stats : seen) {
    EXPECT_LE(stats.finished, stats.submitted);
  }
  for (auto& handle : deltas) {
    EXPECT_EQ(handle.wait().status, SolveStatus::Cancelled);
  }
}

}  // namespace
}  // namespace bagsched
