// Exact branch-and-bound solver: the ground-truth OPT against which
// approximation ratios are measured (DESIGN.md experiment E1/E9), and the
// optimal region re-placement of online sessions (DESIGN.md §7).
//
// One engine does both. It is a depth-first search over job -> machine
// assignments of the free jobs in LPT order, with machine-symmetry breaking
// (at most one fresh machine), bag pruning, the area lower bound and an
// equal-load-and-equal-bag-row dominance rule. With one thread the DFS runs
// from the root on the calling thread. With more, the top of the tree is
// expanded breadth-first into stealable subtree frames that util::ThreadPool
// workers drain with the same DFS; the incumbent is a std::atomic<double>
// published via CAS, so every worker prunes against the globally best
// makespan, and improvements are re-checked under a mutex before the
// schedule is recorded and on_incumbent fires (emissions stay monotone).
//
// Determinism: for a budget large enough to finish the search, the
// returned makespan and proven_optimal are identical at every thread count.
// One thread visits the same nodes in the same order on every run; with
// more, node counts and which optimal schedule wins a tie may vary.
#pragma once

#include <functional>
#include <vector>

#include "model/instance.h"
#include "model/schedule.h"
#include "util/cancellation.h"

namespace bagsched::sched {

struct ExactOptions {
  /// Node budget. Every worker polls it, the time limit, cancellation and
  /// the `solver.stall.exact` fault point once per 8192 of its own nodes,
  /// so a search may run up to that many nodes per worker past a limit.
  long long max_nodes = 50'000'000;
  double time_limit_seconds = 30.0;
  /// Cooperative cancellation, polled alongside the time limit.
  const util::CancellationToken* cancel = nullptr;
  /// Invoked with the incumbent makespan: once for the starting schedule
  /// and again every time the search improves on it. Runs on a solving
  /// thread inside the search loop (serialized) — keep it cheap.
  std::function<void(double makespan)> on_incumbent;
  /// Search threads; 0 = hardware concurrency. 1 searches on the calling
  /// thread without a pool.
  int num_threads = 1;
};

struct ExactResult {
  model::Schedule schedule;
  double makespan = 0.0;
  bool proven_optimal = false;
  long long nodes = 0;
  bool cancelled = false;  ///< search stopped by the cancellation token
};

/// Solves to optimality when the budget allows; otherwise returns the best
/// schedule found with proven_optimal == false. Starts from a local-search
/// schedule with every job free.
ExactResult solve_exact(const model::Instance& instance,
                        const ExactOptions& options = {});

/// Fixed-remainder search: re-places only `free_jobs`, every other job
/// stays where `start` puts it. `start` is the first incumbent and is
/// returned when nothing strictly better exists; proven_optimal means
/// optimal among schedules that agree with `start` off `free_jobs`.
/// Throws std::invalid_argument when `start` does not validate or
/// `free_jobs` holds an out-of-range or repeated id.
ExactResult solve_exact(const model::Instance& instance,
                        const model::Schedule& start,
                        const std::vector<model::JobId>& free_jobs,
                        const ExactOptions& options = {});

}  // namespace bagsched::sched
