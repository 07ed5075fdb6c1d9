// The unified solver surface: every scheduling algorithm in the library is
// reachable through Solver::solve(instance, options) -> SolveResult.
//
// Adapters wrap the legacy entry points (eptas::eptas_schedule,
// sched::solve_exact, the heuristics, the assignment MILP) behind one
// contract:
//   * the instance is validated exactly once, up front; malformed or
//     bag-infeasible instances yield a structured SolveStatus::Infeasible
//     result instead of a throw from one solver and garbage from another;
//   * options (eps, budgets, time limit, seed, cancellation) plumb into the
//     native option structs;
//   * results carry the schedule, makespan, lower bound, optimality gap,
//     wall time and per-solver telemetry in one shape.
#pragma once

#include <cstdint>
#include <string>

#include "api/progress.h"
#include "api/telemetry.h"
#include "eptas/config.h"
#include "model/instance.h"
#include "model/schedule.h"
#include "util/cancellation.h"

namespace bagsched::api {

/// What a solver promises about its output.
enum class Guarantee {
  Exact,      ///< proven optimal when the budget allows
  Eptas,      ///< (1 + eps) * OPT when the pipeline certifies
  Heuristic,  ///< feasible, no a-priori ratio
  Reference,  ///< ignores the bag-constraints; lower-bound reference only
};

const char* to_string(Guarantee guarantee);

/// Enumerable metadata describing a registered solver.
struct SolverInfo {
  std::string name;         ///< registry key, e.g. "eptas"
  std::string summary;      ///< one-line description
  Guarantee guarantee = Guarantee::Heuristic;
  bool exact = false;         ///< can prove optimality
  bool respects_bags = true;  ///< output satisfies the bag-constraints
  std::string guarantee_text;  ///< e.g. "(1+eps)*OPT", "optimal"
  std::string typical_scale;   ///< e.g. "n <= 24", "n <= 1e6"
};

/// How a request interacts with the service's canonicalizing solve cache
/// (src/cache). The cache key is the instance's canonical fingerprint —
/// invariant under job re-ordering and bag relabeling — plus the solver
/// selection and the result-relevant options, so "identical request" means
/// identical up to those symmetries.
enum class CacheMode {
  Off,        ///< bypass the cache entirely (default)
  Read,       ///< serve hits, but never store this request's result
  ReadWrite,  ///< serve hits and store cacheable results
};

const char* to_string(CacheMode mode);

/// Options shared by every solver; each adapter reads the fields that apply
/// to it and ignores the rest.
struct SolveOptions {
  /// EPTAS approximation parameter in (0, 1).
  double eps = 0.5;
  /// Wall-clock budget for exact search / MILP (seconds).
  double time_limit_seconds = 30.0;
  /// Node budget for the exact branch-and-bound.
  long long max_nodes = 50'000'000;
  /// Accepted-move budget for local search.
  long long max_moves = 200'000;
  /// Worker threads for "exact-parallel"; 0 = hardware concurrency.
  int num_threads = 0;
  /// Binary-search refinements for multifit.
  int multifit_iterations = 24;
  /// PRNG seed: reaches gen::generators (via make_instance) and the
  /// local-search scan order so runs are reproducible.
  std::uint64_t seed = 1;
  /// Large-job threshold for the "greedy-stack" adversarial baseline.
  double stack_threshold = 0.5;
  /// Solve-cache interaction when the request runs through a
  /// SchedulingService (direct Solver::solve calls never consult a cache).
  /// Requests also single-flight: concurrent identical requests share one
  /// underlying solve when their cache_mode is not Off.
  CacheMode cache_mode = CacheMode::Off;
  /// Cooperative cancellation, polled inside the solver hot loops.
  const util::CancellationToken* cancel = nullptr;
  /// Streaming progress: Incumbent events from the incumbent-maintaining
  /// solvers (exact, milp, local-search) and Phase events from the EPTAS
  /// adapter. Invoked on the solving thread; must be thread-safe when the
  /// same options are shared across a portfolio. Empty = no streaming.
  ProgressFn progress;
  /// Advanced EPTAS tuning (priority caps, rescue, guess grid, MILP budgets).
  /// time_limit_seconds and cancel override the nested MILP settings.
  eptas::EptasConfig eptas;
};

enum class SolveStatus {
  Optimal,     ///< schedule proven optimal (gap 0)
  Feasible,    ///< feasible schedule, optimality not proven
  Infeasible,  ///< instance malformed or no feasible schedule exists
  Error,       ///< solver failed for a non-instance reason (bad options,
               ///< internal failure); the instance may well be solvable
  /// Cancellation (deadline expiry, handle.cancel(), a pre-fired token)
  /// determined the outcome. The result may still carry the best incumbent
  /// found before the stop — when it does, `schedule_feasible`, `makespan`
  /// and `optimality_gap` are filled in exactly as for Feasible results, so
  /// callers can use a deadline-cut schedule without special-casing.
  Cancelled,
};

const char* to_string(SolveStatus status);

struct SolveResult {
  std::string solver;  ///< registry name of the producing solver
  SolveStatus status = SolveStatus::Infeasible;
  model::Schedule schedule;
  double makespan = 0.0;
  double lower_bound = 0.0;     ///< combined lower bound on OPT
  double optimality_gap = 0.0;  ///< makespan / max(lower bound, proven) - 1
  bool proven_optimal = false;
  /// Schedule passes model::validate (complete + bag-feasible). False for
  /// the bag-ignoring reference solvers even when status is Feasible.
  bool schedule_feasible = false;
  bool cancelled = false;  ///< cancellation observed (result may still hold
                           ///< the best incumbent found before the stop)
  /// Migration cost, filled only by the online delta sessions (src/online):
  /// jobs present both before and after a delta whose machine changed,
  /// counted through the delta's machine renumbering (pure relabeling is
  /// not migration). -1 = not a delta result.
  int moved_jobs = -1;
  /// moved_jobs / surviving jobs; 0 when moved_jobs is -1 or no survivors.
  double migration_ratio = 0.0;
  double wall_seconds = 0.0;
  std::string error;  ///< diagnostics when status == Infeasible
  Telemetry stats;    ///< per-solver typed telemetry

  /// True when the result carries a usable schedule.
  bool ok() const {
    return status == SolveStatus::Optimal ||
           status == SolveStatus::Feasible;
  }
};

class Solver {
 public:
  virtual ~Solver() = default;

  const SolverInfo& info() const { return info_; }
  const std::string& name() const { return info_.name; }

  /// Validates the instance once, runs the algorithm, post-fills the shared
  /// result fields (lower bound, gap, wall time, schedule feasibility).
  /// Never throws on infeasible input; returns a structured error instead.
  SolveResult solve(const model::Instance& instance,
                    const SolveOptions& options = {}) const;

 protected:
  explicit Solver(SolverInfo info) : info_(std::move(info)) {}

  /// Algorithm body; the instance has already been validated.
  virtual void run(const model::Instance& instance,
                   const SolveOptions& options, SolveResult& result) const = 0;

 private:
  SolverInfo info_;
};

}  // namespace bagsched::api
