// Branch-and-bound MILP solver on top of lp::IncrementalSimplex.
//
// Together with the simplex this replaces the paper's theoretical
// Kannan/Lenstra fixed-dimension MILP oracle: the EPTAS only requires *some*
// exact solver for its pattern MILP, and best-bound B&B is exact. Branching
// changes variable bounds only, so nodes are zero-copy: one mutable model
// carries apply/undo bound deltas, the maximize->minimize flip happens once
// at the root, and every node LP re-solves one persistent
// lp::IncrementalSimplex tableau under the node's bounds via dual-simplex
// repair pivots — integer variables with or without a finite upper bound
// alike. Best-bound node order with plunging dives keeps consecutive LPs
// one bound apart. The tableau may be the caller's: the EPTAS master
// branches on its column generation LP without rebuilding it.
#pragma once

#include <functional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/cancellation.h"

namespace bagsched::milp {

enum class MilpStatus {
  Optimal,        ///< proven optimal integral solution
  Feasible,       ///< integral incumbent found, search truncated by limits
  Infeasible,     ///< LP relaxation (or all branches) infeasible
  LimitReached,   ///< limits hit before any integral solution was found
};

struct MilpOptions {
  long long max_nodes = 20000;
  double time_limit_seconds = 60.0;
  double integrality_tolerance = 1e-6;
  /// Relative gap at which the search stops with status Optimal.
  double relative_gap = 1e-9;
  /// Cooperative cancellation, polled once per node.
  const util::CancellationToken* cancel = nullptr;
  /// Invoked with the incumbent objective (in the model's orientation)
  /// every time a better integral solution is found. Runs on the solving
  /// thread between node relaxations — keep it cheap.
  std::function<void(double objective)> on_incumbent;
  lp::SimplexOptions lp_options;
};

struct MilpResult {
  MilpStatus status = MilpStatus::LimitReached;
  double objective = 0.0;
  std::vector<double> x;
  long long nodes_explored = 0;
  /// Proven bound on the optimum, in the model's objective orientation
  /// (a lower bound when minimizing, an upper bound when maximizing).
  /// Valid on every exit, including truncated LimitReached runs, so
  /// callers can compute a correct optimality gap; +-infinity when the
  /// search stopped before bounding the root relaxation.
  double best_bound = 0.0;
  long long lp_iterations = 0;  ///< simplex iterations across all node LPs
  /// True iff the cancellation token (not the node/time budget) stopped
  /// the search, so callers can count real cancellations exactly.
  bool cancelled = false;
};

/// Branch-and-bound on a live relaxation: `model` is a minimisation model
/// and `simplex` an lp::IncrementalSimplex over it, possibly already
/// solved — a column generation loop hands its tableau over this way, so
/// the root LP costs no pivots. Node bounds are applied to `model` in
/// place and restored before returning; columns must not be added
/// meanwhile. options.lp_options is not read: the simplex has its own.
/// Throws std::invalid_argument on a maximisation model.
MilpResult solve(lp::Model& model, lp::IncrementalSimplex& simplex,
                 const std::vector<int>& integer_variables,
                 const MilpOptions& options = {});

/// Solves model with the given variables required integral.
/// The model's objective sense is respected: the search runs on a
/// minimisation copy with its own simplex (options.lp_options).
MilpResult solve(const lp::Model& model,
                 const std::vector<int>& integer_variables,
                 const MilpOptions& options = {});

const char* to_string(MilpStatus status);

}  // namespace bagsched::milp
