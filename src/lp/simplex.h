// Dense two-phase primal simplex.
//
// This is the exact-LP substrate standing in for the theoretical
// Lenstra/Kannan oracle of the paper (see DESIGN.md §3). Scope decisions:
//  * dense tableau — our MILP relaxations are small (hundreds of rows and
//    columns), where a dense tableau beats a sparse revised implementation
//    in both simplicity and constant factors;
//  * Dantzig pricing with an automatic switch to Bland's rule after a burn-in
//    proportional to the problem size, guaranteeing termination;
//  * variable lower bounds handled by shifting; upper bounds (finite or
//    not) by the bounded-variable simplex (nonbasic columns rest at either
//    bound and bound hits become O(rows) flips), so bound changes never
//    change the tableau shape — the property the persistent
//    IncrementalSimplex builds on;
//  * dual-simplex repair pivots for re-solves: an optimal basis stays dual
//    feasible under pure bound/RHS changes, including an upper bound
//    released to +inf (the column keeps a temporary finite bound until
//    it is slack);
//  * a dense pivot kernel: each eliminated row is one contiguous,
//    vectorisable pass over all columns, not a scatter over the pivot
//    row's support.
#pragma once

#include <memory>
#include <vector>

#include "lp/model.h"

namespace bagsched::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpResult {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< values for all model variables
  /// Dual value per model constraint (sign convention: Lagrangian
  /// y with  reduced_cost(col) = c_col - y . a_col  for a minimization
  /// problem). Only filled on Optimal. For Maximize models the duals refer
  /// to the internally minimized (-objective) problem.
  std::vector<double> duals;
  long long iterations = 0;
};

struct SimplexOptions {
  long long max_iterations = 200000;
  double tolerance = 1e-8;
};

/// Solves the model cold; result.x has one entry per model variable.
/// Equivalent to IncrementalSimplex(model, options).resolve(model).
LpResult solve(const Model& model, const SimplexOptions& options = {});

/// Persistent simplex: one tableau kept across many re-solves of the same
/// model under changing variable bounds (branch-and-bound) or a growing
/// set of columns (column generation).
///
/// Bound changes alter only the standardized right-hand side and the
/// column boxes, never the matrix, so each resolve() recomputes the basic
/// solution through the implicit inverse basis (O(rows^2)) and repairs
/// primal feasibility with a handful of dual-simplex pivots — no model
/// copy, no re-standardization and no phase 1. Any bound may change,
/// including an upper bound going from +inf to finite and back. A
/// nonbasic column resting at an upper bound that becomes infinite stays
/// at its value under a temporary bound, which keeps the basis dual
/// feasible; while that bound is binding (negative reduced cost) it is
/// doubled and the dual simplex repairs again, and once it is slack it is
/// dropped. When the changes leave the basis neither primal nor dual
/// feasible, or a temporary bound does not settle, resolve() rebuilds
/// cold.
///
/// Variables appended to the model since the last resolve() (through
/// Model::add_column; the constraint set must stay fixed) join the live
/// tableau on the next resolve(): each costs one B^-1 a product against
/// the artificial block and one reduced cost c - y.a, and enters nonbasic
/// at its lower bound. The previous optimal basis therefore stays primal
/// feasible and the re-solve runs only primal phase-2 pivots.
class IncrementalSimplex {
 public:
  explicit IncrementalSimplex(const Model& model,
                              const SimplexOptions& options = {});
  ~IncrementalSimplex();
  IncrementalSimplex(IncrementalSimplex&&) noexcept;
  IncrementalSimplex& operator=(IncrementalSimplex&&) noexcept;

  /// Re-solves against the variable bounds currently stored in `model`
  /// (which must be the construction model, possibly with changed bounds
  /// and appended columns). The first call performs the one full
  /// cold solve.
  LpResult resolve(const Model& model);

  /// Cold setups (standardization + phase 1) so far: 1 after the first
  /// resolve(), more only when a re-solve had to rebuild.
  long long cold_starts() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

const char* to_string(SolveStatus status);

}  // namespace bagsched::lp
