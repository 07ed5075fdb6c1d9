#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

namespace bagsched::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One row of the standardized problem: a * x {<=,>=,=} rhs, variables
/// shifted to x' in [0, upper - lower]. Standardization never changes the
/// sense: a negative RHS is handled by negating the row numerically
/// (`flipped`), so the tableau column layout depends only on the senses
/// and is invariant under variable-bound changes — the property the
/// persistent IncrementalSimplex relies on. Upper bounds are
/// NOT rows: the bounded-variable simplex keeps nonbasic columns at either
/// bound.
struct StdRow {
  std::vector<std::pair<int, double>> terms;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
  bool flipped = false;  ///< standardization multiplied the row by -1
};

/// Dense bounded-variable tableau simplex working on the standardized rows.
///
/// Column layout: [structural | slack/surplus (one per non-Equal row) |
/// artificial (one per row)], then RHS; the layout is a function of the
/// senses only. The RHS column always holds the CURRENT basic values x_B
/// (which account for nonbasic-at-upper columns), so pivots update it
/// explicitly rather than by blind row elimination. Every artificial
/// column is +e_r and doubles as column r of the implicit inverse basis.
/// Rows are stored with a stride that may exceed num_cols + 1: appended
/// structural columns (column generation) shift only the slack,
/// artificial and RHS tail of each row into the spare room.
class Tableau {
 public:
  Tableau(const std::vector<StdRow>& rows, int num_structural,
          const SimplexOptions& options)
      : num_rows_(static_cast<int>(rows.size())),
        num_structural_(num_structural),
        options_(options) {
    int extra = 0;
    for (const StdRow& row : rows) {
      if (row.sense != Sense::Equal) ++extra;
    }
    first_artificial_ = num_structural_ + extra;
    num_cols_ = first_artificial_ + num_rows_;
    stride_ = static_cast<std::size_t>(num_cols_) + 1;

    matrix_.assign(static_cast<std::size_t>(num_rows_) * stride_, 0.0);
    basis_.assign(static_cast<std::size_t>(num_rows_), -1);
    upper_.assign(static_cast<std::size_t>(num_cols_), kInf);
    at_upper_.assign(static_cast<std::size_t>(num_cols_), 0);
    temporary_.assign(static_cast<std::size_t>(num_cols_), 0);
    in_basis_.assign(static_cast<std::size_t>(num_cols_), 0);

    int next_extra = num_structural_;
    dual_column_.assign(static_cast<std::size_t>(num_rows_), -1);
    dual_sign_.assign(static_cast<std::size_t>(num_rows_), 0.0);
    for (int r = 0; r < num_rows_; ++r) {
      const StdRow& row = rows[static_cast<std::size_t>(r)];
      for (const auto& [var, coeff] : row.terms) at(r, var) = coeff;
      rhs(r) = row.rhs;
      const double f = row.flipped ? -1.0 : 1.0;
      const int artificial = first_artificial_ + r;
      at(r, artificial) = 1.0;  // +e_r regardless of flip state
      if (row.sense == Sense::Equal) {
        basis_[static_cast<std::size_t>(r)] = artificial;
        // y_r = -f * reduced(artificial): artificial is +e_r of the
        // (possibly negated) row, cost 0 in phase 2.
        dual_column_[static_cast<std::size_t>(r)] = artificial;
        dual_sign_[static_cast<std::size_t>(r)] = -f;
      } else {
        // Slack (+1 for <=) or surplus (-1 for >=), negated with the row.
        const double base = row.sense == Sense::LessEqual ? 1.0 : -1.0;
        const double coeff = f * base;
        at(r, next_extra) = coeff;
        basis_[static_cast<std::size_t>(r)] =
            coeff > 0.0 ? next_extra : artificial;
        // Dual of the ORIGINAL row from the slack/surplus reduced cost;
        // the f factors from the column sign and the row negation cancel
        // into a sense-only sign.
        dual_column_[static_cast<std::size_t>(r)] = next_extra;
        dual_sign_[static_cast<std::size_t>(r)] =
            row.sense == Sense::LessEqual ? -1.0 : 1.0;
        ++next_extra;
      }
      in_basis_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(r)])] = 1;
    }
  }

  /// Installs the structural upper bounds (in shifted space, i.e.
  /// upper - lower per variable; kInf for unbounded). Must be called
  /// before solving and again whenever the model's bounds change.
  ///
  /// A nonbasic column resting at an upper bound that became infinite does
  /// not drop to its lower bound: with a reduced cost <= 0 that would leave
  /// the basis neither primal nor dual feasible. It keeps its current value
  /// as a temporary finite bound instead, which leaves the basis dual
  /// feasible; settle_temporary_bounds() lifts that bound again.
  void set_structural_uppers(const std::vector<double>& uppers) {
    for (int c = 0; c < num_structural_; ++c) {
      const auto k = static_cast<std::size_t>(c);
      const bool hold = !std::isfinite(uppers[k]) && at_upper_[k];
      temporary_[k] = hold ? 1 : 0;
      if (!hold) upper_[k] = uppers[k];
    }
  }

  bool has_temporaries() const {
    return std::find(temporary_.begin(), temporary_.end(), 1) !=
           temporary_.end();
  }

  /// After an optimal re-solve: a temporarily bounded column that left its
  /// bound (basic, or at its lower bound) gets its infinite bound back,
  /// and one still held there with a negative reduced cost (the bound is
  /// binding) has the bound doubled. Returns true when a bound was
  /// doubled; the caller then recomputes the basic values and repairs
  /// them, which the dual simplex does from the still dual feasible basis.
  bool settle_temporary_bounds() {
    bool widened = false;
    for (int c = 0; c < num_structural_; ++c) {
      const auto k = static_cast<std::size_t>(c);
      if (!temporary_[k]) continue;
      if (!at_upper_[k]) {
        upper_[k] = kInf;
        temporary_[k] = 0;
      } else if (reduced_[k] < -options_.tolerance) {
        upper_[k] = std::max(2.0 * upper_[k], 1.0);
        widened = true;
      }
    }
    return widened;
  }

  /// Dual value of standardized row r (valid after an optimal phase 2).
  double dual_of_row(int r) const {
    const int col = dual_column_[static_cast<std::size_t>(r)];
    if (col < 0) return 0.0;
    return dual_sign_[static_cast<std::size_t>(r)] *
           reduced_[static_cast<std::size_t>(col)];
  }

  /// Runs phase 1 (feasibility); assumes the fresh-construction state
  /// (everything nonbasic at lower, RHS >= 0).
  SolveStatus phase1(long long& iterations) {
    // Cost: minimize sum of artificial variables.
    cost_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int c = first_artificial_; c < num_cols_; ++c) {
      cost_[static_cast<std::size_t>(c)] = 1.0;
    }
    build_reduced_costs();
    const SolveStatus status = iterate(iterations);
    if (status != SolveStatus::Optimal) return status;
    if (objective_value() > 1e-6) return SolveStatus::Infeasible;
    pivot_out_artificials();
    return SolveStatus::Optimal;
  }

  /// Runs phase 2 with the given structural costs (minimization).
  SolveStatus phase2(const std::vector<double>& structural_cost,
                     long long& iterations) {
    load_phase2_costs(structural_cost);
    return iterate(iterations);
  }

  /// Recomputes every reduced cost from the tableau: after appended
  /// columns, and against drift — pivot updates carry round-off forward,
  /// and across the hundreds of pivots of a column generation run it
  /// reaches the size of real reduced costs.
  void refresh_reduced_costs() { build_reduced_costs(); }

  /// Re-optimizes from the current basis against the phase-2 costs
  /// already loaded. A dual feasible basis (always the case after pure
  /// RHS/bound changes to an optimal one) runs dual-simplex pivots to
  /// restore primal feasibility, then primal iterations finish up —
  /// usually in zero additional pivots. A basis that is primal but not
  /// dual feasible — the state after appending columns with negative
  /// reduced cost — resumes with primal phase-2 pivots. Returns nullopt
  /// when the basis is neither, in which case the caller must cold-start.
  std::optional<SolveStatus> resume(long long& iterations) {
    if (dual_feasible()) return repair_and_iterate(iterations);
    // Dual infeasible (stale costs): still usable when primal feasible.
    const double tol = options_.tolerance;
    for (int r = 0; r < num_rows_; ++r) {
      const double value = rhs_const(r);
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      if (value < -tol || value > u + tol) return std::nullopt;
    }
    return iterate(iterations);
  }

  /// True when every allowed column's reduced cost respects its bound
  /// state (>= 0 at lower, <= 0 at upper, tolerantly).
  bool dual_feasible() const {
    const double tol = loose_tolerance();
    for (int c = 0; c < num_cols_; ++c) {
      if (!column_allowed(c)) continue;
      const double r = reduced_[static_cast<std::size_t>(c)];
      if (at_upper_[static_cast<std::size_t>(c)] ? r > tol : r < -tol) {
        return false;
      }
    }
    return true;
  }

  /// Dual-simplex repair of primal feasibility from a dual-feasible basis,
  /// followed by primal iterations to optimality.
  SolveStatus repair_and_iterate(long long& iterations) {
    const double tol = options_.tolerance;
    for (;;) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::IterationLimit;
      }
      // Leaving row: the basic value violating its box the most.
      int row = -1;
      bool above = false;
      double worst = tol;
      for (int r = 0; r < num_rows_; ++r) {
        const double value = rhs_const(r);
        if (-value > worst) {
          worst = -value;
          row = r;
          above = false;
        }
        const double u = upper_[static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(r)])];
        if (std::isfinite(u) && value - u > worst) {
          worst = value - u;
          row = r;
          above = true;
        }
      }
      if (row < 0) break;  // primal feasible
      // Entering column: dual ratio test over sign-valid columns. For a
      // below-lower violation the leaving value must rise, for an
      // above-upper one it must drop; at-upper columns move downwards.
      int col = -1;
      double best_ratio = kInf;
      for (int c = 0; c < num_cols_; ++c) {
        if (!column_allowed(c) || in_basis_[static_cast<std::size_t>(c)]) {
          continue;
        }
        const double a = at_const(row, c);
        const bool up = at_upper_[static_cast<std::size_t>(c)] != 0;
        bool valid;
        if (!above) {
          valid = up ? a > tol : a < -tol;
        } else {
          valid = up ? a < -tol : a > tol;
        }
        if (!valid) continue;
        const double r = reduced_[static_cast<std::size_t>(c)];
        const double ratio = (up ? -r : r) / std::abs(a);
        // Harris-style tie-break: among (near-)tied ratios — ubiquitous on
        // these degenerate assignment LPs — take the largest pivot
        // element, which both stabilizes the basis and stalls less.
        if (ratio < best_ratio - tol ||
            (ratio < best_ratio + tol && col >= 0 &&
             std::abs(a) > std::abs(at_const(row, col)))) {
          best_ratio = ratio;
          col = c;
        }
      }
      if (col < 0) return SolveStatus::Infeasible;  // dual ray
      // Drive the leaving variable exactly onto its violated bound.
      const int leaving = basis_[static_cast<std::size_t>(row)];
      const double target =
          above ? upper_[static_cast<std::size_t>(leaving)] : 0.0;
      bounded_pivot(row, col, (rhs_const(row) - target) / at_const(row, col));
      at_upper_[static_cast<std::size_t>(leaving)] = above ? 1 : 0;
      ++iterations;
    }
    return iterate(iterations);
  }

  /// Recomputes the basic solution for new standardized RHS + bounds
  /// through the implicit inverse basis: effective_rhs = std_rhs minus the
  /// at-upper structural columns (given by `structural_cols`, the original
  /// sparse matrix columns), then x_B = B^-1 * effective_rhs where column
  /// r of B^-1 is the artificial column of row r.
  void update_rhs(
      const std::vector<double>& std_rhs,
      const std::vector<std::vector<std::pair<int, double>>>&
          structural_cols) {
    scratch_.assign(static_cast<std::size_t>(num_rows_), 0.0);
    effective_.assign(std_rhs.begin(), std_rhs.end());
    for (int c = 0; c < num_structural_; ++c) {
      if (!at_upper_[static_cast<std::size_t>(c)]) continue;
      const double u = upper_[static_cast<std::size_t>(c)];
      for (const auto& [r, a] : structural_cols[static_cast<std::size_t>(c)]) {
        effective_[static_cast<std::size_t>(r)] -= a * u;
      }
    }
    for (int k = 0; k < num_rows_; ++k) {
      const double value = effective_[static_cast<std::size_t>(k)];
      if (value == 0.0) continue;
      const int col = first_artificial_ + k;
      for (int r = 0; r < num_rows_; ++r) {
        scratch_[static_cast<std::size_t>(r)] += value * at_const(r, col);
      }
    }
    for (int r = 0; r < num_rows_; ++r) {
      rhs(r) = scratch_[static_cast<std::size_t>(r)];
    }
  }

  /// Writes all structural values at once (x must have num_structural
  /// entries): nonbasic columns contribute their bound, basic rows their
  /// current value.
  void structural_values(std::vector<double>& x) const {
    for (int c = 0; c < num_structural_; ++c) {
      x[static_cast<std::size_t>(c)] =
          at_upper_[static_cast<std::size_t>(c)]
              ? upper_[static_cast<std::size_t>(c)]
              : 0.0;
    }
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < num_structural_) {
        x[static_cast<std::size_t>(b)] = rhs_const(r);
      }
    }
  }

  double objective_value() const {
    double value = 0.0;
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      value += cost_[static_cast<std::size_t>(b)] * rhs_const(r);
    }
    for (int c = 0; c < num_cols_; ++c) {
      if (at_upper_[static_cast<std::size_t>(c)]) {
        value += cost_[static_cast<std::size_t>(c)] *
                 upper_[static_cast<std::size_t>(c)];
      }
    }
    return value;
  }

  /// Appends a structural column (given in standardized row space: row
  /// flips already applied) nonbasic at its lower bound, after phase 2.
  /// Its tableau column is B^-1 a, read off the artificial block. Its
  /// reduced cost is left for refresh_reduced_costs(), due once the last
  /// column of a batch is in. Returns false — leaving the tableau
  /// untouched — when the column reaches a redundant row whose artificial
  /// is still basic; the caller then rebuilds cold.
  bool append_column(const std::vector<std::pair<int, double>>& terms,
                     double cost, double upper) {
    column_.assign(static_cast<std::size_t>(num_rows_), 0.0);
    for (const auto& [k, a] : terms) {
      const int inverse_col = first_artificial_ + k;
      for (int r = 0; r < num_rows_; ++r) {
        column_[static_cast<std::size_t>(r)] += a * at_const(r, inverse_col);
      }
    }
    for (int r = 0; r < num_rows_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] >= first_artificial_ &&
          std::abs(column_[static_cast<std::size_t>(r)]) >
              options_.tolerance) {
        return false;
      }
    }

    // Open column `slot` by shifting each row's slack/artificial/RHS tail
    // one to the right, growing the stride when the spare room is used up.
    const int slot = num_structural_;
    const std::size_t tail =
        static_cast<std::size_t>(num_cols_ - slot) + 1;
    if (static_cast<std::size_t>(num_cols_) + 2 > stride_) {
      const std::size_t stride = static_cast<std::size_t>(num_cols_) + 2 +
                                 std::max<std::size_t>(16, stride_ / 2);
      std::vector<double> grown(static_cast<std::size_t>(num_rows_) * stride,
                                0.0);
      for (int r = 0; r < num_rows_; ++r) {
        std::copy_n(row_ptr(r), num_cols_ + 1,
                    grown.data() + static_cast<std::size_t>(r) * stride);
      }
      matrix_ = std::move(grown);
      stride_ = stride;
    }
    for (int r = 0; r < num_rows_; ++r) {
      double* row = row_ptr(r);
      std::copy_backward(row + slot, row + slot + tail, row + slot + tail + 1);
      row[slot] = column_[static_cast<std::size_t>(r)];
    }
    const auto at_slot = [slot](auto& values) {
      return values.begin() + slot;
    };
    upper_.insert(at_slot(upper_), upper);
    at_upper_.insert(at_slot(at_upper_), 0);
    temporary_.insert(at_slot(temporary_), 0);
    in_basis_.insert(at_slot(in_basis_), 0);
    cost_.insert(at_slot(cost_), cost);
    reduced_.insert(at_slot(reduced_), 0.0);
    for (int& b : basis_) {
      if (b >= slot) ++b;
    }
    for (int& c : dual_column_) {
      if (c >= slot) ++c;
    }
    ++num_structural_;
    ++first_artificial_;
    ++num_cols_;
    return true;
  }

 private:
  double* row_ptr(int r) {
    return matrix_.data() + static_cast<std::size_t>(r) * stride_;
  }
  const double* row_ptr(int r) const {
    return matrix_.data() + static_cast<std::size_t>(r) * stride_;
  }
  double& at(int r, int c) { return row_ptr(r)[c]; }
  double at_const(int r, int c) const { return row_ptr(r)[c]; }
  double& rhs(int r) { return at(r, num_cols_); }
  double rhs_const(int r) const { return at_const(r, num_cols_); }

  void load_phase2_costs(const std::vector<double>& structural_cost) {
    cost_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int c = 0; c < num_structural_; ++c) {
      cost_[static_cast<std::size_t>(c)] =
          structural_cost[static_cast<std::size_t>(c)];
    }
    build_reduced_costs();
  }

  /// reduced = cost - c_B . B^-1 A, accumulated row by row (rows whose
  /// basic variable costs nothing contribute nothing).
  void build_reduced_costs() {
    reduced_.assign(cost_.begin(), cost_.end());
    for (int r = 0; r < num_rows_; ++r) {
      const double basic_cost =
          cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      if (basic_cost == 0.0) continue;
      const double* row = row_ptr(r);
      for (int c = 0; c < num_cols_; ++c) {
        reduced_[static_cast<std::size_t>(c)] -= basic_cost * row[c];
      }
    }
  }

  bool column_allowed(int c) const {
    // Artificials may never re-enter the basis once phase 1 is done.
    return !(phase1_done_ && c >= first_artificial_);
  }

  /// Slightly looser threshold than the pivot tolerance, absorbing the
  /// round-off that accumulates across re-solves. Scales with the
  /// configured tolerance so looser SimplexOptions stay self-consistent.
  double loose_tolerance() const { return 10.0 * options_.tolerance; }

  /// Eliminates column `col` into +e_row (matrix + reduced costs). The RHS
  /// column is left alone: bounded_pivot updates it explicitly.
  ///
  /// Each eliminated row is one contiguous pass over [0, num_cols): the
  /// pivot row is dense enough on these masters (about 60% nonzero) that a
  /// vectorised sweep beats an indexed scatter over its support, and since
  /// x - f * 0 == x the result is bit-identical to skipping the zeros.
  void pivot(int row, int col) {
    const int cols = num_cols_;
    double* prow = row_ptr(row);
    const double pivot_value = prow[col];
    for (int c = 0; c < cols; ++c) prow[c] /= pivot_value;
    for (int r = 0; r < num_rows_; ++r) {
      if (r == row) continue;
      double* target = row_ptr(r);
      const double factor = target[col];
      if (factor == 0.0) continue;
      eliminate(target, prow, factor, cols);
      target[col] = 0.0;  // exact by construction; keep it sparse
    }
    const double reduced_factor = reduced_[static_cast<std::size_t>(col)];
    if (reduced_factor != 0.0) {
      eliminate(reduced_.data(), prow, reduced_factor, cols);
      reduced_[static_cast<std::size_t>(col)] = 0.0;
    }
    in_basis_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(row)])] = 0;
    in_basis_[static_cast<std::size_t>(col)] = 1;
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// target[c] -= factor * source[c] over [0, cols); the rows never alias.
  static void eliminate(double* __restrict target,
                        const double* __restrict source, double factor,
                        int cols) {
    for (int c = 0; c < cols; ++c) target[c] -= factor * source[c];
  }

  /// Makes `col` basic in `row` with the entering variable moving by
  /// delta_j from its current bound, updating the basic values explicitly
  /// (the RHS column holds x_B, not B^-1 b, once at-upper columns exist).
  void bounded_pivot(int row, int col, double delta_j) {
    const double entering_old =
        at_upper_[static_cast<std::size_t>(col)]
            ? upper_[static_cast<std::size_t>(col)]
            : 0.0;
    for (int r = 0; r < num_rows_; ++r) {
      const double a = at_const(r, col);
      if (a != 0.0) rhs(r) -= delta_j * a;
    }
    rhs(row) = entering_old + delta_j;
    at_upper_[static_cast<std::size_t>(col)] = 0;
    pivot(row, col);
  }

  SolveStatus iterate(long long& iterations) {
    // Switch to Bland's rule after a burn-in to break potential cycles.
    const long long bland_after = 64LL * (num_rows_ + num_cols_) + 1024;
    const double tol = options_.tolerance;
    long long local = 0;
    for (;;) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::IterationLimit;
      }
      const bool bland = local > bland_after;
      // Entering column: most negative reduced cost at lower bound, most
      // positive at upper bound (Dantzig), or first eligible (Bland).
      int entering = -1;
      int dir = 0;
      double best_score = -tol;
      for (int c = 0; c < num_cols_; ++c) {
        if (!column_allowed(c) || in_basis_[static_cast<std::size_t>(c)]) {
          continue;
        }
        const bool up = at_upper_[static_cast<std::size_t>(c)] != 0;
        const double r = reduced_[static_cast<std::size_t>(c)];
        const double score = up ? -r : r;
        if (score < best_score) {
          best_score = score;
          entering = c;
          dir = up ? -1 : 1;
          if (bland) break;
        }
      }
      if (entering < 0) return SolveStatus::Optimal;

      // Bounded ratio test: the entering variable moves by t in direction
      // dir; basic values move by -dir * t * a. Blockers are basics
      // hitting either end of their box, or the entering variable
      // reaching its own opposite bound (a pivot-free flip).
      double t_limit = upper_[static_cast<std::size_t>(entering)];
      int block_row = -1;
      bool block_above = false;
      for (int r = 0; r < num_rows_; ++r) {
        const double a = at_const(r, entering);
        const double delta = -dir * a;  // d x_B[r] / dt
        if (delta < -tol) {
          const double limit = rhs_const(r) / -delta;
          if (limit < t_limit - tol ||
              (limit < t_limit + tol && block_row >= 0 &&
               basis_[static_cast<std::size_t>(r)] <
                   basis_[static_cast<std::size_t>(block_row)])) {
            t_limit = limit;
            block_row = r;
            block_above = false;
          }
        } else if (delta > tol) {
          const double u = upper_[static_cast<std::size_t>(
              basis_[static_cast<std::size_t>(r)])];
          if (!std::isfinite(u)) continue;
          const double limit = (u - rhs_const(r)) / delta;
          if (limit < t_limit - tol ||
              (limit < t_limit + tol && block_row >= 0 &&
               basis_[static_cast<std::size_t>(r)] <
                   basis_[static_cast<std::size_t>(block_row)])) {
            t_limit = limit;
            block_row = r;
            block_above = true;
          }
        }
      }
      if (block_row < 0) {
        if (!std::isfinite(t_limit)) return SolveStatus::Unbounded;
        // Bound flip: the entering variable crosses to its other bound
        // without any basis change — O(rows) instead of a pivot.
        const double delta_j = dir * t_limit;
        for (int r = 0; r < num_rows_; ++r) {
          const double a = at_const(r, entering);
          if (a != 0.0) rhs(r) -= delta_j * a;
        }
        at_upper_[static_cast<std::size_t>(entering)] ^= 1;
      } else {
        const int leaving = basis_[static_cast<std::size_t>(block_row)];
        bounded_pivot(block_row, entering,
                      dir * std::max(t_limit, 0.0));
        at_upper_[static_cast<std::size_t>(leaving)] = block_above ? 1 : 0;
      }
      ++iterations;
      ++local;
    }
  }

  /// After phase 1, tries to drive basic artificials (at value ~0) out of
  /// the basis; rows where that is impossible are redundant and harmless.
  void pivot_out_artificials() {
    const double tol = options_.tolerance;
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < first_artificial_) continue;
      for (int c = 0; c < first_artificial_; ++c) {
        if (std::abs(at_const(r, c)) > tol) {
          // Drive the artificial exactly to zero; the entering variable
          // absorbs the (tiny) residual.
          const int leaving = b;
          bounded_pivot(r, c, rhs_const(r) / at_const(r, c));
          at_upper_[static_cast<std::size_t>(leaving)] = 0;
          break;
        }
      }
    }
    phase1_done_ = true;
  }

  int num_rows_;
  int num_structural_;
  int num_cols_ = 0;
  int first_artificial_ = 0;
  bool phase1_done_ = false;
  SimplexOptions options_;
  std::size_t stride_ = 0;       ///< row pitch of matrix_, >= num_cols + 1
  std::vector<double> matrix_;   ///< num_rows x stride_, row-major
  std::vector<double> reduced_;  ///< reduced costs per column
  std::vector<double> cost_;
  std::vector<int> basis_;
  std::vector<double> upper_;          ///< box size per column (shifted)
  std::vector<unsigned char> at_upper_;  ///< nonbasic-at-upper flags
  /// Per column: upper_ is a temporary bound standing in for +inf.
  std::vector<unsigned char> temporary_;
  std::vector<unsigned char> in_basis_;  ///< membership flag per column
  std::vector<int> dual_column_;   ///< per row: column whose rc encodes y_r
  std::vector<double> dual_sign_;  ///< per row: sign applied to that rc
  std::vector<double> scratch_;    ///< update_rhs workspace
  std::vector<double> effective_;  ///< update_rhs workspace
  std::vector<double> column_;     ///< append_column workspace
};

/// Standardized rows for the model: lower bounds shifted out, negative RHS
/// handled by numeric negation (sense preserved). Upper bounds do not
/// produce rows — the bounded-variable simplex handles them.
std::vector<StdRow> standardize(const Model& model) {
  std::vector<StdRow> rows;
  rows.reserve(static_cast<std::size_t>(model.num_constraints()));
  for (const Constraint& constraint : model.constraints()) {
    StdRow row;
    row.sense = constraint.sense;
    double rhs = constraint.rhs;
    for (const auto& [var, coeff] : constraint.terms) {
      rhs -= coeff * model.variable(var).lower;
      row.terms.emplace_back(var, coeff);
    }
    if (rhs < 0.0) {
      rhs = -rhs;
      for (auto& [var, coeff] : row.terms) coeff = -coeff;
      row.flipped = true;
    }
    row.rhs = rhs;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Shifted upper bounds (upper - lower) per variable.
std::vector<double> shifted_uppers(const Model& model) {
  std::vector<double> uppers(
      static_cast<std::size_t>(model.num_variables()), kInf);
  for (int v = 0; v < model.num_variables(); ++v) {
    const Variable& var = model.variable(v);
    if (std::isfinite(var.upper)) {
      uppers[static_cast<std::size_t>(v)] = var.upper - var.lower;
    }
  }
  return uppers;
}

/// True when some variable's bounds cross (empty box -> infeasible).
bool bounds_crossed(const Model& model, double tol) {
  for (int v = 0; v < model.num_variables(); ++v) {
    const Variable& var = model.variable(v);
    if (var.lower > var.upper + tol) return true;
  }
  return false;
}

/// Result assembly: structural values shifted back by the lower bounds,
/// objective and duals.
void fill_result(const Tableau& tableau, const Model& model,
                 SolveStatus status, LpResult& result) {
  result.status = status;
  if (status != SolveStatus::Optimal) return;
  tableau.structural_values(result.x);
  for (int v = 0; v < model.num_variables(); ++v) {
    result.x[static_cast<std::size_t>(v)] += model.variable(v).lower;
  }
  result.objective = model.objective_value(result.x);
  result.duals.resize(static_cast<std::size_t>(model.num_constraints()));
  for (int r = 0; r < model.num_constraints(); ++r) {
    result.duals[static_cast<std::size_t>(r)] = tableau.dual_of_row(r);
  }
}

}  // namespace

struct IncrementalSimplex::Impl {
  /// Doublings of a released column's temporary bound before resolve()
  /// gives up and rebuilds cold (the column's LP is then unbounded, or
  /// nearly so).
  static constexpr int kMaxWidenings = 64;

  SimplexOptions options;
  int n = 0;
  std::vector<StdRow> rows;        ///< standardized at setup; flips fixed
  std::vector<double> flip_base;   ///< per row: flip_sign * original rhs
  /// Original standardized matrix, column-wise per structural variable:
  /// (row, coefficient) — needed to fold at-upper columns into the RHS.
  std::vector<std::vector<std::pair<int, double>>> structural_cols;
  std::vector<double> cost;        ///< minimization-oriented costs
  std::unique_ptr<Tableau> tableau;
  std::vector<double> std_rhs;     ///< workspace
  std::vector<double> uppers;      ///< workspace (shifted uppers)
  bool ready = false;  ///< tableau carries a reusable (dual-feasible) basis
  long long cold_starts = 0;  ///< setup() + phase 1 runs so far

  /// (Re-)standardizes against the model's current bounds. Fixes the flip
  /// pattern — and with it the matrix — until the next rebuild.
  void setup(const Model& model) {
    n = model.num_variables();
    rows = standardize(model);
    flip_base.assign(rows.size(), 0.0);
    structural_cols.assign(static_cast<std::size_t>(n), {});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double f = rows[r].flipped ? -1.0 : 1.0;
      flip_base[r] =
          f * model.constraint(static_cast<int>(r)).rhs;
      for (const auto& [var, coeff] : rows[r].terms) {
        structural_cols[static_cast<std::size_t>(var)].emplace_back(
            static_cast<int>(r), coeff);
      }
    }
    cost.assign(static_cast<std::size_t>(n), 0.0);
    const bool maximize = model.objective() == Objective::Maximize;
    for (int v = 0; v < n; ++v) {
      const double c = model.variable(v).objective;
      cost[static_cast<std::size_t>(v)] = maximize ? -c : c;
    }
    tableau = std::make_unique<Tableau>(rows, n, options);
  }

  /// Standardized RHS under the model's current bounds, using the flip
  /// pattern fixed at setup (entries may be negative; dual simplex copes).
  void compute_rhs(const Model& model) {
    std_rhs.assign(rows.size(), 0.0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double rhs = flip_base[r];
      for (const auto& [var, coeff] : rows[r].terms) {
        rhs -= coeff * model.variable(var).lower;
      }
      std_rhs[r] = rhs;
    }
  }

  LpResult extract(const Model& model, SolveStatus status,
                   long long iterations) const {
    LpResult result;
    result.iterations = iterations;
    result.x.assign(static_cast<std::size_t>(n), 0.0);
    fill_result(*tableau, model, status, result);
    return result;
  }

  /// Feeds the variables the model gained since the last resolve into the
  /// live tableau, with the flip pattern fixed at setup. False when the
  /// tableau cannot take them (changed rows, or a redundant row the new
  /// column reaches); the caller then rebuilds cold.
  bool append_new_columns(const Model& model) {
    const int total = model.num_variables();
    if (model.num_constraints() != static_cast<int>(rows.size())) {
      return false;
    }
    // Column entries per new variable, read off the tail of each row (a
    // new variable has the largest index, so Model::add_column appends).
    std::vector<std::vector<std::pair<int, double>>> fresh(
        static_cast<std::size_t>(total - n));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& terms = model.constraint(static_cast<int>(r)).terms;
      const double f = rows[r].flipped ? -1.0 : 1.0;
      for (auto it = terms.rbegin(); it != terms.rend() && it->first >= n;
           ++it) {
        fresh[static_cast<std::size_t>(it->first - n)].emplace_back(
            static_cast<int>(r), f * it->second);
      }
    }
    const bool maximize = model.objective() == Objective::Maximize;
    for (auto& column : fresh) {
      const int v = n;
      std::reverse(column.begin(), column.end());  // ascending rows
      const Variable& var = model.variable(v);
      const double c = maximize ? -var.objective : var.objective;
      const double upper =
          std::isfinite(var.upper) ? var.upper - var.lower : kInf;
      if (!tableau->append_column(column, c, upper)) return false;
      for (const auto& [r, a] : column) {
        rows[static_cast<std::size_t>(r)].terms.emplace_back(v, a);
      }
      structural_cols.push_back(std::move(column));
      cost.push_back(c);
      ++n;
    }
    return true;
  }

  LpResult resolve(const Model& model) {
    long long iterations = 0;
    if (ready && model.num_variables() > n) {
      // Column generation: the new columns join the live tableau, then the
      // reduced-cost row is rebuilt once per round (as costly as one
      // pivot), which also sheds round-off that could fake optimality.
      if (append_new_columns(model)) {
        tableau->refresh_reduced_costs();
      } else {
        ready = false;
      }
    }
    if (bounds_crossed(model, options.tolerance)) {
      LpResult result;
      result.status = SolveStatus::Infeasible;
      result.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
      return result;
    }
    if (!ready) {
      // Cold start: standardize fresh (RHS >= 0 under the current bounds
      // by construction), full phase 1 + phase 2.
      setup(model);
      ++cold_starts;
      tableau->set_structural_uppers(shifted_uppers(model));
      SolveStatus status = tableau->phase1(iterations);
      if (status == SolveStatus::Optimal) {
        status = tableau->phase2(cost, iterations);
        // Phase-2 costs are loaded into the reduced costs, so the basis
        // is reusable; a phase-1 failure leaves phase-1 costs behind and
        // forces a rebuild on the next resolve.
        ready = true;
      }
      return extract(model, status, iterations);
    }
    uppers = shifted_uppers(model);
    tableau->set_structural_uppers(uppers);
    compute_rhs(model);
    std::optional<SolveStatus> status;
    for (int widenings = 0;; ++widenings) {
      tableau->update_rhs(std_rhs, structural_cols);
      status = tableau->resume(iterations);
      if (!status) break;
      if (*status == SolveStatus::Infeasible && tableau->has_temporaries()) {
        // A temporary bound may be what made the repair fail, so this is
        // no proof of infeasibility.
        status.reset();
        break;
      }
      if (*status != SolveStatus::Optimal) break;
      if (!tableau->settle_temporary_bounds()) break;
      if (widenings == kMaxWidenings) {  // a released column runs away
        status.reset();
        break;
      }
    }
    if (!status) {
      // Neither dual nor primal feasible (e.g. bound changes on top of an
      // abandoned primal iteration), or the temporary bounds did not
      // settle: rebuild once from scratch.
      ready = false;
      LpResult result = resolve(model);
      result.iterations += iterations;
      return result;
    }
    return extract(model, *status, iterations);
  }
};

IncrementalSimplex::IncrementalSimplex(const Model& model,
                                       const SimplexOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  impl_->n = model.num_variables();  // the full setup runs on first resolve
}

IncrementalSimplex::~IncrementalSimplex() = default;
IncrementalSimplex::IncrementalSimplex(IncrementalSimplex&&) noexcept =
    default;
IncrementalSimplex& IncrementalSimplex::operator=(
    IncrementalSimplex&&) noexcept = default;

LpResult IncrementalSimplex::resolve(const Model& model) {
  return impl_->resolve(model);
}

long long IncrementalSimplex::cold_starts() const {
  return impl_->cold_starts;
}

LpResult solve(const Model& model, const SimplexOptions& options) {
  return IncrementalSimplex(model, options).resolve(model);
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
  }
  return "?";
}

}  // namespace bagsched::lp
