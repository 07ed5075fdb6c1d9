// Tests for the dense two-phase simplex: optimality on known LPs,
// infeasibility/unboundedness detection, bounds, duals, and a randomized
// cross-check against feasibility of the returned point.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using lp::Model;
using lp::Objective;
using lp::Sense;
using lp::SolveStatus;

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> opt 36 at (2, 6).
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(3.0);
  const int y = model.add_variable(5.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  model.add_constraint({{y, 2.0}}, Sense::LessEqual, 12.0);
  model.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::LessEqual, 18.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 36.0, 1e-7);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(SimplexTest, SimpleMinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 2  -> opt 20 at (10, 0)? No:
  // cost(2,8) = 4+24=28, cost(10,0)=20 -> optimum (10,0), value 20.
  Model model;
  const int x = model.add_variable(2.0);
  const int y = model.add_variable(3.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 10.0);
  model.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 20.0, 1e-7);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 4, x <= 1  -> x=0, y=2, obj 2.
  Model model;
  const int x = model.add_variable(1.0, 0.0, 1.0);
  const int y = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::Equal, 4.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-7);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model model;
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 1.0);
  model.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  EXPECT_EQ(lp::solve(model).status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, -1.0}}, Sense::LessEqual, 0.0);  // -x <= 0
  EXPECT_EQ(lp::solve(model).status, SolveStatus::Unbounded);
}

TEST(SimplexTest, RespectsVariableBounds) {
  // max x + y with 1 <= x <= 3, y <= 2.
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0, 1.0, 3.0);
  const int y = model.add_variable(1.0, 0.0, 2.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(SimplexTest, LowerBoundShiftWorks) {
  // min x s.t. x >= 5 via bound -> x = 5.
  Model model;
  const int x = model.add_variable(1.0, 5.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)], 5.0, 1e-7);
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // x - y <= -2  (i.e. y >= x + 2), min y -> x=0, y=2.
  Model model;
  const int x = model.add_variable(0.0);
  const int y = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::LessEqual, -2.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-7);
}

TEST(SimplexTest, DualsSatisfyStrongDuality) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6.
  Model model;
  const int x = model.add_variable(2.0);
  const int y = model.add_variable(3.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 4.0);
  model.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::GreaterEqual, 6.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  ASSERT_EQ(result.duals.size(), 2u);
  // Strong duality: b^T y == optimal objective.
  const double dual_objective =
      4.0 * result.duals[0] + 6.0 * result.duals[1];
  EXPECT_NEAR(dual_objective, result.objective, 1e-6);
  // Dual feasibility for a min problem with >= rows: duals >= 0 and
  // A^T y <= c.
  EXPECT_GE(result.duals[0], -1e-9);
  EXPECT_GE(result.duals[1], -1e-9);
  EXPECT_LE(result.duals[0] + result.duals[1], 2.0 + 1e-7);
  EXPECT_LE(result.duals[0] + 3.0 * result.duals[1], 3.0 + 1e-7);
}

TEST(SimplexTest, DualSignForLessEqualRows) {
  // max x s.t. x <= 7: dual of the row (in the minimized problem) is -1.
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}}, Sense::LessEqual, 7.0);
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 7.0, 1e-7);
  EXPECT_NEAR(result.duals[0], -1.0, 1e-7);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Klee-Minty-flavoured degenerate LP; Bland fallback must terminate it.
  Model model;
  model.set_objective(Objective::Maximize);
  std::vector<int> vars;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    vars.push_back(model.add_variable(std::pow(2.0, n - 1 - i)));
  }
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < i; ++j) {
      terms.emplace_back(vars[static_cast<std::size_t>(j)],
                         std::pow(2.0, i - j + 1));
    }
    terms.emplace_back(vars[static_cast<std::size_t>(i)], 1.0);
    model.add_constraint(std::move(terms), Sense::LessEqual,
                         std::pow(5.0, i + 1));
  }
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, std::pow(5.0, n), 1e-4);
}

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, ReturnedPointIsFeasibleAndNoWorseThanSamples) {
  // Property: on random feasible-by-construction LPs, the simplex returns a
  // feasible point whose objective beats any random feasible sample.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  Model model;
  const int n = 5;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(model.add_variable(rng.uniform_real(-3.0, 3.0)));
  }
  // Rows a.x <= b with a >= 0 and b > 0: x = 0 is always feasible.
  for (int r = 0; r < 6; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < n; ++i) {
      terms.emplace_back(vars[static_cast<std::size_t>(i)],
                         rng.uniform_real(0.0, 2.0));
    }
    model.add_constraint(std::move(terms), Sense::LessEqual,
                         rng.uniform_real(1.0, 5.0));
  }
  // Box to keep it bounded.
  for (int i = 0; i < n; ++i) {
    model.mutable_variable(vars[static_cast<std::size_t>(i)]).upper = 10.0;
  }
  const auto result = lp::solve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_LE(model.max_violation(result.x), 1e-6);
  // Random feasible samples cannot beat the optimum (minimization).
  for (int s = 0; s < 50; ++s) {
    std::vector<double> sample(static_cast<std::size_t>(n));
    for (auto& value : sample) value = rng.uniform_real(0.0, 1.0);
    if (model.max_violation(sample) <= 0.0) {
      EXPECT_GE(model.objective_value(sample), result.objective - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(1, 13));

/// Knapsack-relaxation model used by the IncrementalSimplex tests:
/// maximize value within one capacity row, binaries relaxed to [0, 1].
/// With `unbounded_item` a fifth item of value 5 and weight 2 — the best
/// ratio — has no upper bound; only the capacity row bounds it.
Model knapsack_model(bool unbounded_item = false) {
  Model model;
  model.set_objective(Objective::Maximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 4; ++i) {
    row.emplace_back(model.add_variable(values[i], 0.0, 1.0), weights[i]);
  }
  if (unbounded_item) row.emplace_back(model.add_variable(5.0), 2.0);
  model.add_constraint(std::move(row), Sense::LessEqual, 14.0);
  return model;
}

TEST(IncrementalSimplexTest, MatchesColdAcrossBoundChanges) {
  for (const bool unbounded_item : {false, true}) {
    Model model = knapsack_model(unbounded_item);
    const int items = model.num_variables();
    lp::IncrementalSimplex incremental(model);
    const auto root = incremental.resolve(model);
    ASSERT_EQ(root.status, SolveStatus::Optimal);
    // All capacity to the best ratio: x4 = 7 when it has no upper bound.
    EXPECT_NEAR(root.objective, unbounded_item ? 35.0 : 22.0, 1e-9);

    // A branch-and-bound-like walk: change bounds, resolve, undo, repeat.
    // Every resolve must match a from-scratch solve of the same bounds.
    // The unbounded item gets a finite upper bound of 1 or 2 instead of
    // being fixed: the repair drives it onto that bound, where it rests
    // nonbasic until the undo hands it +inf back.
    util::Xoshiro256 rng(17);
    for (int step = 0; step < 40; ++step) {
      const std::string where =
          std::string(unbounded_item ? "unbounded" : "boxed") + " step " +
          std::to_string(step);
      const int var = static_cast<int>(rng.uniform_int(0, items - 1));
      const double fixed = rng.uniform_int(0, 1) == 0 ? 0.0 : 1.0;
      const double old_lower = model.variable(var).lower;
      const double old_upper = model.variable(var).upper;
      if (std::isfinite(old_upper)) {
        model.mutable_variable(var).lower = fixed;
        model.mutable_variable(var).upper = fixed;
      } else {
        model.mutable_variable(var).upper = fixed + 1.0;
      }
      const auto warm = incremental.resolve(model);
      const auto cold = lp::solve(model);
      ASSERT_EQ(warm.status, cold.status) << where;
      if (cold.status == SolveStatus::Optimal) {
        EXPECT_NEAR(warm.objective, cold.objective, 1e-9) << where;
        EXPECT_LE(model.max_violation(warm.x), 1e-6) << where;
      }
      model.mutable_variable(var).lower = old_lower;
      model.mutable_variable(var).upper = old_upper;
      const auto undone = incremental.resolve(model);
      ASSERT_EQ(undone.status, SolveStatus::Optimal) << where;
      EXPECT_NEAR(undone.objective, root.objective, 1e-9) << where;
      EXPECT_LE(model.max_violation(undone.x), 1e-6) << where;
    }
  }
}

TEST(IncrementalSimplexTest, RecoversAfterInfeasibleNode) {
  // x + y = 1; fixing both to 1 is infeasible, and the solver must keep
  // working for the next (feasible) node afterwards.
  Model model;
  const int x = model.add_variable(1.0, 0.0, 1.0);
  const int y = model.add_variable(2.0, 0.0, 1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 1.0);
  lp::IncrementalSimplex incremental(model);
  ASSERT_EQ(incremental.resolve(model).status, SolveStatus::Optimal);

  model.mutable_variable(x).lower = 1.0;
  model.mutable_variable(y).lower = 1.0;
  EXPECT_EQ(incremental.resolve(model).status, SolveStatus::Infeasible);

  model.mutable_variable(y).lower = 0.0;
  model.mutable_variable(y).upper = 0.0;
  const auto result = incremental.resolve(model);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_NEAR(result.objective, 1.0, 1e-9);  // x = 1, y = 0
}

TEST(IncrementalSimplexTest, ReleasedUpperBoundResolvesWarm) {
  // Branch-and-bound jumps on a covering master: minimise cost with rows
  // a.x >= b met by unbounded columns or a cost-100 penalty each, and at
  // most 30 columns' worth in all. A down branch x <= floor(x) rests a
  // column at its finite upper bound; the jump releases that bound to +inf
  // together with another column's lower bound change. The released
  // column keeps a temporary bound until it is slack, so no re-solve
  // rebuilds cold, and every objective matches a cold solve.
  int released_at_upper = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Xoshiro256 rng(seed);
    Model model;
    constexpr int kRows = 6;
    constexpr int kCols = 12;
    for (int c = 0; c < kCols; ++c) {
      model.add_variable(rng.uniform_real(1.0, 3.0));
    }
    std::vector<std::pair<int, double>> machine;
    for (int c = 0; c < kCols; ++c) machine.emplace_back(c, 1.0);
    for (int r = 0; r < kRows; ++r) {
      std::vector<std::pair<int, double>> terms;
      for (int c = 0; c < kCols; ++c) {
        terms.emplace_back(c, static_cast<double>(rng.uniform_int(0, 2)));
      }
      model.add_constraint(std::move(terms), Sense::GreaterEqual,
                           static_cast<double>(rng.uniform_int(2, 6)));
    }
    model.add_constraint(std::move(machine), Sense::LessEqual, 30.0);
    for (int r = 0; r < kRows; ++r) model.add_column(100.0, {{r, 1.0}});

    lp::IncrementalSimplex incremental(model);
    lp::LpResult last = incremental.resolve(model);
    ASSERT_EQ(last.status, SolveStatus::Optimal);
    for (int step = 0; step < 80; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const auto pick = [&] {
        return static_cast<int>(rng.uniform_int(0, kCols - 1));
      };
      const int v = pick();
      lp::Variable& var = model.mutable_variable(v);
      const double x = last.x[static_cast<std::size_t>(v)];
      if (std::isfinite(var.upper)) {
        if (std::abs(x - var.upper) < 1e-9) ++released_at_upper;
        var.upper = lp::kInfinity;
        lp::Variable& other = model.mutable_variable(pick());
        if (!std::isfinite(other.upper)) {
          other.lower = other.lower > 0.0
                            ? 0.0
                            : static_cast<double>(rng.uniform_int(1, 2));
        }
      } else {
        var.upper = std::max(var.lower, std::floor(x));
      }
      const auto warm = incremental.resolve(model);
      const auto cold = lp::solve(model);
      ASSERT_EQ(warm.status, SolveStatus::Optimal) << where;
      ASSERT_EQ(cold.status, SolveStatus::Optimal) << where;
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-9 * std::max(1.0, std::abs(cold.objective)))
          << where;
      EXPECT_LE(model.max_violation(warm.x), 1e-6) << where;
      last = warm;
    }
    EXPECT_EQ(incremental.cold_starts(), 1) << "seed " << seed;
  }
  EXPECT_GE(released_at_upper, 30);
}

/// Random LP for the column-append test: every row carries a high-cost
/// penalty column (two for equality rows), so the model is feasible and,
/// with nonnegative minimization costs or fully boxed maximization, bounded.
/// `degenerate` draws small integer data with zero right-hand sides,
/// duplicate and empty columns — the ties that stall the simplex.
Model random_append_model(util::Xoshiro256& rng, bool degenerate,
                          bool maximize) {
  Model model;
  if (maximize) model.set_objective(Objective::Maximize);
  const int rows = static_cast<int>(rng.uniform_int(2, 8));
  const int cols = static_cast<int>(rng.uniform_int(1, 6));
  const auto coeff = [&] {
    return degenerate ? static_cast<double>(rng.uniform_int(-1, 2))
                      : rng.uniform_real(-1.0, 3.0);
  };
  const auto upper = [&] { return maximize ? rng.uniform_real(1.0, 4.0)
                                           : lp::kInfinity; };
  const auto cost = [&] {
    return degenerate ? static_cast<double>(rng.uniform_int(0, 3))
                      : rng.uniform_real(0.0, 4.0);
  };
  for (int c = 0; c < cols; ++c) model.add_variable(cost(), 0.0, upper());
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int c = 0; c < cols; ++c) terms.emplace_back(c, coeff());
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const Sense sense = kind == 0   ? Sense::LessEqual
                        : kind == 1 ? Sense::GreaterEqual
                                    : Sense::Equal;
    // Negative right-hand sides exercise standardization's row flips.
    const double rhs = degenerate && rng.uniform_int(0, 2) == 0
                           ? 0.0
                           : rng.uniform_real(-3.0, 6.0);
    const double penalty = maximize ? -100.0 : 100.0;
    const int up = model.add_variable(penalty, 0.0, maximize ? 50.0
                                                             : lp::kInfinity);
    terms.emplace_back(up, sense == Sense::LessEqual ? -1.0 : 1.0);
    if (sense == Sense::Equal) {
      const int down =
          model.add_variable(penalty, 0.0, maximize ? 50.0 : lp::kInfinity);
      terms.emplace_back(down, -1.0);
    }
    model.add_constraint(std::move(terms), sense, rhs);
  }
  return model;
}

/// Reduced costs c - y.a of the (internally minimized) model must have the
/// sign of an optimal basis: >= 0 where x can still rise, <= 0 where it can
/// still drop.
void expect_dual_feasible(const Model& model, const lp::LpResult& result,
                          const std::string& where) {
  const double sign =
      model.objective() == Objective::Maximize ? -1.0 : 1.0;
  std::vector<double> reduced(static_cast<std::size_t>(model.num_variables()));
  for (int v = 0; v < model.num_variables(); ++v) {
    reduced[static_cast<std::size_t>(v)] = sign * model.variable(v).objective;
  }
  for (int r = 0; r < model.num_constraints(); ++r) {
    for (const auto& [v, a] : model.constraint(r).terms) {
      reduced[static_cast<std::size_t>(v)] -=
          result.duals[static_cast<std::size_t>(r)] * a;
    }
  }
  for (int v = 0; v < model.num_variables(); ++v) {
    const lp::Variable& var = model.variable(v);
    const double x = result.x[static_cast<std::size_t>(v)];
    const double rc = reduced[static_cast<std::size_t>(v)];
    if (x < var.upper - 1e-7) EXPECT_GE(rc, -1e-6) << where << " var " << v;
    if (x > var.lower + 1e-7) EXPECT_LE(rc, 1e-6) << where << " var " << v;
  }
}

TEST(IncrementalSimplexTest, AppendedColumnsMatchColdSolves) {
  // Column generation on the live tableau: solve, append columns (one or
  // several per round, some duplicating or zero), re-solve warm, and
  // compare with a cold solve of the extended model every round.
  constexpr int kSeeds = 240;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
    const bool degenerate = seed % 2 == 0;
    const bool maximize = seed % 4 == 1;
    Model model = random_append_model(rng, degenerate, maximize);
    lp::IncrementalSimplex incremental(model);
    const std::string replay = "seed " + std::to_string(seed);
    ASSERT_EQ(incremental.resolve(model).status, SolveStatus::Optimal)
        << replay;
    const int rounds = static_cast<int>(rng.uniform_int(1, 6));
    for (int round = 0; round < rounds; ++round) {
      const int batch = static_cast<int>(rng.uniform_int(1, 3));
      for (int k = 0; k < batch; ++k) {
        std::vector<std::pair<int, double>> column;
        const int shape = static_cast<int>(rng.uniform_int(0, 5));
        if (shape == 0 && model.num_variables() > 0) {
          // Duplicate of an existing variable's column.
          const int twin = static_cast<int>(
              rng.uniform_int(0, model.num_variables() - 1));
          for (int r = 0; r < model.num_constraints(); ++r) {
            for (const auto& [v, a] : model.constraint(r).terms) {
              if (v == twin) column.emplace_back(r, a);
            }
          }
        } else if (shape != 1) {  // shape 1: an empty column
          for (int r = 0; r < model.num_constraints(); ++r) {
            if (rng.uniform_int(0, 2) == 0) continue;
            column.emplace_back(r, degenerate
                                       ? static_cast<double>(
                                             rng.uniform_int(-1, 2))
                                       : rng.uniform_real(-2.0, 3.0));
          }
        }
        const double cost =
            degenerate ? static_cast<double>(rng.uniform_int(0, 3))
                       : rng.uniform_real(0.0, 3.0);
        model.add_column(cost, std::move(column), 0.0,
                         maximize ? rng.uniform_real(1.0, 4.0)
                                  : lp::kInfinity);
      }
      const std::string where = replay + " round " + std::to_string(round);
      const auto warm = incremental.resolve(model);
      const auto cold = lp::solve(model);
      ASSERT_EQ(cold.status, SolveStatus::Optimal) << where;
      ASSERT_EQ(warm.status, SolveStatus::Optimal) << where;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-7) << where;
      EXPECT_LE(model.max_violation(warm.x), 1e-7) << where;
      expect_dual_feasible(model, warm, where);
    }
  }
}

TEST(IncrementalSimplexTest, AppendAfterBoundChangesStaysConsistent) {
  // The two uses share one tableau: a column appended after a bound walk
  // still matches the cold solve, and so do the bound changes after it.
  Model model = knapsack_model();
  lp::IncrementalSimplex incremental(model);
  ASSERT_EQ(incremental.resolve(model).status, SolveStatus::Optimal);
  model.mutable_variable(1).upper = 0.0;
  ASSERT_EQ(incremental.resolve(model).status, SolveStatus::Optimal);
  model.add_column(9.0, {{0, 4.0}}, 0.0, 1.0);  // value 9, weight 4
  const auto appended = incremental.resolve(model);
  ASSERT_EQ(appended.status, SolveStatus::Optimal);
  EXPECT_NEAR(appended.objective, lp::solve(model).objective, 1e-9);
  model.mutable_variable(1).upper = 1.0;
  model.mutable_variable(4).upper = 0.0;
  const auto restored = incremental.resolve(model);
  ASSERT_EQ(restored.status, SolveStatus::Optimal);
  EXPECT_NEAR(restored.objective, lp::solve(model).objective, 1e-9);
}

TEST(IncrementalSimplexTest, AppendThroughARedundantRowRebuildsCold) {
  // Row 1 is row 0 doubled: phase 1 cannot pivot its artificial out, so
  // the tableau has no basis column for it. A new column that breaks the
  // redundancy cannot join the live tableau; the resolve must rebuild.
  Model model;
  const int x = model.add_variable(1.0);
  const int y = model.add_variable(2.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 1.0);
  model.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::Equal, 2.0);
  lp::IncrementalSimplex incremental(model);
  const auto root = incremental.resolve(model);
  ASSERT_EQ(root.status, SolveStatus::Optimal);
  EXPECT_NEAR(root.objective, 1.0, 1e-9);

  // Two profitable columns whose entries in the redundant row (whichever
  // of the two it is) have opposite signs: without the rebuild one of them
  // would drive that row's artificial upward, unblocked.
  model.add_column(-1.0, {{0, 1.0}, {1, 1.0}});
  model.add_column(-1.0, {{0, 1.0}, {1, 3.0}});
  const auto appended = incremental.resolve(model);
  const auto cold = lp::solve(model);
  ASSERT_EQ(appended.status, SolveStatus::Optimal);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  EXPECT_NEAR(appended.objective, cold.objective, 1e-9);
  EXPECT_LE(model.max_violation(appended.x), 1e-9);
  EXPECT_EQ(incremental.cold_starts(), 2);
  EXPECT_THROW(model.add_column(1.0, {{2, 1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace bagsched
