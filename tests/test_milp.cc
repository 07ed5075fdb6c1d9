// Tests for the branch-and-bound MILP solver.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using lp::Model;
using lp::Objective;
using lp::Sense;
using milp::MilpStatus;

TEST(MilpTest, KnapsackSmall) {
  // max 8a + 11b + 6c + 4d  s.t. 5a + 7b + 4c + 3d <= 14, binary.
  // Optimum: a + c + d = 18? check combos: b+c+d = 21 weight 14 -> 21.
  Model model;
  model.set_objective(Objective::Maximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<int> vars;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(model.add_variable(values[i], 0.0, 1.0));
    row.emplace_back(vars.back(), weights[i]);
  }
  model.add_constraint(row, Sense::LessEqual, 14.0);
  const auto result = milp::solve(model, vars);
  ASSERT_EQ(result.status, MilpStatus::Optimal);
  EXPECT_NEAR(result.objective, 21.0, 1e-6);
  EXPECT_NEAR(result.x[1], 1.0, 1e-6);
  EXPECT_NEAR(result.x[2], 1.0, 1e-6);
  EXPECT_NEAR(result.x[3], 1.0, 1e-6);
}

TEST(MilpTest, IntegralityMatters) {
  // max x s.t. 2x <= 3: LP gives 1.5, MILP must give 1.
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0);
  model.add_constraint({{x, 2.0}}, Sense::LessEqual, 3.0);
  const auto result = milp::solve(model, {x});
  ASSERT_EQ(result.status, MilpStatus::Optimal);
  EXPECT_NEAR(result.objective, 1.0, 1e-6);
}

TEST(MilpTest, MixedIntegerKeepsContinuousFractional) {
  // min x + y s.t. x + y >= 2.5, x integer, y continuous.
  // Optimum: x = 0, y = 2.5 (or any split) -> objective 2.5.
  Model model;
  const int x = model.add_variable(1.0);
  const int y = model.add_variable(1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 2.5);
  const auto result = milp::solve(model, {x});
  ASSERT_EQ(result.status, MilpStatus::Optimal);
  EXPECT_NEAR(result.objective, 2.5, 1e-6);
  EXPECT_NEAR(result.x[static_cast<std::size_t>(x)],
              std::round(result.x[static_cast<std::size_t>(x)]), 1e-6);
}

TEST(MilpTest, DetectsInfeasible) {
  Model model;
  const int x = model.add_variable(1.0, 0.0, 1.0);
  model.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  const auto result = milp::solve(model, {x});
  EXPECT_EQ(result.status, MilpStatus::Infeasible);
}

TEST(MilpTest, IntegerInfeasibleThoughLpFeasible) {
  // 0.5 <= x <= 0.7 has LP solutions but no integer ones.
  Model model;
  const int x = model.add_variable(1.0, 0.0, 0.7);
  model.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 0.5);
  const auto result = milp::solve(model, {x});
  EXPECT_EQ(result.status, MilpStatus::Infeasible);
}

TEST(MilpTest, EqualityWithIntegers) {
  // 3x + 5y = 14, minimize x + y, x,y >= 0 integers: no solution with
  // x=3,y=1 (9+5=14) -> objective 4.
  Model model;
  const int x = model.add_variable(1.0);
  const int y = model.add_variable(1.0);
  model.add_constraint({{x, 3.0}, {y, 5.0}}, Sense::Equal, 14.0);
  const auto result = milp::solve(model, {x, y});
  ASSERT_EQ(result.status, MilpStatus::Optimal);
  EXPECT_NEAR(result.objective, 4.0, 1e-6);
}

TEST(MilpTest, BinPackingAsMilp) {
  // 6 items of sizes {4,4,3,3,2,2} into bins of capacity 9: 2 bins suffice
  // (4+3+2, 4+3+2). Configuration MILP over explicit assignment vars.
  const double sizes[] = {4, 4, 3, 3, 2, 2};
  const int items = 6, bins = 3;
  Model model;
  std::vector<int> use(bins);       // bin opened
  std::vector<std::vector<int>> assign(items, std::vector<int>(bins));
  for (int b = 0; b < bins; ++b) use[b] = model.add_variable(1.0, 0.0, 1.0);
  for (int i = 0; i < items; ++i) {
    for (int b = 0; b < bins; ++b) {
      assign[i][b] = model.add_variable(0.0, 0.0, 1.0);
    }
  }
  for (int i = 0; i < items; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int b = 0; b < bins; ++b) row.emplace_back(assign[i][b], 1.0);
    model.add_constraint(row, Sense::Equal, 1.0);
  }
  for (int b = 0; b < bins; ++b) {
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < items; ++i) row.emplace_back(assign[i][b], sizes[i]);
    row.emplace_back(use[b], -9.0);
    model.add_constraint(row, Sense::LessEqual, 0.0);
  }
  std::vector<int> integers = use;
  for (int i = 0; i < items; ++i) {
    for (int b = 0; b < bins; ++b) integers.push_back(assign[i][b]);
  }
  milp::MilpOptions options;
  options.max_nodes = 100000;
  const auto result = milp::solve(model, integers, options);
  ASSERT_TRUE(result.status == MilpStatus::Optimal ||
              result.status == MilpStatus::Feasible);
  EXPECT_NEAR(result.objective, 2.0, 1e-6);
}

TEST(MilpTest, RespectsNodeLimit) {
  Model model;
  model.set_objective(Objective::Maximize);
  const int x = model.add_variable(1.0, 0.0, 10.0);
  model.add_constraint({{x, 2.0}}, Sense::LessEqual, 7.0);
  milp::MilpOptions options;
  options.max_nodes = 1;
  const auto result = milp::solve(model, {x}, options);
  // With one node the root LP (x=3.5) branches and stops; either nothing
  // integral was found (LimitReached) or bounding got lucky.
  EXPECT_TRUE(result.status == MilpStatus::LimitReached ||
              result.status == MilpStatus::Feasible ||
              result.status == MilpStatus::Optimal);
}

class RandomIlpTest : public ::testing::TestWithParam<int> {};

/// Random small ILP: max c.x, A x <= b, x in {0,1,2}^4, checked against
/// brute force over the 3^4 = 81 points. With `row_bounded` the integer
/// variables have no upper bound; extra rows x_i <= 2 bound them instead,
/// so branching moves their upper bounds between +inf and finite values.
void expect_matches_brute_force(int seed, bool row_bounded) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7919);
  Model model;
  model.set_objective(Objective::Maximize);
  const int n = 4;
  std::vector<double> costs(n);
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    costs[static_cast<std::size_t>(i)] = rng.uniform_real(0.5, 3.0);
    vars.push_back(model.add_variable(costs[static_cast<std::size_t>(i)],
                                      0.0, row_bounded ? lp::kInfinity : 2.0));
  }
  std::vector<std::vector<double>> rows(3, std::vector<double>(n));
  std::vector<double> rhs(3);
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < n; ++i) {
      rows[r][static_cast<std::size_t>(i)] = rng.uniform_real(0.0, 2.0);
    }
    rhs[static_cast<std::size_t>(r)] = rng.uniform_real(2.0, 6.0);
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < n; ++i) {
      terms.emplace_back(vars[static_cast<std::size_t>(i)],
                         rows[r][static_cast<std::size_t>(i)]);
    }
    model.add_constraint(std::move(terms), Sense::LessEqual,
                         rhs[static_cast<std::size_t>(r)]);
  }
  if (row_bounded) {
    for (const int var : vars) {
      model.add_constraint({{var, 1.0}}, Sense::LessEqual, 2.0);
    }
  }
  const auto result = milp::solve(model, vars);
  ASSERT_EQ(result.status, MilpStatus::Optimal);

  double brute_best = -1.0;
  for (int a = 0; a <= 2; ++a)
    for (int b = 0; b <= 2; ++b)
      for (int c = 0; c <= 2; ++c)
        for (int d = 0; d <= 2; ++d) {
          const double point[] = {double(a), double(b), double(c),
                                  double(d)};
          bool ok = true;
          for (int r = 0; r < 3 && ok; ++r) {
            double lhs = 0;
            for (int i = 0; i < n; ++i) lhs += rows[r][i] * point[i];
            ok = lhs <= rhs[static_cast<std::size_t>(r)] + 1e-9;
          }
          if (!ok) continue;
          double value = 0;
          for (int i = 0; i < n; ++i) value += costs[i] * point[i];
          brute_best = std::max(brute_best, value);
        }
  EXPECT_NEAR(result.objective, brute_best, 1e-6);
  EXPECT_LE(model.max_violation(result.x), 1e-6);
}

TEST_P(RandomIlpTest, MatchesBruteForceOnSmallInstances) {
  expect_matches_brute_force(GetParam(), /*row_bounded=*/false);
}

TEST_P(RandomIlpTest, MatchesBruteForceWithRowBoundedIntegers) {
  expect_matches_brute_force(GetParam(), /*row_bounded=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIlpTest, ::testing::Range(1, 11));

TEST(MilpTest, BestBoundReportedOnTruncatedSearch) {
  // max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, binary.
  // LP relaxation = 22; integral optimum = 21.
  Model model;
  model.set_objective(Objective::Maximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<int> vars;
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(model.add_variable(values[i], 0.0, 1.0));
    row.emplace_back(vars.back(), weights[i]);
  }
  model.add_constraint(row, Sense::LessEqual, 14.0);

  // One node: the root LP is solved and fractional, then the budget is
  // gone. No incumbent exists, but the root relaxation is a proven bound
  // and LimitReached must carry it (portfolio gap decisions rely on it).
  milp::MilpOptions options;
  options.max_nodes = 1;
  const auto truncated = milp::solve(model, vars, options);
  EXPECT_EQ(truncated.status, MilpStatus::LimitReached);
  EXPECT_NEAR(truncated.best_bound, 22.0, 1e-6);

  // A slightly larger budget finds an incumbent; best_bound must bracket
  // the true optimum from the relaxation side (>= 21 for maximization)
  // while the incumbent bounds it from below.
  milp::MilpOptions partial;
  partial.max_nodes = 4;
  const auto feasible = milp::solve(model, vars, partial);
  if (feasible.status == MilpStatus::Feasible ||
      feasible.status == MilpStatus::Optimal) {
    EXPECT_LE(feasible.objective, 21.0 + 1e-9);
    EXPECT_GE(feasible.best_bound, 21.0 - 1e-6);
    EXPECT_GE(feasible.best_bound, feasible.objective - 1e-9);
  } else {
    EXPECT_EQ(feasible.status, MilpStatus::LimitReached);
    EXPECT_GE(feasible.best_bound, 21.0 - 1e-6);
  }

  // Untruncated run: proven optimal, bound meets the objective.
  const auto full = milp::solve(model, vars);
  ASSERT_EQ(full.status, MilpStatus::Optimal);
  EXPECT_NEAR(full.objective, 21.0, 1e-6);
  EXPECT_NEAR(full.best_bound, 21.0, 1e-6);
  EXPECT_GT(full.lp_iterations, 0);
}

}  // namespace
}  // namespace bagsched
