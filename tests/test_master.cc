// Tests for the column-generated master MILP (paper §3 constraints in
// aggregated form).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "eptas/classify.h"
#include "eptas/eptas.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "oracle/master.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using eptas::MasterSolution;
using model::Instance;

struct Prepared {
  Instance scaled;
  eptas::Classification cls;
  eptas::Transformed transformed;
  eptas::PatternSpace space;
};

std::optional<Prepared> prepare(const Instance& instance, double eps,
                                double guess) {
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  for (const auto& job : instance.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  Instance scaled =
      Instance::from_vectors(sizes, bags, instance.num_machines());
  const auto cls = eptas::classify(scaled, eps, EptasConfig{});
  if (!cls) return std::nullopt;
  auto transformed = eptas::transform(scaled, *cls);
  auto space = eptas::build_pattern_space(transformed, *cls);
  return Prepared{std::move(scaled), *cls, std::move(transformed),
                  std::move(space)};
}

void check_master_invariants(const Prepared& prep,
                             const MasterSolution& master) {
  const int m = prep.transformed.instance.num_machines();
  // R1: total multiplicity <= m.
  int total = 0;
  for (int count : master.multiplicity) total += count;
  EXPECT_LE(total, m);

  // R2/R3 coverage: slots >= jobs for every size-restricted class.
  for (int i = 0; i < prep.space.num_priority(); ++i) {
    const auto& pbag = prep.space.priority_bags[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      int slots = 0;
      for (std::size_t p = 0; p < master.patterns.size(); ++p) {
        if (master.patterns[p].pchoice[static_cast<std::size_t>(i)] ==
            static_cast<int>(s)) {
          slots += master.multiplicity[p];
        }
      }
      EXPECT_GE(slots, pbag.counts[s])
          << "priority bag " << i << " size " << s;
    }
  }
  for (int s = 0; s < prep.space.num_x_sizes(); ++s) {
    int slots = 0;
    for (std::size_t p = 0; p < master.patterns.size(); ++p) {
      slots += master.multiplicity[p] *
               master.patterns[p].xcount[static_cast<std::size_t>(s)];
    }
    EXPECT_GE(slots, prep.space.x_avail[static_cast<std::size_t>(s)]);
  }

  // Heights within T'.
  for (const auto& pattern : master.patterns) {
    EXPECT_LE(pattern.height, prep.cls.target_height + 1e-9);
  }
}

TEST(MasterTest, SolvesPlantedAtOpt) {
  const auto planted = gen::planted({.num_machines = 6,
                                     .num_bags = 14,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 5,
                                     .target = 1.0,
                                     .seed = 1});
  const auto prep = prepare(planted.instance, 0.5, planted.opt);
  ASSERT_TRUE(prep.has_value());
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(master.has_value());
  check_master_invariants(*prep, *master);
  EXPECT_GT(master->stats.columns, 0);
}

TEST(MasterTest, SolvesAcrossFamiliesAtGreedyBound) {
  for (const auto& family : {"twopoint", "replica", "figure1"}) {
    const Instance instance = gen::by_name(family, 30, 6, 5);
    // A generous guess (greedy-level) should be solvable.
    const double guess = 1.6 * model::combined_lower_bound(instance);
    const auto prep = prepare(instance, 0.5, guess);
    if (!prep) continue;  // classification may reject the guess; fine
    const auto master = eptas::solve_master(prep->space, prep->transformed,
                                            prep->cls, EptasConfig{});
    if (master) check_master_invariants(*prep, *master);
  }
}

TEST(MasterTest, InfeasibleWhenAreaExceeds) {
  // Guess far below OPT usually dies in classify; craft a case where
  // classification passes but the area row fails: many small jobs.
  std::vector<double> sizes(60, 0.2);
  std::vector<model::BagId> bags;
  for (int i = 0; i < 60; ++i) bags.push_back(i % 20);
  const Instance instance = Instance::from_vectors(sizes, bags, 4);
  // Area = 12, m = 4 -> OPT >= 3. Guess 2.9: scaled area slightly above m.
  const auto prep = prepare(instance, 0.5, 2.0);
  if (!prep) GTEST_SKIP();  // classify already rejected: equally fine
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  EXPECT_FALSE(master.has_value());
}

TEST(MasterTest, Figure1MasterSpreadsLargeJobs) {
  // At guess = OPT the master must not stack two 2/3-jobs on one machine
  // (that pattern's height 4/3 exceeds nothing, but coverage of the tight
  // bag forces spreading via the area row... verify structurally: every
  // pattern holds at most one x slot of the large size).
  const auto planted = gen::figure1({.num_machines = 6, .scale = 1.0,
                                     .seed = 3});
  const auto prep = prepare(planted.instance, 0.4, 1.02 * planted.opt);
  ASSERT_TRUE(prep.has_value());
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(master.has_value());
  check_master_invariants(*prep, *master);
  // T' at eps=0.4 is 1.96: two 2/3-jobs (1.33) would fit the height, but
  // the free-area row (small jobs need m * 1/3) forbids it:
  // sum h_p x_p <= m*T' - area(smalls).
  double worst_height = 0.0;
  for (const auto& pattern : master->patterns) {
    worst_height = std::max(worst_height, pattern.height);
  }
  EXPECT_LE(worst_height, 1.4);  // one large job (rounded) per machine
}

TEST(MasterTest, EmptyMlInstanceTriviallySolvable) {
  // Only small jobs: the master has no coverage rows; empty pattern wins.
  std::vector<double> sizes(20, 0.01);
  std::vector<model::BagId> bags;
  for (int i = 0; i < 20; ++i) bags.push_back(i % 10);
  const Instance instance = Instance::from_vectors(sizes, bags, 4);
  const auto prep = prepare(instance, 0.5, 1.0);
  ASSERT_TRUE(prep.has_value());
  EXPECT_EQ(prep->space.num_priority(), 0);
  EXPECT_EQ(prep->space.num_x_sizes(), 0);
  const auto master = eptas::solve_master(prep->space, prep->transformed,
                                          prep->cls, EptasConfig{});
  ASSERT_TRUE(master.has_value());
}

TEST(MasterTest, WarmColumnGenerationMatchesColdReference) {
  // Path independence of the live-tableau column generation: on the served
  // request families at each instance's final guess, a master whose column
  // generation ended by pricing reports the LP optimum over ALL patterns.
  // A from-scratch column generation that cold-solves every round
  // (lp::solve), starting from the empty pattern alone, must reach the
  // same value: the optimum is unique even where degenerate duals steer
  // the two runs to different columns.
  const EptasConfig config;
  int compared = 0;
  for (const char* family : oracle::kServedFamilies) {
    for (const auto& served : oracle::served_masters(family, 6)) {
      const std::string& replay = served.replay;
      const auto& [_, cls, transformed, space] = served;
      const auto warm = eptas::solve_master(space, transformed, cls, config);
      if (!warm || !warm->stats.lp_optimal) continue;  // ended by a cap
      EXPECT_EQ(warm->stats.pricing_truncations, 0) << replay;

      std::vector<eptas::Pattern> pool{eptas::empty_pattern(space)};
      std::set<std::vector<int>> seen{pool.front().signature()};
      std::optional<double> cold;
      for (int round = 0; round < 2000 && !cold; ++round) {
        const auto lp = oracle::solve_master_lp(space, transformed, cls, pool);
        ASSERT_TRUE(lp.has_value()) << replay << " round " << round;
        eptas::PricingStats pricing;
        const auto column =
            eptas::price_pattern(space, lp->duals, {}, &pricing);
        ASSERT_FALSE(pricing.truncated) << replay;
        if (!column) {
          cold = lp->objective;
        } else {
          ASSERT_TRUE(seen.insert(column->signature()).second)
              << replay << ": cold column generation repeated a column";
          pool.push_back(*column);
        }
      }
      ASSERT_TRUE(cold.has_value()) << replay;
      EXPECT_NEAR(warm->stats.lp_objective, *cold,
                  1e-6 * std::max(1.0, std::abs(*cold)))
          << replay;
      ++compared;
    }
  }
  EXPECT_GE(compared, 25);
}

TEST(MasterTest, IntegralSolveOnTheGenerationTableauMatchesARebuild) {
  // solve_master branches on its column generation tableau. Over the same
  // final pool, a rebuilt master solved cold by milp::solve must reach the
  // same integral optimum and the same verdict on the coverage penalties;
  // only ties between equal-cost optima may differ. Every master also
  // sets up its simplex cold exactly once: branch-and-bound never
  // rebuilds it.
  const EptasConfig config;
  int compared = 0;
  for (const char* family : oracle::kServedFamilies) {
    for (const auto& served : oracle::served_masters(family, 8)) {
      const std::string& replay = served.replay;
      const auto& [_, cls, transformed, space] = served;
      std::vector<eptas::Pattern> pool;
      const auto warm =
          eptas::solve_master(space, transformed, cls, config, &pool);
      ASSERT_FALSE(pool.empty()) << replay;
      const auto cold =
          oracle::solve_master_cold(space, transformed, cls, config, pool);
      ASSERT_TRUE(cold.has_value()) << replay;
      ASSERT_EQ(warm.has_value(), cold->penalty_free) << replay;
      ++compared;
      if (!warm) continue;
      EXPECT_EQ(warm->stats.lp_cold_starts, 1) << replay;
      double objective = 0.0;
      for (std::size_t p = 0; p < warm->patterns.size(); ++p) {
        objective +=
            eptas::pattern_cost(warm->patterns[p]) * warm->multiplicity[p];
      }
      EXPECT_NEAR(objective, cold->objective,
                  1e-9 * std::max(1.0, std::abs(cold->objective)))
          << replay;
    }
  }
  EXPECT_EQ(compared, 40);
}

}  // namespace
}  // namespace bagsched
