// End-to-end tests for the EPTAS: feasibility always, approximation ratio
// against planted/exact optima, and behaviour across instance families.
#include <gtest/gtest.h>

#include "eptas/eptas.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "sched/exact.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using model::Instance;

TEST(EptasTest, EmptyInstance) {
  const Instance instance(std::vector<model::Job>{}, 3, 0);
  const auto result = eptas::eptas_schedule(instance, 0.5);
  EXPECT_EQ(result.makespan, 0.0);
}

TEST(EptasTest, SingleJob) {
  const Instance instance = Instance::from_vectors({2.5}, {0}, 2);
  const auto result = eptas::eptas_schedule(instance, 0.5);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  EXPECT_DOUBLE_EQ(result.makespan, 2.5);
}

TEST(EptasTest, ThrowsOnInfeasibleInstance) {
  const Instance instance = Instance::from_vectors({1, 1, 1}, {0, 0, 0}, 2);
  EXPECT_THROW(eptas::eptas_schedule(instance, 0.5),
               std::invalid_argument);
}

TEST(EptasTest, ThrowsOnBadEps) {
  const Instance instance = Instance::from_vectors({1.0}, {0}, 1);
  EXPECT_THROW(eptas::eptas_schedule(instance, 0.0),
               std::invalid_argument);
  EXPECT_THROW(eptas::eptas_schedule(instance, 1.5),
               std::invalid_argument);
}

TEST(EptasTest, FeasibleOnAllFamilies) {
  for (const auto& family : gen::family_names()) {
    const Instance instance = gen::by_name(family, 30, 5, 11);
    const auto result = eptas::eptas_schedule(instance, 0.5);
    EXPECT_TRUE(model::validate(instance, result.schedule).ok())
        << family;
    EXPECT_GE(result.makespan,
              model::combined_lower_bound(instance) - 1e-9)
        << family;
  }
}

TEST(EptasTest, RatioOnPlantedInstances) {
  // The headline guarantee: makespan <= (1 + c*eps) * OPT. The paper's c
  // is a fixed constant; we assert c <= 2 empirically at eps = 1/2.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto planted = gen::planted({.num_machines = 6,
                                       .num_bags = 14,
                                       .min_jobs_per_machine = 2,
                                       .max_jobs_per_machine = 5,
                                       .target = 1.0,
                                       .seed = seed});
    const auto result = eptas::eptas_schedule(planted.instance, 0.5);
    EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
    EXPECT_LE(result.makespan, (1.0 + 2.0 * 0.5) * planted.opt + 1e-9)
        << "seed " << seed;
  }
}

TEST(EptasTest, SolvesFigure1Family) {
  // The EPTAS must not fall into the Figure-1 trap: makespan well below
  // the 5/3 * OPT of the stacking heuristic.
  const auto planted = gen::figure1({.num_machines = 6, .scale = 1.0,
                                     .seed = 4});
  const auto result = eptas::eptas_schedule(planted.instance, 0.4);
  EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
  EXPECT_LE(result.makespan, (1.0 + 0.4) * planted.opt + 1e-9);
}

TEST(EptasTest, SmallerEpsNoWorse) {
  const Instance instance = gen::by_name("twopoint", 30, 5, 8);
  const auto coarse = eptas::eptas_schedule(instance, 0.75);
  const auto fine = eptas::eptas_schedule(instance, 0.33);
  EXPECT_TRUE(model::validate(instance, coarse.schedule).ok());
  EXPECT_TRUE(model::validate(instance, fine.schedule).ok());
  // Not a theorem per-instance, but with the shared greedy fallback the
  // finer run can never be worse than the coarse one's guarantee band.
  EXPECT_LE(fine.makespan, (1.0 + 2 * 0.75) *
                               model::combined_lower_bound(instance) +
                               1e-9);
}

TEST(EptasTest, RatioAgainstExactOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance instance = gen::by_name("replica", 15, 4, seed);
    const auto exact = sched::solve_exact(instance);
    ASSERT_TRUE(exact.proven_optimal);
    const auto result = eptas::eptas_schedule(instance, 0.5);
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
    EXPECT_LE(result.makespan, (1.0 + 2.0 * 0.5) * exact.makespan + 1e-9)
        << "seed " << seed;
  }
}

TEST(EptasTest, StatsArePopulated) {
  const auto planted = gen::planted({.num_machines = 5,
                                     .num_bags = 10,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 4,
                                     .target = 1.0,
                                     .seed = 2});
  const auto result = eptas::eptas_schedule(planted.instance, 0.5);
  EXPECT_GT(result.stats.guesses_tried, 0);
  EXPECT_GT(result.stats.lower_bound, 0.0);
  EXPECT_GE(result.stats.greedy_upper, result.stats.lower_bound - 1e-12);
  if (!result.stats.used_fallback) {
    EXPECT_GT(result.stats.columns, 0);
    EXPECT_GT(result.stats.final_guess, 0.0);
  }
}

TEST(EptasTest, GuessProbeMonotoneAtHighT) {
  // A guess at the greedy upper bound must succeed (dual approximation
  // premise) on a well-behaved family.
  const auto planted = gen::planted({.num_machines = 5,
                                     .num_bags = 12,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 4,
                                     .target = 1.0,
                                     .seed = 9});
  EptasConfig config;
  const auto schedule = eptas::try_makespan_guess(
      planted.instance, 0.5, 1.05 * planted.opt, config);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_TRUE(model::validate(planted.instance, *schedule).ok());
}

TEST(EptasTest, GuessBelowOptFails) {
  // A guess far below OPT must be rejected (area check at least).
  const auto planted = gen::planted({.num_machines = 5,
                                     .num_bags = 12,
                                     .min_jobs_per_machine = 3,
                                     .max_jobs_per_machine = 5,
                                     .target = 1.0,
                                     .seed = 10});
  EptasConfig config;
  const auto schedule = eptas::try_makespan_guess(
      planted.instance, 0.5, 0.5 * planted.opt, config);
  EXPECT_FALSE(schedule.has_value());
}

TEST(EptasTest, NeverWorseThanHeuristicUpperBound) {
  // The result contract behind the fallback comparison: eptas never returns
  // worse than the greedy + local-search upper bound it computed, and
  // whenever it returns the pipeline's schedule, the reported pipeline
  // makespan is the returned one.
  for (const auto& family : gen::family_names()) {
    for (const std::uint64_t seed : {3, 4}) {
      const Instance instance = gen::by_name(family, 24, 4, seed);
      for (const double eps : {0.3, 0.5, 0.7}) {
        SCOPED_TRACE(family + " seed=" + std::to_string(seed) +
                     " eps=" + std::to_string(eps));
        const auto result = eptas::eptas_schedule(instance, eps);
        EXPECT_TRUE(model::validate(instance, result.schedule).ok());
        EXPECT_DOUBLE_EQ(result.makespan,
                         result.schedule.makespan(instance));
        EXPECT_LE(result.makespan, result.stats.greedy_upper + 1e-12);
        if (!result.stats.used_fallback) {
          EXPECT_TRUE(result.stats.pipeline_succeeded);
          EXPECT_EQ(result.makespan, result.stats.pipeline_makespan);
        }
      }
    }
  }
}

TEST(EptasTest, DeterministicForSameInput) {
  const Instance instance = gen::by_name("uniform", 25, 4, 21);
  const auto a = eptas::eptas_schedule(instance, 0.5);
  const auto b = eptas::eptas_schedule(instance, 0.5);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.schedule.assignment(), b.schedule.assignment());
}

}  // namespace
}  // namespace bagsched
