// Configuration-space tests: the paper's constants, cap ablations, failure
// injection. The EPTAS must stay feasible under every configuration —
// degraded configs may only cost quality, never correctness.
#include <gtest/gtest.h>

#include <limits>

#include "eptas/classify.h"
#include "eptas/eptas.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using model::Instance;

TEST(ConfigTest, PaperConstantsOnTinyInstance) {
  // Both priority caps at their maximum give the paper's constants: the
  // per-size cut-off is b' itself and no priority bag is dropped. With the
  // paper's b' every bag is priority: the pipeline degenerates to the pure
  // pattern MILP. Must still work on a tiny instance.
  const auto planted = gen::planted({.num_machines = 3,
                                     .num_bags = 6,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 3,
                                     .target = 1.0,
                                     .seed = 1});
  EptasConfig config;
  config.max_priority_per_size = std::numeric_limits<int>::max();
  config.max_priority_total = std::numeric_limits<int>::max();
  const auto cls = eptas::classify(planted.instance, 0.5, config);
  ASSERT_TRUE(cls.has_value());
  EXPECT_EQ(cls->priority_cutoff, cls->b_prime);
  const auto result = eptas::eptas_schedule(planted.instance, 0.5, config);
  EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
  EXPECT_LE(result.makespan, 2.0 * planted.opt + 1e-9);
}

TEST(ConfigTest, ZeroPriorityCapForcesNonPriorityPath) {
  // Everything becomes a non-priority bag (except large bags): exercises
  // the B_x slot machinery and the transformation for all bags.
  EptasConfig config;
  config.max_priority_per_size = 0;
  config.max_priority_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance instance = gen::by_name("twopoint", 30, 6, seed);
    const auto result = eptas::eptas_schedule(instance, 0.5, config);
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  }
}

TEST(ConfigTest, LargePriorityCapStillWorks) {
  EptasConfig config;
  config.max_priority_per_size = 50;
  config.max_priority_total = 200;
  const Instance instance = gen::by_name("replica", 24, 6, 2);
  const auto result = eptas::eptas_schedule(instance, 0.5, config);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
}

TEST(ConfigTest, StarvedMilpFallsBackFeasibly) {
  // Failure injection: a node budget of zero makes every master solve
  // fail; the driver must return the heuristic fallback, still feasible.
  EptasConfig config;
  config.milp.max_nodes = 0;
  const Instance instance = gen::by_name("uniform", 30, 5, 3);
  const auto result = eptas::eptas_schedule(instance, 0.5, config);
  EXPECT_TRUE(result.stats.used_fallback);
  EXPECT_FALSE(result.stats.pipeline_succeeded);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
}

TEST(ConfigTest, StarvedPatternBudgetFallsBackFeasibly) {
  EptasConfig config;
  config.max_milp_patterns = 1;  // column generation cannot even start
  const auto planted = gen::planted({.num_machines = 5,
                                     .num_bags = 10,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 4,
                                     .target = 1.0,
                                     .seed = 4});
  const auto result = eptas::eptas_schedule(planted.instance, 0.5, config);
  EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
}

TEST(ConfigTest, RescueOffStillFeasibleViaFallback) {
  // With rescue disabled, guesses that would need structure-breaking
  // placements fail instead; the driver keeps searching upward or falls
  // back. Result must remain feasible either way.
  EptasConfig config;
  config.enable_rescue = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance instance = gen::by_name("mixed", 40, 6, seed);
    const auto result = eptas::eptas_schedule(instance, 0.5, config);
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
    EXPECT_EQ(result.stats.rescues, 0);
  }
}

TEST(ConfigTest, CoarserGuessGridIsFasterButValid) {
  EptasConfig coarse;
  coarse.guess_step_fraction = 2.0;  // huge steps: few guesses
  const Instance instance = gen::by_name("uniform", 40, 6, 5);
  const auto result = eptas::eptas_schedule(instance, 0.5, coarse);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  const auto fine = eptas::eptas_schedule(instance, 0.5, EptasConfig{});
  EXPECT_GE(result.stats.guesses_tried, 1);
  EXPECT_LE(fine.makespan, result.makespan + 1e-9);
}

class EpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsSweep, RatioWithinBandOnPlanted) {
  const double eps = GetParam();
  const auto planted = gen::planted({.num_machines = 6,
                                     .num_bags = 14,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 5,
                                     .target = 1.0,
                                     .seed = 3});
  const auto result = eptas::eptas_schedule(planted.instance, eps);
  EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
  EXPECT_LE(result.makespan, (1.0 + 2.0 * eps) * planted.opt + 1e-9);
  if (result.stats.pipeline_succeeded) {
    EXPECT_LE(result.stats.pipeline_makespan,
              (1.0 + 2.0 * eps) * planted.opt + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Band, EpsSweep,
                         ::testing::Values(0.8, 0.6, 0.5, 0.4, 1.0 / 3.0,
                                           0.25));

class MachineSweep : public ::testing::TestWithParam<int> {};

TEST_P(MachineSweep, FeasibleAndBoundedAcrossMachineCounts) {
  const int m = GetParam();
  const auto planted = gen::planted({.num_machines = m,
                                     .num_bags = 3 * m,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 5,
                                     .target = 1.0,
                                     .seed = 6});
  const auto result = eptas::eptas_schedule(planted.instance, 0.5);
  EXPECT_TRUE(model::validate(planted.instance, result.schedule).ok());
  EXPECT_LE(result.makespan, 2.0 * planted.opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Machines, MachineSweep,
                         ::testing::Values(2, 3, 5, 9, 17, 33));

}  // namespace
}  // namespace bagsched
