// Tests for the exact branch-and-bound solver (the ground-truth oracle):
// whole-instance optima, and the fixed-remainder search against
// exhaustive enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "sched/exact.h"
#include "sched/local_search.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using model::Instance;
using model::JobId;
using model::Schedule;

/// Exhaustive fixed-remainder optimum: every machine choice for every free
/// job, with the other jobs where `start` puts them.
double brute_force_remainder(const Instance& instance, const Schedule& start,
                             const std::vector<JobId>& free_jobs) {
  Schedule candidate = start;
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> choice(free_jobs.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < free_jobs.size(); ++i) {
      candidate.assign(free_jobs[i], choice[i]);
    }
    if (model::validate(instance, candidate).ok()) {
      best = std::min(best, candidate.makespan(instance));
    }
    std::size_t i = 0;
    while (i < choice.size() && ++choice[i] == instance.num_machines()) {
      choice[i++] = 0;
    }
    if (i == choice.size()) return best;
  }
}

TEST(ExactTest, TrivialSingleMachine) {
  const Instance instance = Instance::without_bags({1, 2, 3}, 1);
  const auto result = sched::solve_exact(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(ExactTest, PerfectSplit) {
  // {4,3,2,1} on 2 machines: OPT = 5 ({4,1} | {3,2}).
  const Instance instance = Instance::without_bags({4, 3, 2, 1}, 2);
  const auto result = sched::solve_exact(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(ExactTest, BagConstraintRaisesOptimum) {
  // Two jobs {3, 3} in one bag on 2 machines must split: OPT = 3.
  // Without the bag they could... also split. Make it interesting: jobs
  // {3,3} same bag + {2,2} same bag: pairs must split -> OPT = 5.
  const Instance instance =
      Instance::from_vectors({3, 3, 2, 2}, {0, 0, 1, 1}, 2);
  const auto result = sched::solve_exact(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
}

TEST(ExactTest, MatchesPlantedOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::PlantedParams params;
    params.num_machines = 4;
    params.min_jobs_per_machine = 2;
    params.max_jobs_per_machine = 4;
    params.num_bags = 8;
    params.seed = seed;
    const auto planted = gen::planted(params);
    const auto result = sched::solve_exact(planted.instance);
    ASSERT_TRUE(result.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(result.makespan, planted.opt, 1e-9) << "seed " << seed;
  }
}

TEST(ExactTest, NeverBelowLowerBoundNeverAboveLocalSearch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = gen::by_name("twopoint", 14, 3, seed);
    const auto result = sched::solve_exact(instance);
    EXPECT_TRUE(model::validate(instance, result.schedule).ok());
    EXPECT_GE(result.makespan,
              model::combined_lower_bound(instance) - 1e-9);
    const double heuristic =
        sched::local_search(instance).makespan(instance);
    EXPECT_LE(result.makespan, heuristic + 1e-9);
  }
}

TEST(ExactTest, Figure1Optimum) {
  const auto planted = gen::figure1({.num_machines = 4, .scale = 1.0,
                                     .seed = 1});
  const auto result = sched::solve_exact(planted.instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

TEST(ExactTest, BudgetExhaustionStillFeasible) {
  const Instance instance = gen::by_name("uniform", 40, 6, 3);
  sched::ExactOptions options;
  options.max_nodes = 100;  // far too little to prove optimality
  const auto result = sched::solve_exact(instance, options);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  EXPECT_GT(result.makespan, 0.0);
}

TEST(ExactRemainderTest, EqualLoadsWithDifferentBagsAreNotInterchangeable) {
  // m0 holds job 0 (bag 0), m1 holds job 1 (bag 1): equal loads, different
  // bag rows. Job 3 (bag 1) must go to m0, so job 2 belongs on m1. A rule
  // that skips m1 as "same load as m0" is stuck at 11.
  const Instance instance =
      Instance::from_vectors({5, 5, 3, 3}, {0, 1, 2, 1}, 2);
  Schedule start(4, 2);
  start.assign(0, 0);
  start.assign(1, 1);
  start.assign(2, 0);
  start.assign(3, 0);
  ASSERT_DOUBLE_EQ(start.makespan(instance), 11.0);
  for (const int threads : {1, 4}) {
    sched::ExactOptions options;
    options.num_threads = threads;
    const auto result = sched::solve_exact(instance, start, {2, 3}, options);
    EXPECT_TRUE(result.proven_optimal) << "threads " << threads;
    EXPECT_DOUBLE_EQ(result.makespan, 8.0) << "threads " << threads;
    EXPECT_DOUBLE_EQ(result.schedule.makespan(instance), 8.0);
    EXPECT_EQ(result.schedule.machine_of(0), 0);
    EXPECT_EQ(result.schedule.machine_of(1), 1);
  }
}

TEST(ExactRemainderTest, MatchesBruteForceOnRandomRemainders) {
  util::Xoshiro256 rng(20260419);
  int checked = 0;
  while (checked < 200) {
    const int m = static_cast<int>(rng.uniform_int(1, 4));
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int num_bags = static_cast<int>(rng.uniform_int(1, n));
    std::vector<double> sizes;
    std::vector<model::BagId> bags;
    for (int j = 0; j < n; ++j) {
      // Small integer sizes: exact sums and many equal loads, so the
      // dominance rule is exercised.
      sizes.push_back(static_cast<double>(rng.uniform_int(1, 6)));
      bags.push_back(static_cast<model::BagId>(rng.uniform_int(0, num_bags - 1)));
    }
    const Instance instance = Instance::from_vectors(sizes, bags, m);
    if (!instance.is_feasible()) continue;
    // A random bag-feasible start: each job on a random machine its bag
    // leaves free (one always exists: bag size <= m).
    Schedule start(n, m);
    for (JobId j = 0; j < n; ++j) {
      std::vector<int> allowed;
      for (int machine = 0; machine < m; ++machine) {
        bool clash = false;
        for (JobId k = 0; k < j; ++k) {
          clash = clash || (start.machine_of(k) == machine &&
                            instance.job(k).bag == instance.job(j).bag);
        }
        if (!clash) allowed.push_back(machine);
      }
      start.assign(j, allowed[rng.index(allowed.size())]);
    }
    std::vector<JobId> free_jobs;
    for (JobId j = 0; j < n; ++j) free_jobs.push_back(j);
    rng.shuffle(free_jobs);
    free_jobs.resize(static_cast<std::size_t>(
        rng.uniform_int(0, std::min(n, 6))));

    const double expected = brute_force_remainder(instance, start, free_jobs);
    for (const int threads : {1, 4}) {
      sched::ExactOptions options;
      options.num_threads = threads;
      const auto result =
          sched::solve_exact(instance, start, free_jobs, options);
      ASSERT_TRUE(result.proven_optimal) << "case " << checked;
      ASSERT_DOUBLE_EQ(result.makespan, expected)
          << "case " << checked << " threads " << threads;
      ASSERT_DOUBLE_EQ(result.schedule.makespan(instance), expected);
      ASSERT_TRUE(model::validate(instance, result.schedule).ok());
      for (JobId j = 0; j < n; ++j) {
        if (std::find(free_jobs.begin(), free_jobs.end(), j) ==
            free_jobs.end()) {
          ASSERT_EQ(result.schedule.machine_of(j), start.machine_of(j))
              << "fixed job " << j << " moved, case " << checked;
        }
      }
    }
    ++checked;
  }
}

TEST(ExactRemainderTest, ReturnsTheStartWhenNothingIsBetter) {
  const Instance instance = Instance::without_bags({4, 3, 2, 1}, 2);
  Schedule start(4, 2);
  start.assign(0, 0);
  start.assign(1, 1);
  start.assign(2, 1);
  start.assign(3, 0);
  const auto result = sched::solve_exact(instance, start, {2, 3});
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_EQ(result.schedule.assignment(), start.assignment());
}

TEST(ExactRemainderTest, RejectsAnInvalidStartOrFreeSet) {
  const Instance instance =
      Instance::from_vectors({3, 3, 2}, {0, 0, 1}, 2);
  Schedule clash(3, 2);  // jobs 0 and 1 share bag 0 on machine 0
  clash.assign(0, 0);
  clash.assign(1, 0);
  clash.assign(2, 1);
  EXPECT_THROW(sched::solve_exact(instance, clash, {2}),
               std::invalid_argument);
  Schedule incomplete(3, 2);
  incomplete.assign(0, 0);
  incomplete.assign(1, 1);
  EXPECT_THROW(sched::solve_exact(instance, incomplete, {2}),
               std::invalid_argument);
  Schedule valid = clash;
  valid.assign(1, 1);
  EXPECT_THROW(sched::solve_exact(instance, valid, {3}),
               std::invalid_argument);
  EXPECT_THROW(sched::solve_exact(instance, valid, {1, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bagsched
