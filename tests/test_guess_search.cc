// Search-order, memo and cancellation tests for the dual-approximation
// search (eptas/guess_search): the lower-bound guess is probed first and
// ends the search when it certifies, a failing first probe sends the
// search up the grid with the memo serving repeated signatures, and a
// fired cancellation token winds the search down to a feasible schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "eptas/eptas.h"
#include "eptas/guess_search.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "sched/greedy_bags.h"
#include "util/cancellation.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using eptas::EptasResult;
using model::Instance;

struct Scenario {
  const char* family;
  int jobs;
  int machines;
  std::uint64_t seed;
  double eps;
  double step_fraction;
};

// Mixed shapes: two guess-heavy two-point cases on a fine grid, a planted
// instance and a denser uniform case.
const Scenario kScenarios[] = {
    {"twopoint", 60, 12, 1, 0.15, 0.25},
    {"twopoint", 60, 12, 2, 0.1, 0.25},
    {"planted", 40, 8, 7, 0.5, 0.5},
    {"uniform", 30, 5, 11, 0.5, 0.5},
};

/// Guesses lower * step^i needed to reach the greedy upper bound (the
/// grid eptas_schedule searches ends at the locally improved greedy, which
/// is no larger).
int guesses_covering(const Instance& instance, double lower, double step) {
  const double upper = sched::greedy_bags(instance).makespan(instance);
  int num_guesses = 1;
  while (lower * std::pow(step, num_guesses - 1) < upper) ++num_guesses;
  return num_guesses;
}

TEST(GuessSearchTest, LowerBoundGuessCertifiesInOneProbe) {
  // T = LB <= OPT certifies on every scenario, so the search consumes one
  // guess, at index 0, and keeps exactly the lone probe's schedule.
  for (const Scenario& scenario : kScenarios) {
    SCOPED_TRACE(scenario.family);
    const Instance instance = gen::by_name(
        scenario.family, scenario.jobs, scenario.machines, scenario.seed);
    const double lower = model::combined_lower_bound(instance);
    const double step = 1.0 + scenario.eps * scenario.step_fraction;
    const EptasConfig config;
    const eptas::GuessSearchResult search = eptas::run_guess_search(
        instance, scenario.eps, lower, step,
        guesses_covering(instance, lower, step), config);
    EXPECT_EQ(search.guesses_tried, 1);
    EXPECT_EQ(search.probes_launched, 1);
    EXPECT_EQ(search.memo_hits, 0);
    EXPECT_EQ(search.best_index, 0);
    ASSERT_TRUE(search.best.has_value());
    const auto direct =
        eptas::try_makespan_guess(instance, scenario.eps, lower, config);
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(search.best->assignment(), direct->assignment());
  }
}

TEST(GuessSearchTest, FailedFirstProbeClimbsWithMemoHits) {
  // Started at 0.8 LB < OPT, index 0 cannot certify: the search climbs a
  // fine grid (step 1.02) on which adjacent guesses share grid signatures,
  // so the memo must serve some of the consumed probes.
  const Instance instance = gen::by_name("twopoint", 60, 12, 1);
  const double lower = 0.8 * model::combined_lower_bound(instance);
  const double step = 1.02;
  std::vector<eptas::GuessProbeEvent> events;
  EptasConfig config;
  config.on_probe = [&events](const eptas::GuessProbeEvent& event) {
    events.push_back(event);
  };
  const eptas::GuessSearchResult search = eptas::run_guess_search(
      instance, 0.1, lower, step, guesses_covering(instance, lower, step),
      config);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().index, 0);
  EXPECT_FALSE(events.front().success);
  EXPECT_GT(search.guesses_tried, 1);
  EXPECT_EQ(search.guesses_tried, static_cast<int>(events.size()));
  EXPECT_EQ(search.guesses_tried, search.probes_launched + search.memo_hits);
  EXPECT_GT(search.memo_hits, 0);
  ASSERT_TRUE(search.best.has_value());
  EXPECT_GT(search.best_index, 0);
  EXPECT_TRUE(model::validate(instance, *search.best).ok());
}

TEST(GuessSearchTest, LowerBoundFailureCertifiesAHigherGuess) {
  // Without Practical-cap rescues the pipeline rejects T = LB on this
  // replica instance; the binary search must find a higher guess that
  // certifies, and the result must be a valid schedule.
  const Instance instance = gen::by_name("replica", 60, 12, 2);
  EptasConfig config;
  config.enable_rescue = false;
  std::vector<eptas::GuessProbeEvent> events;
  config.on_probe = [&events](const eptas::GuessProbeEvent& event) {
    events.push_back(event);
  };
  const EptasResult result = eptas::eptas_schedule(instance, 0.5, config);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().index, 0);
  EXPECT_FALSE(events.front().success);
  EXPECT_TRUE(result.stats.pipeline_succeeded);
  EXPECT_GT(result.stats.final_guess, result.stats.lower_bound);
  EXPECT_GT(result.stats.guesses_tried, 1);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
}

TEST(GuessSearchTest, PreFiredTokenFallsBackImmediately) {
  const Instance instance = gen::by_name("twopoint", 60, 12, 1);
  util::CancellationToken token;
  token.request_stop();
  EptasConfig config;
  config.cancel = &token;
  const EptasResult result = eptas::eptas_schedule(instance, 0.2, config);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  EXPECT_TRUE(result.stats.used_fallback);
  EXPECT_FALSE(result.stats.pipeline_succeeded);
}

TEST(GuessSearchTest, MidSearchCancellationStaysFeasible) {
  // Fire the token from another thread while the search runs; whatever the
  // timing, the result must be a feasible schedule (pipeline-certified or
  // the greedy fallback) and the run must wind down promptly — the
  // placement/small-jobs/repair stages poll the token, so a cancel cannot
  // stall for a whole pipeline stage.
  const Instance instance = gen::by_name("twopoint", 100, 16, 3);
  util::CancellationToken token;
  EptasConfig config;
  config.guess_step_fraction = 0.25;
  config.cancel = &token;
  std::thread firer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request_stop();
  });
  const auto start = std::chrono::steady_clock::now();
  const EptasResult result = eptas::eptas_schedule(instance, 0.1, config);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  firer.join();
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  // Generous bound: a full uncancelled run takes ~0.3s; the point is that
  // the cancel does not hang the search.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
}

TEST(GuessSearchTest, InnerStagesPollCancellation) {
  // A pre-fired token handed straight to one probe must abort the pipeline
  // stages (column generation, placement, small jobs, repair) and read as
  // a failed guess.
  const Instance instance = gen::by_name("twopoint", 60, 12, 1);
  util::CancellationToken token;
  token.request_stop();
  EptasConfig config;
  config.cancel = &token;
  config.milp.cancel = &token;
  const double generous =
      2.0 * model::combined_lower_bound(instance) + 10.0;
  const auto schedule =
      eptas::try_makespan_guess(instance, 0.2, generous, config);
  EXPECT_FALSE(schedule.has_value());
}

}  // namespace
}  // namespace bagsched
