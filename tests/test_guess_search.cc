// Reuse and cancellation tests for the dual-approximation search
// (eptas/guess_search): cross-guess reuse must not change the answers on
// fixed scenarios and must actually serve probes on a guess-heavy shape,
// and a fired cancellation token must wind the search down to a feasible
// schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "eptas/eptas.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
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

// Mixed shapes: a guess-heavy two-point case (several probes, memo hits),
// a planted instance the pipeline certifies in one or two probes, and a
// denser uniform case that exercises the fallback comparison.
const Scenario kScenarios[] = {
    {"twopoint", 60, 12, 1, 0.15, 0.25},
    {"twopoint", 60, 12, 2, 0.1, 0.25},
    {"planted", 40, 8, 7, 0.5, 0.5},
    {"uniform", 30, 5, 11, 0.5, 0.5},
};

EptasResult solve_with(const Instance& instance, const Scenario& scenario,
                       bool warm_start) {
  EptasConfig config;
  config.warm_start = warm_start;
  config.guess_step_fraction = scenario.step_fraction;
  return eptas::eptas_schedule(instance, scenario.eps, config);
}

TEST(GuessSearchTest, WarmStartOnVsOffCrossCheck) {
  // Cross-guess reuse may legitimately change which columns the master
  // picks, so the cross-check asserts the invariants reuse must preserve:
  // feasibility, the approximation band, and per-mode determinism. On
  // these fixed scenarios the outcomes happen to coincide exactly, which
  // pins down any accidental semantic drift of the reuse path.
  for (const Scenario& scenario : kScenarios) {
    const Instance instance = gen::by_name(
        scenario.family, scenario.jobs, scenario.machines, scenario.seed);
    const EptasResult cold = solve_with(instance, scenario, false);
    const EptasResult warm = solve_with(instance, scenario, true);
    SCOPED_TRACE(scenario.family);
    EXPECT_TRUE(model::validate(instance, cold.schedule).ok());
    EXPECT_TRUE(model::validate(instance, warm.schedule).ok());
    const double lower = model::combined_lower_bound(instance);
    EXPECT_LE(warm.makespan, cold.makespan + 1e-9);  // never worse here
    EXPECT_GE(warm.makespan, lower - 1e-9);
    EXPECT_DOUBLE_EQ(warm.makespan, cold.makespan);
    // Reuse only kicks in with warm_start on.
    EXPECT_EQ(cold.stats.probes_memo_hits, 0);
    EXPECT_EQ(cold.stats.columns_warm_started, 0);
  }
}

TEST(GuessSearchTest, GuessHeavyCaseActuallyReuses) {
  // The reuse counters must be live on the guess-heavy shape: adjacent
  // guesses of the fine (eps=0.1, f=0.2) grid round identically, so the
  // memo must serve at least one consumed probe.
  const Instance instance = gen::by_name("twopoint", 60, 12, 1);
  EptasConfig config;
  config.warm_start = true;
  config.guess_step_fraction = 0.2;
  const EptasResult result = eptas::eptas_schedule(instance, 0.1, config);
  EXPECT_TRUE(model::validate(instance, result.schedule).ok());
  EXPECT_GT(result.stats.probes_memo_hits, 0);
  EXPECT_GT(result.stats.guesses_tried, 2);
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
