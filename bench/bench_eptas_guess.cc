// Guess-search benchmark of the EPTAS on guess-heavy two-point cases
// (eps = 0.1 with a fine step fraction gives the dual-approximation search
// many adjacent guesses that round almost identically).
//
// Rows:
//  * <case>/search — the whole eptas_schedule; the search probes the
//    lower-bound guess first, so a certified index 0 costs one pipeline run;
//  * twopoint-60x12-s1/from-0.8lb — run_guess_search started below the
//    lower bound (T = 0.8 LB, step 1.02), so the first probe fails and the
//    binary search climbs, with the grid-signature memo serving repeats.
// Each row records guesses, probes (pipeline runs) and memo_hits.
//
// Contract check: when the repetition count is high enough for the
// perf-gate run (reps >= 2, not the reps=1 CI smoke), every /search row
// must consume exactly one guess.
//
// Flags: --bench-json[=path] --bench-reps=N (see harness.h).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "eptas/eptas.h"
#include "eptas/guess_search.h"
#include "gen/generators.h"
#include "harness.h"
#include "model/lower_bounds.h"
#include "model/schedule.h"
#include "sched/greedy_bags.h"

namespace {

namespace bench = bagsched::bench;
namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
namespace model = bagsched::model;

struct Spec {
  const char* family;
  int jobs;
  int machines;
  std::uint64_t seed;
  double eps;
  double step_fraction;
};

std::string label_of(const Spec& spec) {
  return std::string(spec.family) + "-" + std::to_string(spec.jobs) + "x" +
         std::to_string(spec.machines) + "-s" + std::to_string(spec.seed);
}

void set_search_metrics(bench::CaseResult& row, int guesses, int probes,
                        int memo_hits) {
  row.metrics.set("guesses", static_cast<long long>(guesses));
  row.metrics.set("probes", static_cast<long long>(probes));
  row.metrics.set("memo_hits", static_cast<long long>(memo_hits));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("eptas", argc, argv);
  const int reps = harness.reps(3);

  const std::vector<Spec> specs = {
      {"twopoint", 60, 12, 1, 0.1, 0.25},
      {"twopoint", 60, 12, 2, 0.1, 0.25},
      {"twopoint", 60, 12, 5, 0.1, 0.25},
  };

  bool one_guess_ok = true;
  for (const Spec& spec : specs) {
    const auto instance =
        gen::by_name(spec.family, spec.jobs, spec.machines, spec.seed);
    eptas::EptasConfig config;
    config.guess_step_fraction = spec.step_fraction;

    eptas::EptasResult result;
    auto& row = harness.run_case(label_of(spec) + "/search", reps, [&] {
      result = eptas::eptas_schedule(instance, spec.eps, config);
    });
    row.metrics.set("makespan", result.makespan);
    set_search_metrics(row, result.stats.guesses_tried,
                       result.stats.probes_launched,
                       result.stats.probes_memo_hits);
    if (reps >= 2 && result.stats.guesses_tried != 1) {
      std::cerr << "SEARCH REGRESSION: " << label_of(spec) << " consumed "
                << result.stats.guesses_tried
                << " guesses; the lower-bound probe should certify\n";
      one_guess_ok = false;
    }
  }

  // Failure path: start below the lower bound so index 0 cannot certify,
  // and let the guess grid cover the heuristic upper bound as
  // eptas_schedule's does.
  {
    const Spec spec = specs.front();  // twopoint 60x12 s1, eps 0.1
    const auto instance =
        gen::by_name(spec.family, spec.jobs, spec.machines, spec.seed);
    const double lower = 0.8 * model::combined_lower_bound(instance);
    const double upper =
        bagsched::sched::greedy_bags(instance).makespan(instance);
    const double step = 1.02;
    int num_guesses = 1;
    while (lower * std::pow(step, num_guesses - 1) < upper) ++num_guesses;

    eptas::GuessSearchResult search;
    auto& row = harness.run_case(label_of(spec) + "/from-0.8lb", reps, [&] {
      search = eptas::run_guess_search(instance, spec.eps, lower, step,
                                       num_guesses, eptas::EptasConfig{});
    });
    row.metrics.set("makespan",
                    search.best ? search.best->makespan(instance) : 0.0);
    set_search_metrics(row, search.guesses_tried, search.probes_launched,
                       search.memo_hits);
  }

  const bool wrote = harness.finish(std::cout);
  return wrote && one_guess_ok ? 0 : 1;
}
