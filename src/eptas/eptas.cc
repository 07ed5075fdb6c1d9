#include "eptas/eptas.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "eptas/guess_search.h"
#include "model/lower_bounds.h"
#include "sched/greedy_bags.h"
#include "sched/local_search.h"

namespace bagsched::eptas {

using model::Instance;
using model::Schedule;

EptasResult eptas_schedule(const Instance& instance, double eps,
                           const EptasConfig& config) {
  if (eps <= 0.0 || eps >= 1.0) {
    throw std::invalid_argument("eptas_schedule: eps must be in (0, 1)");
  }
  if (!instance.is_feasible()) {
    throw std::invalid_argument(
        "eptas_schedule: a bag has more jobs than machines");
  }

  EptasResult result;
  if (instance.num_jobs() == 0) {
    result.schedule = Schedule(0, instance.num_machines());
    return result;
  }

  // Propagate the cancellation token into the per-guess MILP when the
  // caller did not wire it explicitly.
  EptasConfig effective = config;
  if (effective.milp.cancel == nullptr) {
    effective.milp.cancel = effective.cancel;
  }

  // Bounds for the dual-approximation search. The same local-search pass
  // builds the fallback and polishes the certified schedule; it never
  // raises a makespan.
  sched::LocalSearchOptions polish;
  polish.max_moves = 20000;
  polish.cancel = effective.cancel;
  const double lower = model::combined_lower_bound(instance);
  Schedule fallback = sched::greedy_bags(instance);
  sched::improve(instance, fallback, polish);
  const double upper = fallback.makespan(instance);
  result.stats.lower_bound = lower;
  result.stats.greedy_upper = upper;

  // Guess grid: lower * (1 + eps*step)^i, i = 0 .. covers upper.
  const double step = 1.0 + eps * effective.guess_step_fraction;
  int num_guesses = 1;
  while (lower * std::pow(step, num_guesses - 1) < upper - 1e-12) {
    ++num_guesses;
  }

  // Search for the smallest successful guess (the standard dual
  // approximation argument: every T >= OPT "should" succeed; failures from
  // the practical caps only push the search upward, never break
  // feasibility of the result). guess_search.cc runs that search: the
  // lower-bound guess first, then a binary search over the rest.
  GuessSearchResult search =
      run_guess_search(instance, eps, lower, step, num_guesses, effective);

  const int guesses = search.guesses_tried;
  result.stats = search.best_stats;
  result.stats.guesses_tried = guesses;
  result.stats.lower_bound = lower;
  result.stats.greedy_upper = upper;
  result.stats.probes_launched = search.probes_launched;
  result.stats.probes_memo_hits = search.memo_hits;

  if (search.best) {
    sched::improve(instance, *search.best, polish);
    const double eptas_makespan = search.best->makespan(instance);
    result.stats.final_guess =
        lower * std::pow(step, search.best_index);
    result.stats.pipeline_succeeded = true;
    result.stats.pipeline_makespan = eptas_makespan;
    if (eptas_makespan <= upper + 1e-12) {
      result.schedule = std::move(*search.best);
      result.makespan = eptas_makespan;
      return result;
    }
  }
  // Fallback: heuristic schedule, either because no guess succeeded or
  // because the heuristic was strictly better than the pipeline's result.
  result.schedule = std::move(fallback);
  result.makespan = upper;
  result.stats.used_fallback = true;
  return result;
}

}  // namespace bagsched::eptas
