#include "eptas/guess_search.h"

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/placement.h"
#include "eptas/small_jobs.h"
#include "eptas/transform.h"
#include "util/cancellation.h"
#include "util/grid.h"
#include "util/logging.h"

namespace bagsched::eptas {

using model::Instance;
using model::JobId;
using model::Schedule;

namespace {

/// The per-guess pipeline of try_makespan_guess, operating directly on the
/// original instance plus the guess's rounded sizes (the scaled instance is
/// never materialized: scaling only ever fed the rounding, and the bag
/// structure and machine count are scale-invariant).
std::optional<Schedule> run_pipeline(const Instance& instance, double eps,
                                     const std::vector<double>& rounded,
                                     const EptasConfig& config,
                                     EptasStats* stats) {
  const auto cls = classify(instance, eps, config, &rounded);
  if (!cls) return std::nullopt;

  const Transformed transformed = transform(instance, *cls);
  const PatternSpace space = build_pattern_space(transformed, *cls);

  const auto master = solve_master(space, transformed, *cls, config);
  if (!master) return std::nullopt;

  auto placement = place_ml_jobs(transformed, space, *master, config);
  if (!placement) return std::nullopt;

  SmallJobStats small_stats;
  if (!schedule_small_jobs(transformed, *cls, space, *master, *placement,
                           config, small_stats)) {
    return std::nullopt;
  }

  const auto medium_machine =
      insert_medium_jobs(instance, transformed, *placement, config.cancel);
  if (!medium_machine) return std::nullopt;

  Schedule lifted = lift_solution(instance, transformed, *placement,
                                  *medium_machine, config, small_stats,
                                  &*cls);

  // Final gate: the lifted schedule must be a complete, bag-feasible
  // schedule of the *original* instance (assignments transfer verbatim
  // because the scaling was uniform).
  const auto validation = model::validate(instance, lifted);
  if (!validation.ok()) {
    BAGSCHED_LOG(Debug) << "guess rejected: " << validation.message;
    return std::nullopt;
  }

  if (stats != nullptr) {
    stats->columns = master->stats.columns;
    stats->pricing_rounds = master->stats.pricing_rounds;
    stats->lp_iterations = master->stats.lp_iterations;
    stats->milp_nodes = master->stats.milp_nodes;
    stats->swaps = placement->swaps;
    stats->origin_repairs = small_stats.origin_repairs;
    stats->lift_swaps = small_stats.lift_swaps;
    stats->rescues = placement->rescues + small_stats.rescues;
  }
  return lifted;
}

/// One probe as the search keeps it (and the memo shares it).
struct ProbeOutcome {
  std::optional<Schedule> schedule;
  EptasStats stats;  ///< per-guess pipeline stats
};

}  // namespace

GuessSearchResult run_guess_search(const Instance& instance, double eps,
                                   double lower, double step,
                                   int num_guesses,
                                   const EptasConfig& config) {
  GuessSearchResult result;
  const util::EpsGrid grid(eps);
  const int n = instance.num_jobs();
  std::vector<int> signature(static_cast<std::size_t>(n));
  std::vector<double> rounded(static_cast<std::size_t>(n));
  // Probe outcomes per grid signature. Sound because an outcome is a pure
  // function of the signature (DESIGN.md §4).
  std::map<std::vector<int>, std::shared_ptr<const ProbeOutcome>> memo;

  // Runs (or memo-serves) the probe at `index`, reports it and adopts a
  // success as the best schedule. Returns the probe's success, or nullopt
  // when the caller's token stopped the search.
  auto probe = [&](int index) -> std::optional<bool> {
    if (util::stop_requested(config.cancel)) return std::nullopt;
    const double guess = lower * std::pow(step, index);

    // Grid signature: the rounded scaled size of job j is
    // (1+eps)^signature[j]; every downstream stage sees only these values.
    for (JobId j = 0; j < n; ++j) {
      const int idx = grid.index_above(instance.job(j).size / guess);
      signature[static_cast<std::size_t>(j)] = idx;
      rounded[static_cast<std::size_t>(j)] = grid.value(idx);
    }

    std::shared_ptr<const ProbeOutcome> out;
    if (const auto it = memo.find(signature); it != memo.end()) {
      out = it->second;
    }
    const bool memo_hit = out != nullptr;
    if (!memo_hit) {
      auto fresh = std::make_shared<ProbeOutcome>();
      fresh->schedule =
          run_pipeline(instance, eps, rounded, config, &fresh->stats);
      if (util::stop_requested(config.cancel)) {
        // A failure under a fired token may be a truncated pipeline rather
        // than a proven reject; it must not be trusted. A success passed
        // the full validation gate and is kept, but nothing produced under
        // a fired token enters the memo: a stage may have been truncated
        // (e.g. an early MILP incumbent) into a different valid schedule.
        if (!fresh->schedule) return std::nullopt;
      } else {
        memo.emplace(signature, fresh);
      }
      out = std::move(fresh);
    }

    const bool success = out->schedule.has_value();
    ++result.guesses_tried;
    ++(memo_hit ? result.memo_hits : result.probes_launched);
    if (config.on_probe) {
      GuessProbeEvent event;
      event.index = index;
      event.guess = guess;
      event.success = success;
      event.memo_hit = memo_hit;
      event.pricing_rounds = out->stats.pricing_rounds;
      config.on_probe(event);
    }
    if (success) {
      result.best = *out->schedule;  // outcomes are shared (memo): copy
      result.best_index = index;
      result.best_stats = out->stats;
    }
    return success;
  };

  // Index 0 is probed first. eptas_schedule puts the combined lower bound
  // there: T <= OPT, so a certificate proves the (1+O(eps)) bound outright
  // and ends the search after one pipeline run. Only when it fails does
  // the binary search bisect [1, G); a failure abandons lower guesses, a
  // success higher ones.
  int lo = 0;
  int hi = num_guesses;  // == num_guesses means "no guess succeeded"
  while (lo < hi) {
    const int mid = lo == 0 ? 0 : lo + (hi - lo) / 2;
    const std::optional<bool> success = probe(mid);
    if (!success) break;
    if (*success) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return result;
}

std::optional<Schedule> try_makespan_guess(const Instance& instance,
                                           double eps, double guess,
                                           const EptasConfig& config,
                                           EptasStats* stats) {
  const util::EpsGrid grid(eps);
  std::vector<double> rounded;
  rounded.reserve(static_cast<std::size_t>(instance.num_jobs()));
  for (const auto& job : instance.jobs()) {
    rounded.push_back(grid.round_up(job.size / guess));
  }
  return run_pipeline(instance, eps, rounded, config, stats);
}

}  // namespace bagsched::eptas
