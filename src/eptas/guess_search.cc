#include "eptas/guess_search.h"

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "eptas/classify.h"
#include "eptas/enumerate.h"
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

/// Warm-start payload of a certified probe: the medium/large content of
/// every machine as *original* job ids (pattern-relevant jobs only, i.e.
/// the I' ml jobs — priority mediums/larges and large-part larges).
struct ProbePayload {
  std::vector<std::vector<JobId>> machines;
};

struct PipelineResult {
  std::optional<Schedule> schedule;
  std::shared_ptr<const ProbePayload> payload;
  int warm_columns = 0;
  int warm_columns_used = 0;
};

/// The per-guess pipeline of try_makespan_guess, operating directly on the
/// original instance plus the guess's rounded sizes (the scaled instance is
/// never materialized: scaling only ever fed the rounding, and the bag
/// structure and machine count are scale-invariant).
PipelineResult run_pipeline(const Instance& instance, double eps,
                            const std::vector<double>& rounded,
                            const EptasConfig& config,
                            const ProbePayload* warm, EptasStats* stats) {
  PipelineResult result;

  const auto cls = classify(instance, eps, config, &rounded);
  if (!cls) return result;

  const Transformed transformed = transform(instance, *cls);
  const PatternSpace space = build_pattern_space(transformed, *cls);

  // Map the anchor's original job ids onto this guess's I' jobs. Removed
  // mediums have no I' twin and drop out; solve_master's pattern parser
  // re-validates everything else against this guess's pattern space.
  std::vector<std::vector<JobId>> warm_prime;
  if (warm != nullptr) {
    std::vector<JobId> prime_of(
        static_cast<std::size_t>(instance.num_jobs()), model::kUnassigned);
    for (JobId j = 0; j < transformed.instance.num_jobs(); ++j) {
      const JobId orig = transformed.orig_job[static_cast<std::size_t>(j)];
      if (orig != model::kUnassigned) {
        prime_of[static_cast<std::size_t>(orig)] = j;
      }
    }
    warm_prime.reserve(warm->machines.size());
    for (const auto& machine : warm->machines) {
      std::vector<JobId> mapped;
      mapped.reserve(machine.size());
      for (const JobId orig : machine) {
        const JobId prime = prime_of[static_cast<std::size_t>(orig)];
        if (prime != model::kUnassigned) mapped.push_back(prime);
      }
      if (!mapped.empty()) warm_prime.push_back(std::move(mapped));
    }
  }

  std::optional<MasterSolution> master;
  if (config.use_enumerated_milp) {
    // The paper's literal MILP; on enumeration blow-up fall back to the
    // column-generated master (same program, restricted columns).
    if (enumerate_all_patterns(space, config.max_patterns)) {
      master = solve_enumerated_master(space, transformed, *cls, config);
      if (!master) return result;  // proven infeasible at this guess
    }
  }
  if (!master) {
    master = solve_master(space, transformed, *cls, config,
                          warm_prime.empty() ? nullptr : &warm_prime);
  }
  if (!master) return result;
  result.warm_columns = master->stats.warm_columns;
  result.warm_columns_used = master->stats.warm_columns_used;

  auto placement = place_ml_jobs(transformed, space, *master, config);
  if (!placement) return result;

  SmallJobStats small_stats;
  if (!schedule_small_jobs(transformed, *cls, space, *master, *placement,
                           config, small_stats)) {
    return result;
  }

  const auto medium_machine =
      insert_medium_jobs(instance, transformed, *placement, config.cancel);
  if (!medium_machine) return result;

  Schedule lifted = lift_solution(instance, transformed, *placement,
                                  *medium_machine, config, small_stats,
                                  &*cls);

  // Final gate: the lifted schedule must be a complete, bag-feasible
  // schedule of the *original* instance (assignments transfer verbatim
  // because the scaling was uniform).
  const auto validation = model::validate(instance, lifted);
  if (!validation.ok()) {
    BAGSCHED_LOG(Debug) << "guess rejected: " << validation.message;
    return result;
  }

  // Warm-start payload: ml content per machine, as original job ids (small
  // jobs and fillers are not pattern content; later stages never move ml
  // jobs, so the placement schedule still holds the pattern assignment).
  auto payload = std::make_shared<ProbePayload>();
  payload->machines.assign(
      static_cast<std::size_t>(instance.num_machines()), {});
  for (JobId j = 0; j < transformed.instance.num_jobs(); ++j) {
    if (transformed.class_of(j) == JobClass::Small) continue;
    const JobId orig = transformed.orig_job[static_cast<std::size_t>(j)];
    if (orig == model::kUnassigned) continue;
    const model::MachineId machine = placement->schedule.machine_of(j);
    if (machine == model::kUnassigned) continue;
    payload->machines[static_cast<std::size_t>(machine)].push_back(orig);
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
  result.schedule = std::move(lifted);
  result.payload = std::move(payload);
  return result;
}

/// One probe as the search keeps it (and the memo shares it).
struct ProbeOutcome {
  PipelineResult pipeline;
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
  // function of the signature plus the fixed anchor seeds (DESIGN.md §4).
  std::map<std::vector<int>, std::shared_ptr<const ProbeOutcome>> memo;
  std::shared_ptr<const ProbePayload> anchor;  // warm-start seeds

  // Runs (or memo-serves) the probe at `index`, reports it and adopts a
  // success as the best schedule. Returns the probe's success, or nullopt
  // when the caller's token stopped the search.
  auto probe = [&](int index, bool is_anchor) -> std::optional<bool> {
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
    if (config.warm_start) {
      const auto it = memo.find(signature);
      if (it != memo.end()) out = it->second;
    }
    const bool memo_hit = out != nullptr;
    if (!memo_hit) {
      auto fresh = std::make_shared<ProbeOutcome>();
      fresh->pipeline = run_pipeline(instance, eps, rounded, config,
                                     anchor.get(), &fresh->stats);
      if (util::stop_requested(config.cancel)) {
        // A failure under a fired token may be a truncated pipeline rather
        // than a proven reject; it must not be trusted. A success passed
        // the full validation gate and is kept, but nothing produced under
        // a fired token enters the memo: a stage may have been truncated
        // (e.g. an early MILP incumbent) into a different valid schedule.
        if (!fresh->pipeline.schedule) return std::nullopt;
      } else if (config.warm_start) {
        memo.emplace(signature, fresh);
      }
      out = std::move(fresh);
    }

    const PipelineResult& pipeline = out->pipeline;
    const bool success = pipeline.schedule.has_value();
    ++result.guesses_tried;
    ++(memo_hit ? result.memo_hits : result.probes_launched);
    result.columns_warm_started += pipeline.warm_columns;
    result.pricing_rounds_saved += pipeline.warm_columns_used;
    if (config.on_probe) {
      GuessProbeEvent event;
      event.index = index;
      event.guess = guess;
      event.success = success;
      event.memo_hit = memo_hit;
      event.anchor = is_anchor;
      event.warm_columns = pipeline.warm_columns;
      event.pricing_rounds = out->stats.pricing_rounds;
      config.on_probe(event);
    }
    if (success) {
      result.best = *pipeline.schedule;  // outcomes are shared (memo): copy
      result.best_index = index;
      result.best_stats = out->stats;
      if (is_anchor) anchor = pipeline.payload;
    }
    return success;
  };

  int lo = 0;
  int hi = num_guesses;  // == num_guesses means "no guess succeeded"

  // Warm-start anchor: probe the top guess first. It is the most likely to
  // certify; its patterns seed every later probe's column pool, and under
  // the same monotonicity assumption the binary search already makes, its
  // success bounds the search window. An anchor failure is no evidence
  // about lower guesses (practical-cap failures are not monotone
  // downward), so the window then stays [0, G).
  if (config.warm_start && num_guesses > 1) {
    const std::optional<bool> success = probe(num_guesses - 1, true);
    if (!success) return result;
    if (*success) hi = num_guesses - 1;
  }

  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const std::optional<bool> success = probe(mid, false);
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
  PipelineResult pipeline =
      run_pipeline(instance, eps, rounded, config, nullptr, stats);
  return std::move(pipeline.schedule);
}

}  // namespace bagsched::eptas
