// Dual-approximation search over makespan guesses.
//
// The search over makespan guesses is the EPTAS's outer loop. This module
// probes the lowest guess first — eptas_schedule starts the grid at the
// combined lower bound T <= OPT, so a certificate there proves the
// (1+O(eps)) bound with one pipeline run — and only when that fails runs a
// binary search over the remaining guesses. Probe outcomes are
// memoized per rounded-size grid signature: guesses that round every job
// identically share one pipeline run verbatim. The memo is sound because a
// probe outcome is a pure function of its guess's grid signature (the
// pipeline only ever sees rounded sizes, see lift_solution's cls
// parameter). See DESIGN.md §4.
#pragma once

#include <optional>

#include "eptas/config.h"
#include "eptas/eptas.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace bagsched::eptas {

struct GuessSearchResult {
  /// Best certified schedule of the *original* instance, if any guess on
  /// the search path succeeded.
  std::optional<model::Schedule> best;
  int best_index = -1;
  /// Pipeline stats of the best probe (columns, pricing rounds, repairs…).
  EptasStats best_stats;

  int guesses_tried = 0;  ///< probes the search consumed
  int memo_hits = 0;      ///< consumed probes served from the memo
  /// Consumed probes that ran the pipeline (guesses_tried - memo_hits).
  int probes_launched = 0;
};

/// Runs the dual-approximation search over guesses lower * step^i,
/// i in [0, num_guesses): index 0 first, then a binary search over
/// [1, num_guesses) when index 0 fails. `config.cancel` / `config.milp`
/// must already be the effective (chained) settings; a fired
/// `config.cancel` stops the search, and `best` then holds the best
/// schedule certified before the stop.
GuessSearchResult run_guess_search(const model::Instance& instance,
                                   double eps, double lower, double step,
                                   int num_guesses,
                                   const EptasConfig& config);

}  // namespace bagsched::eptas
