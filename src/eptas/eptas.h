// Public entry point of the EPTAS for machine scheduling with
// bag-constraints (Grage, Jansen, Klein — SPAA 2019).
//
// eptas_schedule() runs the full pipeline of the paper:
//   search over the makespan guess T (dual approximation: the lower bound
//   first, then a binary search), and per guess: scale to OPT=1, round sizes onto the (1+eps)-grid, pick k
//   (Lemma 1), classify bags (Def. 2), transform the instance (§2.2),
//   solve the pattern MILP (§3, via column generation + branch-and-bound),
//   place medium/large jobs with swap repair (Lemma 7), schedule small jobs
//   with group-bag-LPT (§4, Lemmas 8-10), repair residual conflicts
//   (Lemma 11), re-insert the removed mediums through the Lemma 3 flow, and
//   lift the solution back to the original instance (Lemma 4). A bounded
//   local-search pass then polishes the certified schedule.
//
// The returned schedule is always feasible. When every guess fails (possible
// under the priority caps, see DESIGN.md §3) the result falls back
// to the best constructive heuristic and says so in the stats.
#pragma once

#include <optional>

#include "eptas/config.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace bagsched::eptas {

struct EptasStats {
  int guesses_tried = 0;       ///< makespan guesses probed
  double final_guess = 0.0;    ///< smallest successful guess T
  double lower_bound = 0.0;    ///< combined lower bound on OPT
  double greedy_upper = 0.0;   ///< greedy/local-search upper bound
  /// Some guess produced a full pipeline schedule (even if the heuristic
  /// happened to beat it and was returned instead).
  bool pipeline_succeeded = false;
  /// Makespan of the pipeline's own schedule after the local-search polish
  /// (0 when no guess succeeded).
  double pipeline_makespan = 0.0;
  /// The returned schedule is the heuristic, either because every guess
  /// failed or because the heuristic was strictly better.
  bool used_fallback = false;

  // Accumulated over the successful guess:
  int columns = 0;
  int pricing_rounds = 0;
  long long lp_iterations = 0;
  long long milp_nodes = 0;
  int swaps = 0;           ///< Lemma 7 swap repairs
  int origin_repairs = 0;  ///< Lemma 11 chain walks
  int lift_swaps = 0;      ///< Lemma 4 filler swaps
  int rescues = 0;         ///< structure-breaking placements (measured)

  // Guess search, aggregated over the probes the search consumed.
  int probes_launched = 0;     ///< probes that ran the pipeline
  int probes_memo_hits = 0;    ///< probes served from the grid-signature memo
};

struct EptasResult {
  model::Schedule schedule;
  double makespan = 0.0;
  EptasStats stats;
};

/// Schedules the instance with approximation target (1 + O(eps)).
/// Requires a feasible instance (every bag at most m jobs); throws
/// std::invalid_argument otherwise.
EptasResult eptas_schedule(const model::Instance& instance, double eps,
                           const EptasConfig& config = {});

/// One dual-approximation probe: attempts to build a schedule of makespan
/// close to the guess T. Exposed for tests and component benchmarks.
std::optional<model::Schedule> try_makespan_guess(
    const model::Instance& instance, double eps, double guess,
    const EptasConfig& config, EptasStats* stats = nullptr);

}  // namespace bagsched::eptas
