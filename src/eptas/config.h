// Tunable constants of the EPTAS implementation.
//
// The paper's constants make the algorithm a pure theory result (DESIGN.md
// §3); the default caps keep the identical pipeline but bound the
// combinatorial blow-up. Setting both priority caps to
// std::numeric_limits<int>::max() gives the published formulas, tractable
// only on toy instances.
#pragma once

#include <cstdint>
#include <functional>

#include "milp/branch_and_bound.h"
#include "util/cancellation.h"

namespace bagsched::eptas {

/// One consumed dual-approximation probe, reported in search order.
struct GuessProbeEvent {
  int index = 0;          ///< guess index on the search grid
  double guess = 0.0;     ///< makespan guess T = lower * step^index
  bool success = false;   ///< the pipeline certified a schedule at T
  bool memo_hit = false;  ///< served from the rounded-grid probe memo
  int pricing_rounds = 0; ///< column-generation rounds this probe ran
};

struct EptasConfig {
  // --- Caps -----------------------------------------------------------------
  /// Priority bags taken per large size: the cut-off is
  /// min(b', max_priority_per_size), where the paper's b' = (dq+1)q.
  int max_priority_per_size = 3;
  /// Hard cap on the total number of priority bags |A| (large bags are
  /// never dropped).
  int max_priority_total = 10;
  /// Fail the makespan guess when more than this many patterns reach the
  /// MILP (keeps the LP tractable for the dense simplex).
  int max_milp_patterns = 700;

  // --- Behaviour ----------------------------------------------------------
  /// When a repair step cannot find the swap the lemmas promise (possible
  /// only under capped priority), place the job on the least-loaded feasible
  /// machine instead of failing the guess. The schedule stays feasible; the
  /// height excess is recorded in the stats.
  bool enable_rescue = true;

  /// Binary-search granularity: consecutive makespan guesses differ by a
  /// factor (1 + eps * guess_step_fraction).
  double guess_step_fraction = 0.5;

  // --- Dual-approximation search ------------------------------------------
  /// Observer for consumed probes (search order: the lower-bound guess,
  /// then the binary search; called on the solving thread). Used by the
  /// api layer to stream per-guess progress. Empty = no reporting.
  std::function<void(const GuessProbeEvent&)> on_probe;

  /// Cooperative cancellation: checked between makespan guesses, inside the
  /// per-guess pipeline stages (placement, small jobs, repair, lift) and
  /// the fallback local search; eptas_schedule forwards it to milp.cancel
  /// when that is unset, so the per-guess MILP aborts promptly too.
  const util::CancellationToken* cancel = nullptr;

  milp::MilpOptions milp;

  EptasConfig() {
    milp.max_nodes = 2000;
    milp.time_limit_seconds = 20.0;
  }
};

}  // namespace bagsched::eptas
