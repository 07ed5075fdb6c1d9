// Tunable constants of the EPTAS implementation.
//
// The paper's constants make the algorithm a pure theory result (DESIGN.md
// §3); ConstantsProfile::Practical keeps the identical pipeline but caps the
// combinatorial blow-up. PaperExact uses the published formulas and is only
// tractable on toy instances — it exists so tests can exercise the formulas.
#pragma once

#include <cstdint>
#include <functional>

#include "milp/branch_and_bound.h"
#include "util/cancellation.h"

namespace bagsched::eptas {

enum class ConstantsProfile { Practical, PaperExact };

/// One consumed dual-approximation probe, reported in search order.
struct GuessProbeEvent {
  int index = 0;          ///< guess index on the search grid
  double guess = 0.0;     ///< makespan guess T = lower * step^index
  bool success = false;   ///< the pipeline certified a schedule at T
  bool memo_hit = false;  ///< served from the rounded-grid probe memo
  int pricing_rounds = 0; ///< column-generation rounds this probe ran
};

struct EptasConfig {
  ConstantsProfile profile = ConstantsProfile::Practical;

  // --- Practical-profile caps -------------------------------------------
  /// Priority bags taken per large size (paper: b' = (dq+1)q).
  int max_priority_per_size = 3;
  /// Hard cap on the total number of priority bags |A|.
  int max_priority_total = 10;
  /// Abort pattern enumeration beyond this many patterns.
  int max_patterns = 20000;
  /// Fail the makespan guess when more than this many patterns reach the
  /// MILP (keeps the LP tractable for the dense simplex).
  int max_milp_patterns = 700;

  /// Solve the makespan guesses with the paper's literal MILP over fully
  /// enumerated patterns (eptas/enumerate.h) instead of column generation.
  /// Falls back to column generation when the enumeration exceeds
  /// max_patterns. Tractable only on small instances.
  bool use_enumerated_milp = false;

  // --- Behaviour ----------------------------------------------------------
  /// When a repair step cannot find the swap the lemmas promise (possible
  /// only under Practical caps), place the job on the least-loaded feasible
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
