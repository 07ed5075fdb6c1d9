// The pattern MILP (paper section 3) in aggregated, column-generated form.
//
// Row layout (the paper's constraint numbers in parentheses):
//   R1  sum_p x_p <= m                                  (1)
//   R2  per priority (bag, ml size): coverage >= count  (2), priority part
//   R3  per large x size: coverage >= count             (2), B_x part
//   R4  sum_p height(p) * x_p <= m*T' - small_and_medium_area
//       — the aggregate of (3)+(4): free area across all machines must hold
//       every small job (and the removed mediums re-inserted by Lemma 3)
//   R5  per priority bag l with small jobs:
//       sum_{p : l in p} x_p <= m - #small(l)
//       — the aggregate of (5): enough machines without ml jobs of B_l must
//       remain for B_l's small jobs.
//
// The paper's per-pattern fractional y variables are replaced by these two
// aggregate families; the small-job scheduling stage (small_jobs.h) then
// recovers an explicit distribution with group-bag-LPT, exactly as the
// paper's Lemmas 8-10 do on top of the y values. See DESIGN.md §3.
//
// Coverage rows carry high-cost penalty variables so the master LP is always
// feasible; a guess T is declared infeasible when the integral optimum still
// uses penalties.
#pragma once

#include <optional>
#include <vector>

#include "eptas/classify.h"
#include "eptas/config.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"
#include "lp/model.h"

namespace bagsched::eptas {

struct MasterStats {
  int columns = 0;
  int pricing_rounds = 0;
  long long lp_iterations = 0;  ///< column-generation LP pivots
  long long pricing_nodes = 0;
  long long milp_nodes = 0;
  long long milp_lp_iterations = 0;  ///< branch-and-bound LP pivots
  /// Cold setups (phase 1 from scratch) of the master's one simplex: 1
  /// for the seed master, more only when a re-solve had to rebuild.
  long long lp_cold_starts = 0;
  /// Objective of the last column-generation LP solved.
  double lp_objective = 0.0;
  /// Column generation ended because pricing proved that no pattern
  /// improves the LP: lp_objective is the LP optimum over ALL patterns.
  bool lp_optimal = false;
  /// Pricing rounds cut short by PricingOptions::max_nodes. A truncated
  /// round that finds no column ends column generation without the
  /// lp_optimal proof.
  int pricing_truncations = 0;
};

struct MasterSolution {
  /// Chosen patterns with positive multiplicity; sum of multiplicities <= m.
  std::vector<Pattern> patterns;
  std::vector<int> multiplicity;
  MasterStats stats;
};

/// Runs column generation + branch-and-bound. Returns nullopt when the
/// guessed makespan T (implicit in space.max_height) admits no solution.
///
/// One lp::IncrementalSimplex carries the master from its seed columns to
/// the integral answer: the seed master is built and cold-solved once,
/// each priced pattern is appended to the live tableau, and
/// branch-and-bound branches on that same model and tableau (DESIGN.md
/// §2). `final_pool`, when given, receives the generated pool — the
/// patterns the integral solve chose from — unless the guess failed
/// before column generation.
std::optional<MasterSolution> solve_master(
    const PatternSpace& space, const Transformed& transformed,
    const Classification& cls, const EptasConfig& config,
    std::vector<Pattern>* final_pool = nullptr);

/// The master LP over exactly `pool`: pattern variable p is pool[p], then
/// one penalty column per coverage row (rows R1-R5 above). The row ids
/// are where pricing reads its duals.
struct MasterModel {
  lp::Model model;
  std::vector<int> penalty_vars;
  int row_machine = 0;
  std::vector<std::vector<int>> rows_priority;  ///< per (pbag, size)
  std::vector<int> rows_x;
  int row_area = 0;
  std::vector<int> rows_small;  ///< -1 when the bag has no small jobs
};
MasterModel build_master_model(const PatternSpace& space,
                               const Transformed& transformed,
                               const Classification& cls,
                               const std::vector<Pattern>& pool);

/// Pricing duals from the per-row duals of an optimal master LP.
PricingDuals master_duals(const PatternSpace& space, const MasterModel& built,
                          const std::vector<double>& row_duals);

}  // namespace bagsched::eptas
