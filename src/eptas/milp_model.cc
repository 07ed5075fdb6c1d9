#include "eptas/milp_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "lp/simplex.h"
#include "milp/branch_and_bound.h"
#include "sched/greedy_bags.h"
#include "util/logging.h"

namespace bagsched::eptas {

using model::BagId;
using model::JobId;

namespace {

constexpr double kPenaltyCost = 1e4;

/// Everything needed to instantiate the master LP for a pattern pool.
struct MasterShape {
  int num_machines = 0;
  double free_area_rhs = 0.0;  ///< m*T' - small/medium area (row R4 rhs)
  /// Small-job count per priority-bag index (row R5 rhs = m - count).
  std::vector<int> priority_small_count;
};

MasterShape compute_shape(const PatternSpace& space,
                          const Transformed& transformed,
                          const Classification& cls) {
  MasterShape shape;
  const model::Instance& inst = transformed.instance;
  shape.num_machines = inst.num_machines();

  double needed_area = 0.0;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    if (transformed.class_of(j) == JobClass::Small) {
      needed_area += inst.job(j).size;
    }
  }
  for (JobId j : transformed.removed_medium) {
    needed_area += cls.size_of(j);
  }
  shape.free_area_rhs =
      shape.num_machines * cls.target_height - needed_area;

  shape.priority_small_count.assign(
      static_cast<std::size_t>(space.num_priority()), 0);
  for (int i = 0; i < space.num_priority(); ++i) {
    const BagId bag = space.priority_bags[static_cast<std::size_t>(i)].bag;
    for (JobId j : inst.bag(bag)) {
      if (transformed.class_of(j) == JobClass::Small) {
        ++shape.priority_small_count[static_cast<std::size_t>(i)];
      }
    }
  }
  return shape;
}

/// Adds one pattern as a master column (rows R1-R5); returns its variable.
int add_pattern_column(MasterModel& built, const PatternSpace& space,
                       const Pattern& pattern) {
  std::vector<std::pair<int, double>> terms;
  terms.emplace_back(built.row_machine, 1.0);
  for (int i = 0; i < space.num_priority(); ++i) {
    const int choice = pattern.pchoice[static_cast<std::size_t>(i)];
    if (choice < 0) continue;
    terms.emplace_back(built.rows_priority[static_cast<std::size_t>(i)]
                                          [static_cast<std::size_t>(choice)],
                       1.0);
    const int small_row = built.rows_small[static_cast<std::size_t>(i)];
    if (small_row >= 0) terms.emplace_back(small_row, 1.0);
  }
  for (int s = 0; s < space.num_x_sizes(); ++s) {
    const int count = pattern.xcount[static_cast<std::size_t>(s)];
    if (count > 0) {
      terms.emplace_back(built.rows_x[static_cast<std::size_t>(s)], count);
    }
  }
  if (pattern.height > 0.0) terms.emplace_back(built.row_area, pattern.height);
  return built.model.add_column(pattern_cost(pattern), std::move(terms));
}

/// Builds the master model for the given pattern pool: pattern variables
/// first (variable p is pool[p]), then one penalty per coverage row.
MasterModel build_master(const PatternSpace& space, const MasterShape& shape,
                         const std::vector<Pattern>& pool) {
  MasterModel built;
  lp::Model& model = built.model;
  model.set_objective(lp::Objective::Minimize);

  // R1: sum x_p <= m.
  built.row_machine =
      model.add_constraint({}, lp::Sense::LessEqual, shape.num_machines);
  // R2: priority coverage.
  built.rows_priority.resize(
      static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    const auto& pbag = space.priority_bags[static_cast<std::size_t>(i)];
    for (const int count : pbag.counts) {
      built.rows_priority[static_cast<std::size_t>(i)].push_back(
          model.add_constraint({}, lp::Sense::GreaterEqual, count));
    }
  }
  // R3: x-size coverage.
  for (const int avail : space.x_avail) {
    built.rows_x.push_back(
        model.add_constraint({}, lp::Sense::GreaterEqual, avail));
  }
  // R4: aggregate free-area.
  built.row_area = model.add_constraint({}, lp::Sense::LessEqual,
                                        shape.free_area_rhs);
  // R5: per priority bag with small jobs.
  built.rows_small.assign(static_cast<std::size_t>(space.num_priority()),
                          -1);
  for (int i = 0; i < space.num_priority(); ++i) {
    const int small_count =
        shape.priority_small_count[static_cast<std::size_t>(i)];
    if (small_count == 0) continue;
    built.rows_small[static_cast<std::size_t>(i)] = model.add_constraint(
        {}, lp::Sense::LessEqual, shape.num_machines - small_count);
  }

  for (const Pattern& pattern : pool) {
    add_pattern_column(built, space, pattern);
  }
  // Coverage penalties keep the LP feasible for any pool.
  for (const auto& rows : built.rows_priority) {
    for (const int row : rows) {
      built.penalty_vars.push_back(
          model.add_column(kPenaltyCost, {{row, 1.0}}));
    }
  }
  for (const int row : built.rows_x) {
    built.penalty_vars.push_back(model.add_column(kPenaltyCost, {{row, 1.0}}));
  }
  return built;
}

/// Seed columns: the empty pattern, one singleton per entry, and the ml
/// content of every machine of a greedy schedule of I' (when within T').
std::vector<Pattern> seed_pool(const PatternSpace& space,
                               const Transformed& transformed) {
  std::vector<Pattern> pool;
  std::set<std::vector<int>> seen;
  auto push = [&](const Pattern& pattern) {
    if (seen.insert(pattern.signature()).second) pool.push_back(pattern);
  };

  push(empty_pattern(space));
  for (int i = 0; i < space.num_priority(); ++i) {
    const auto& pbag = space.priority_bags[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      if (pbag.sizes[s] > space.max_height + 1e-12) continue;
      Pattern pattern = empty_pattern(space);
      pattern.pchoice[static_cast<std::size_t>(i)] = static_cast<int>(s);
      pattern.height = pbag.sizes[s];
      push(pattern);
    }
  }
  for (int s = 0; s < space.num_x_sizes(); ++s) {
    const double size = space.x_sizes[static_cast<std::size_t>(s)];
    const int max_count = std::min(
        space.x_avail[static_cast<std::size_t>(s)],
        static_cast<int>(std::floor(space.max_height / size + 1e-12)));
    for (int c = 1; c <= max_count; ++c) {
      Pattern pattern = empty_pattern(space);
      pattern.xcount[static_cast<std::size_t>(s)] = c;
      pattern.height = size * c;
      push(pattern);
    }
  }
  // Greedy schedule of I' as a warm start.
  if (transformed.instance.is_feasible()) {
    const model::Schedule greedy =
        sched::greedy_bags(transformed.instance);
    for (const auto& machine_jobs : greedy.machine_jobs()) {
      const auto pattern =
          pattern_from_machine(space, transformed, machine_jobs);
      if (pattern) push(*pattern);
    }
  }
  return pool;
}

}  // namespace

PricingDuals master_duals(const PatternSpace& space, const MasterModel& built,
                          const std::vector<double>& row_duals) {
  PricingDuals duals;
  auto dual_of = [&](int row) {
    return row >= 0 ? row_duals[static_cast<std::size_t>(row)] : 0.0;
  };
  duals.machine = dual_of(built.row_machine);
  duals.priority.resize(static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    for (int row : built.rows_priority[static_cast<std::size_t>(i)]) {
      duals.priority[static_cast<std::size_t>(i)].push_back(dual_of(row));
    }
  }
  for (int row : built.rows_x) duals.x_size.push_back(dual_of(row));
  duals.area = dual_of(built.row_area);
  duals.small_block.resize(static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    duals.small_block[static_cast<std::size_t>(i)] =
        dual_of(built.rows_small[static_cast<std::size_t>(i)]);
  }
  return duals;
}

MasterModel build_master_model(const PatternSpace& space,
                               const Transformed& transformed,
                               const Classification& cls,
                               const std::vector<Pattern>& pool) {
  return build_master(space, compute_shape(space, transformed, cls), pool);
}

std::optional<MasterSolution> solve_master(const PatternSpace& space,
                                           const Transformed& transformed,
                                           const Classification& cls,
                                           const EptasConfig& config,
                                           std::vector<Pattern>* final_pool) {
  const MasterShape shape = compute_shape(space, transformed, cls);
  if (shape.free_area_rhs < -1e-9) return std::nullopt;  // area alone fails
  for (int i = 0; i < space.num_priority(); ++i) {
    if (shape.priority_small_count[static_cast<std::size_t>(i)] >
        shape.num_machines) {
      return std::nullopt;
    }
  }

  MasterStats stats;
  std::vector<Pattern> pool = seed_pool(space, transformed);
  std::set<std::vector<int>> signatures;
  for (const Pattern& pattern : pool) signatures.insert(pattern.signature());

  // --- Column generation at the root ---------------------------------------
  // One live tableau from the seed columns to the integral answer: the seed
  // master is cold-solved once, each priced pattern joins it as a column
  // (the re-solve runs primal pivots only), and branch-and-bound then
  // branches on the same model and tableau. Generated patterns follow the
  // penalty columns, so pattern_var maps pool index -> model variable.
  MasterModel live = build_master(space, shape, pool);
  std::vector<int> pattern_var(pool.size());
  std::iota(pattern_var.begin(), pattern_var.end(), 0);
  lp::IncrementalSimplex simplex(live.model, config.milp.lp_options);
  const int max_rounds = 80;
  for (int round = 0; round < max_rounds; ++round) {
    if (util::stop_requested(config.milp.cancel)) break;
    if (static_cast<int>(pool.size()) >= config.max_milp_patterns) break;
    const lp::LpResult lp_result = simplex.resolve(live.model);
    stats.lp_iterations += lp_result.iterations;
    if (lp_result.status != lp::SolveStatus::Optimal) break;
    ++stats.pricing_rounds;
    stats.lp_objective = lp_result.objective;

    const PricingDuals duals = master_duals(space, live, lp_result.duals);
    PricingStats pricing;
    const auto column = price_pattern(space, duals, {}, &pricing);
    stats.pricing_nodes += pricing.nodes;
    if (pricing.truncated) ++stats.pricing_truncations;
    if (!column) {
      // Only an exhaustive search proves the LP optimal over all
      // patterns; a truncated one just ran out of budget.
      stats.lp_optimal = !pricing.truncated;
      break;
    }
    if (!signatures.insert(column->signature()).second) break;  // repeat
    pool.push_back(*column);
    pattern_var.push_back(add_pattern_column(live, space, *column));
  }
  stats.columns = static_cast<int>(pool.size());

  // --- Integral solve over the generated pool ------------------------------
  const milp::MilpResult milp_result =
      milp::solve(live.model, simplex, pattern_var, config.milp);
  stats.milp_nodes = milp_result.nodes_explored;
  stats.milp_lp_iterations = milp_result.lp_iterations;
  stats.lp_cold_starts = simplex.cold_starts();
  if (final_pool != nullptr) *final_pool = pool;
  if (milp_result.status != milp::MilpStatus::Optimal &&
      milp_result.status != milp::MilpStatus::Feasible) {
    return std::nullopt;
  }
  // Any active penalty means some coverage row could not be met.
  for (int penalty : live.penalty_vars) {
    if (milp_result.x[static_cast<std::size_t>(penalty)] > 1e-6) {
      return std::nullopt;
    }
  }

  MasterSolution solution;
  for (std::size_t p = 0; p < pool.size(); ++p) {
    const int count = static_cast<int>(std::llround(
        milp_result.x[static_cast<std::size_t>(pattern_var[p])]));
    if (count > 0) {
      solution.patterns.push_back(pool[p]);
      solution.multiplicity.push_back(count);
    }
  }
  solution.stats = stats;
  return solution;
}

}  // namespace bagsched::eptas
