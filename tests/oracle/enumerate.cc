#include "oracle/enumerate.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "milp/branch_and_bound.h"

namespace bagsched::oracle {

using eptas::JobClass;

using model::BagId;
using model::JobId;

namespace {

/// DFS over priority-bag choices, then B_x multiplicities.
class Enumerator {
 public:
  Enumerator(const PatternSpace& space, int max_patterns)
      : space_(space), max_patterns_(max_patterns) {}

  std::optional<std::vector<Pattern>> run() {
    current_ = empty_pattern(space_);
    if (!priority_level(0)) return std::nullopt;
    return std::move(result_);
  }

 private:
  bool emit() {
    if (static_cast<int>(result_.size()) >= max_patterns_) return false;
    result_.push_back(current_);
    return true;
  }

  bool priority_level(int level) {
    if (level == space_.num_priority()) return x_level(0);
    // Option: no entry from this bag.
    if (!priority_level(level + 1)) return false;
    const auto& pbag = space_.priority_bags[static_cast<std::size_t>(level)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      if (current_.height + pbag.sizes[s] > space_.max_height + 1e-12) {
        continue;
      }
      current_.pchoice[static_cast<std::size_t>(level)] =
          static_cast<int>(s);
      current_.height += pbag.sizes[s];
      const bool ok = priority_level(level + 1);
      current_.height -= pbag.sizes[s];
      current_.pchoice[static_cast<std::size_t>(level)] = -1;
      if (!ok) return false;
    }
    return true;
  }

  bool x_level(int level) {
    if (level == space_.num_x_sizes()) return emit();
    if (!x_level(level + 1)) return false;  // count 0
    const double size = space_.x_sizes[static_cast<std::size_t>(level)];
    const int max_count = std::min(
        space_.x_avail[static_cast<std::size_t>(level)],
        static_cast<int>(
            std::floor((space_.max_height - current_.height) / size +
                       1e-12)));
    for (int c = 1; c <= max_count; ++c) {
      current_.xcount[static_cast<std::size_t>(level)] = c;
      current_.height += size;
      if (!x_level(level + 1)) {
        current_.height -= size * c;
        current_.xcount[static_cast<std::size_t>(level)] = 0;
        return false;
      }
    }
    current_.height -=
        size * current_.xcount[static_cast<std::size_t>(level)];
    current_.xcount[static_cast<std::size_t>(level)] = 0;
    return true;
  }

  const PatternSpace& space_;
  int max_patterns_;
  Pattern current_;
  std::vector<Pattern> result_;
};

}  // namespace

std::optional<std::vector<Pattern>> enumerate_all_patterns(
    const PatternSpace& space, int max_patterns) {
  Enumerator enumerator(space, max_patterns);
  return enumerator.run();
}

std::optional<MasterSolution> solve_enumerated_master(
    const PatternSpace& space, const Transformed& transformed,
    const Classification& cls, const EptasConfig& config, int max_patterns,
    bool integral_y, EnumeratedStats* stats) {
  const model::Instance& inst = transformed.instance;
  const int m = inst.num_machines();

  const auto patterns = enumerate_all_patterns(space, max_patterns);
  if (!patterns) return std::nullopt;  // theory-sized blow-up

  // Small size-restricted bags: (bag, size) -> count.
  struct SmallClass {
    BagId bag;
    double size;
    int count;
  };
  std::vector<SmallClass> small_classes;
  {
    std::map<std::pair<BagId, double>, int> counts;
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      if (transformed.class_of(j) == JobClass::Small) {
        ++counts[{inst.job(j).bag, inst.job(j).size}];
      }
    }
    for (const auto& [key, count] : counts) {
      small_classes.push_back(SmallClass{key.first, key.second, count});
    }
  }

  // Priority-bag index per I' bag for chi_p lookups.
  std::map<BagId, int> pbag_index;
  for (int i = 0; i < space.num_priority(); ++i) {
    pbag_index[space.priority_bags[static_cast<std::size_t>(i)].bag] = i;
  }
  auto chi = [&](const Pattern& pattern, BagId bag) {
    const auto it = pbag_index.find(bag);
    return it != pbag_index.end() && pattern.contains_priority(it->second);
  };

  lp::Model model;
  model.set_objective(lp::Objective::Minimize);

  // x_p variables (6).
  std::vector<int> x_vars;
  x_vars.reserve(patterns->size());
  for (const Pattern& pattern : *patterns) {
    x_vars.push_back(model.add_variable(pattern_cost(pattern), 0.0,
                                        static_cast<double>(m)));
  }
  // y^{B_l^s}_p variables (7)-(9): skipped when chi_p(B_l) = 1 (they are
  // forced to zero by (5)) or the size cannot fit the free space.
  // y_vars[c][p] = variable index or -1.
  std::vector<std::vector<int>> y_vars(
      small_classes.size(),
      std::vector<int>(patterns->size(), -1));
  int y_count = 0;
  for (std::size_t c = 0; c < small_classes.size(); ++c) {
    for (std::size_t p = 0; p < patterns->size(); ++p) {
      const Pattern& pattern = (*patterns)[p];
      if (chi(pattern, small_classes[c].bag)) continue;
      if (small_classes[c].size >
          cls.target_height - pattern.height + 1e-12) {
        continue;
      }
      y_vars[c][p] = model.add_variable(0.0);
      ++y_count;
    }
  }

  // (1)
  {
    std::vector<std::pair<int, double>> terms;
    for (int var : x_vars) terms.emplace_back(var, 1.0);
    model.add_constraint(std::move(terms), lp::Sense::LessEqual, m);
  }
  // (2) priority part.
  for (int i = 0; i < space.num_priority(); ++i) {
    const auto& pbag = space.priority_bags[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
      std::vector<std::pair<int, double>> terms;
      for (std::size_t p = 0; p < patterns->size(); ++p) {
        if ((*patterns)[p].pchoice[static_cast<std::size_t>(i)] ==
            static_cast<int>(s)) {
          terms.emplace_back(x_vars[p], 1.0);
        }
      }
      model.add_constraint(std::move(terms), lp::Sense::GreaterEqual,
                           pbag.counts[s]);
    }
  }
  // (2) B_x part.
  for (int s = 0; s < space.num_x_sizes(); ++s) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t p = 0; p < patterns->size(); ++p) {
      const int count = (*patterns)[p].xcount[static_cast<std::size_t>(s)];
      if (count > 0) terms.emplace_back(x_vars[p], count);
    }
    model.add_constraint(std::move(terms), lp::Sense::GreaterEqual,
                         space.x_avail[static_cast<std::size_t>(s)]);
  }
  // (3)
  for (std::size_t c = 0; c < small_classes.size(); ++c) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t p = 0; p < patterns->size(); ++p) {
      if (y_vars[c][p] >= 0) terms.emplace_back(y_vars[c][p], 1.0);
    }
    model.add_constraint(std::move(terms), lp::Sense::GreaterEqual,
                         small_classes[c].count);
  }
  // (4)
  for (std::size_t p = 0; p < patterns->size(); ++p) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t c = 0; c < small_classes.size(); ++c) {
      if (y_vars[c][p] >= 0) {
        terms.emplace_back(y_vars[c][p], small_classes[c].size);
      }
    }
    if (terms.empty()) continue;
    terms.emplace_back(x_vars[p],
                       -(cls.target_height - (*patterns)[p].height));
    model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
  }
  // (5): group small classes by bag.
  {
    std::map<BagId, std::vector<std::size_t>> classes_of_bag;
    for (std::size_t c = 0; c < small_classes.size(); ++c) {
      classes_of_bag[small_classes[c].bag].push_back(c);
    }
    for (const auto& [bag, classes] : classes_of_bag) {
      for (std::size_t p = 0; p < patterns->size(); ++p) {
        std::vector<std::pair<int, double>> terms;
        for (std::size_t c : classes) {
          if (y_vars[c][p] >= 0) terms.emplace_back(y_vars[c][p], 1.0);
        }
        if (terms.empty()) continue;
        terms.emplace_back(x_vars[p], -1.0);
        model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
      }
    }
  }

  std::vector<int> integer_vars = x_vars;
  if (integral_y) {
    for (const auto& row : y_vars) {
      for (int var : row) {
        if (var >= 0) integer_vars.push_back(var);
      }
    }
  }

  const milp::MilpResult milp_result =
      milp::solve(model, integer_vars, config.milp);
  if (stats != nullptr) {
    stats->patterns = static_cast<int>(patterns->size());
    stats->y_variables = y_count;
    stats->constraints = model.num_constraints();
    stats->milp_nodes = milp_result.nodes_explored;
  }
  if (milp_result.status != milp::MilpStatus::Optimal &&
      milp_result.status != milp::MilpStatus::Feasible) {
    return std::nullopt;
  }

  MasterSolution solution;
  solution.stats.columns = static_cast<int>(patterns->size());
  solution.stats.milp_nodes = milp_result.nodes_explored;
  for (std::size_t p = 0; p < patterns->size(); ++p) {
    const int count = static_cast<int>(std::llround(
        milp_result.x[static_cast<std::size_t>(x_vars[p])]));
    if (count > 0) {
      solution.patterns.push_back((*patterns)[p]);
      solution.multiplicity.push_back(count);
    }
  }
  return solution;
}

}  // namespace bagsched::oracle
