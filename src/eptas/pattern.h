// Patterns (paper Definition 3) and the pricing problem used to generate
// them on demand.
//
// A pattern describes the medium/large content of one machine:
//  * for each priority bag: nothing, or exactly one job of one of the bag's
//    medium/large sizes ("at most one entry of a size-restricted bag of B_l"),
//  * for each large size s: a count of B_x slots (jobs of arbitrary
//    non-priority large-part bags).
// Height (sum of entry sizes) is at most T' = 1 + 2eps + eps^2.
//
// The paper enumerates all patterns; their number is a (gigantic) function
// of eps only. We instead generate the profitable ones by solving a pricing
// problem inside a column-generation loop (see milp_model.h) — the MILP that
// results is the same program restricted to the generated columns.
#pragma once

#include <optional>
#include <vector>

#include "eptas/classify.h"
#include "eptas/transform.h"
#include "model/job.h"

namespace bagsched::eptas {

/// The universe of pattern entries for one transformed instance.
struct PatternSpace {
  struct PriorityBag {
    model::BagId bag;            ///< I' bag id
    std::vector<double> sizes;   ///< distinct ml sizes present, descending
    std::vector<int> counts;     ///< jobs per size
  };
  std::vector<PriorityBag> priority_bags;

  std::vector<double> x_sizes;  ///< large sizes with non-priority jobs, desc
  std::vector<int> x_avail;     ///< jobs per x size

  double max_height = 0.0;  ///< T'

  int num_priority() const {
    return static_cast<int>(priority_bags.size());
  }
  int num_x_sizes() const { return static_cast<int>(x_sizes.size()); }
};

/// One pattern. `pchoice[i]` is the chosen size index for priority bag i
/// (-1 for none); `xcount[s]` is the number of B_x slots of x-size s.
struct Pattern {
  std::vector<int> pchoice;
  std::vector<int> xcount;
  double height = 0.0;

  bool contains_priority(int i) const {
    return pchoice[static_cast<std::size_t>(i)] >= 0;
  }
  int jobs_in_pattern() const;

  /// Canonical key for deduplication.
  std::vector<int> signature() const;
};

/// Builds the entry universe from the transformed instance.
PatternSpace build_pattern_space(const Transformed& transformed,
                                 const Classification& cls);

Pattern empty_pattern(const PatternSpace& space);

/// Interprets one machine of an existing feasible schedule of I' as a
/// pattern (used to seed the column pool). Returns nullopt when the
/// machine's ml content exceeds T' or violates the one-per-priority-bag rule.
std::optional<Pattern> pattern_from_machine(
    const PatternSpace& space, const Transformed& transformed,
    const std::vector<model::JobId>& machine_jobs);

/// Dual prices for the master rows (see milp_model.cc for the row layout).
struct PricingDuals {
  double machine = 0.0;                       ///< row R1
  std::vector<std::vector<double>> priority;  ///< R2 per (pbag, size)
  std::vector<double> x_size;                 ///< R3 per x size
  double area = 0.0;                          ///< R4 (coefficient: height)
  std::vector<double> small_block;            ///< R5 per pbag (coeff: l in p)
};

struct PricingOptions {
  long long max_nodes = 200000;
  /// Only patterns with score above this improve the master.
  double improvement_tolerance = 1e-7;
};

/// What one pricing call did.
struct PricingStats {
  long long nodes = 0;     ///< search nodes visited
  /// The node budget cut the search short: a nullopt result then does NOT
  /// prove that no improving pattern exists.
  bool truncated = false;
};

/// Reduced-cost numerator of a pattern:  sum(duals * column) - cost(p).
double pattern_score(const PatternSpace& space, const PricingDuals& duals,
                     const Pattern& pattern);

/// Finds a pattern maximizing pattern_score, where cost(p) = height(p)^2
/// (the master objective). Returns nullopt when no pattern beats the
/// tolerance, i.e. the master LP is optimal — unless `stats` reports the
/// search truncated.
std::optional<Pattern> price_pattern(const PatternSpace& space,
                                     const PricingDuals& duals,
                                     const PricingOptions& options = {},
                                     PricingStats* stats = nullptr);

/// cost(p) = height^2: prefers spreading ml jobs over stacking them, which
/// is what keeps room for small jobs (paper constraint (4) in spirit).
double pattern_cost(const Pattern& pattern);

}  // namespace bagsched::eptas
