#include "eptas/classify.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/grid.h"

namespace bagsched::eptas {

using model::BagId;
using model::Instance;
using model::JobId;

long long paper_b_prime(int d, double q) {
  const long long qi = static_cast<long long>(std::ceil(q));
  return (static_cast<long long>(d) * qi + 1) * qi;
}

std::optional<Classification> classify(
    const Instance& scaled, double eps, const EptasConfig& config,
    const std::vector<double>* precomputed_rounded) {
  Classification cls;
  cls.eps = eps;
  cls.target_height = 1.0 + 2.0 * eps + eps * eps;

  const util::EpsGrid grid(eps);
  const int n = scaled.num_jobs();
  const int m = scaled.num_machines();

  // --- Rounding ------------------------------------------------------------
  cls.rounded_size.resize(static_cast<std::size_t>(n));
  double rounded_area = 0.0;
  for (JobId j = 0; j < n; ++j) {
    const double rounded =
        precomputed_rounded != nullptr
            ? (*precomputed_rounded)[static_cast<std::size_t>(j)]
            : grid.round_up(scaled.job(j).size);
    cls.rounded_size[static_cast<std::size_t>(j)] = rounded;
    rounded_area += rounded;
    // A job larger than (1+eps) cannot fit below the guessed makespan.
    if (rounded > 1.0 + eps + 1e-9) return std::nullopt;
  }
  // Rounding turns an OPT=1 schedule into an OPT<=1+eps one; if even the
  // average load exceeds that, the guess is too small.
  if (rounded_area > (1.0 + eps) * m + 1e-9) return std::nullopt;

  // --- Lemma 1: choose k in N_{<= 1/eps^2} with band area <= eps^2 * m ----
  const int k_max = static_cast<int>(std::ceil(1.0 / (eps * eps)));
  int chosen_k = -1;
  for (int k = 1; k <= k_max; ++k) {
    const double hi = std::pow(eps, k);
    const double lo = std::pow(eps, k + 1);
    double band_area = 0.0;
    for (JobId j = 0; j < n; ++j) {
      const double p = cls.rounded_size[static_cast<std::size_t>(j)];
      if (p >= lo - 1e-15 && p < hi - 1e-15) band_area += p;
    }
    if (band_area <= eps * eps * m + 1e-9) {
      chosen_k = k;
      break;  // smallest k keeps the large class as coarse as possible
    }
  }
  if (chosen_k < 0) return std::nullopt;  // impossible when area <= (1+eps)m
  cls.k = chosen_k;
  cls.large_threshold = std::pow(eps, chosen_k);
  cls.medium_threshold = std::pow(eps, chosen_k + 1);

  // --- Job classes and distinct sizes --------------------------------------
  cls.job_class.resize(static_cast<std::size_t>(n));
  std::set<double> large_set, medium_set, small_set;
  for (JobId j = 0; j < n; ++j) {
    const double p = cls.rounded_size[static_cast<std::size_t>(j)];
    JobClass job_class;
    if (p >= cls.large_threshold - 1e-15) {
      job_class = JobClass::Large;
      large_set.insert(p);
    } else if (p >= cls.medium_threshold - 1e-15) {
      job_class = JobClass::Medium;
      medium_set.insert(p);
    } else {
      job_class = JobClass::Small;
      small_set.insert(p);
    }
    cls.job_class[static_cast<std::size_t>(j)] = job_class;
  }
  cls.large_sizes.assign(large_set.rbegin(), large_set.rend());
  cls.small_sizes.assign(small_set.rbegin(), small_set.rend());
  std::set<double> ml_set = large_set;
  ml_set.insert(medium_set.begin(), medium_set.end());
  cls.ml_sizes.assign(ml_set.rbegin(), ml_set.rend());

  // --- Paper constants ------------------------------------------------------
  cls.d = static_cast<int>(cls.large_sizes.size());
  cls.q = cls.target_height / cls.medium_threshold;
  cls.b_prime = paper_b_prime(cls.d, cls.q);

  // --- Large bags (>= eps*m medium-or-large jobs) --------------------------
  const int b = scaled.num_bags();
  cls.is_large_bag.assign(static_cast<std::size_t>(b), false);
  for (BagId l = 0; l < b; ++l) {
    int ml_count = 0;
    for (JobId j : scaled.bag(l)) {
      if (cls.class_of(j) != JobClass::Small) ++ml_count;
    }
    if (ml_count >= eps * m - 1e-9) {
      cls.is_large_bag[static_cast<std::size_t>(l)] = true;
    }
  }

  // --- Priority bags (Definition 2) -----------------------------------------
  // For each large size s, sort bags by |B_l^s| descending (the paper's
  // index function o_s) and mark the first `cutoff` bags as priority.
  const long long cutoff =
      std::min<long long>(cls.b_prime, config.max_priority_per_size);
  cls.priority_cutoff = static_cast<int>(cutoff);

  cls.is_priority = cls.is_large_bag;  // every large bag is priority
  for (const double s : cls.large_sizes) {
    std::map<BagId, int> count;
    for (JobId j = 0; j < n; ++j) {
      if (cls.class_of(j) == JobClass::Large &&
          util::approx_eq(cls.size_of(j), s)) {
        ++count[scaled.job(j).bag];
      }
    }
    std::vector<std::pair<int, BagId>> ordered;  // (-count, bag): sort desc
    ordered.reserve(count.size());
    for (const auto& [bag, c] : count) ordered.emplace_back(-c, bag);
    std::sort(ordered.begin(), ordered.end());
    for (std::size_t i = 0;
         i < ordered.size() && i < static_cast<std::size_t>(cutoff); ++i) {
      cls.is_priority[static_cast<std::size_t>(ordered[i].second)] = true;
    }
  }

  // Keep |A| within max_priority_total. Drop the priority flag from the
  // bags with the fewest medium-or-large jobs until the cap holds. (Large
  // bags are never dropped; their count is O(1/eps^{k+2}) by the paper.)
  std::vector<std::pair<int, BagId>> priority_list;  // (ml count, bag)
  for (BagId l = 0; l < b; ++l) {
    if (!cls.is_priority[static_cast<std::size_t>(l)] ||
        cls.is_large_bag[static_cast<std::size_t>(l)]) {
      continue;
    }
    int ml_count = 0;
    for (JobId j : scaled.bag(l)) {
      if (cls.class_of(j) != JobClass::Small) ++ml_count;
    }
    priority_list.emplace_back(ml_count, l);
  }
  int total_priority = 0;
  for (BagId l = 0; l < b; ++l) {
    if (cls.is_priority[static_cast<std::size_t>(l)]) ++total_priority;
  }
  std::sort(priority_list.begin(), priority_list.end());
  for (const auto& [ml_count, bag] : priority_list) {
    if (total_priority <= config.max_priority_total) break;
    cls.is_priority[static_cast<std::size_t>(bag)] = false;
    --total_priority;
  }

  return cls;
}

}  // namespace bagsched::eptas
