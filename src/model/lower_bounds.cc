#include "model/lower_bounds.h"

#include <algorithm>
#include <vector>

namespace bagsched::model {

double area_lower_bound(const Instance& instance) {
  return instance.total_area() / instance.num_machines();
}

double pmax_lower_bound(const Instance& instance) {
  return instance.max_size();
}

double pairing_lower_bound(const Instance& instance) {
  const int m = instance.num_machines();
  if (instance.num_jobs() <= m) return 0.0;
  std::vector<double> sizes;
  sizes.reserve(static_cast<std::size_t>(instance.num_jobs()));
  for (const Job& job : instance.jobs()) sizes.push_back(job.size);
  // With n > m jobs, the m+1 largest jobs cannot all be alone: two of them
  // share a machine, and the cheapest such pairing is the two smallest among
  // the m+1 largest — the (m+1)-th largest size plus the largest size below
  // it in descending order. Two selections, no full sort.
  const auto mth = sizes.begin() + m;
  std::nth_element(sizes.begin(), mth, sizes.end(), std::greater<>());
  return *std::min_element(sizes.begin(), mth) + *mth;
}

double combined_lower_bound(const Instance& instance) {
  return std::max({area_lower_bound(instance), pmax_lower_bound(instance),
                   pairing_lower_bound(instance)});
}

}  // namespace bagsched::model
