// Preprocessing of the scaled instance (paper §2.1):
//  * round all sizes up onto the (1+eps)-grid,
//  * pick k per Lemma 1 (the medium band [eps^{k+1}, eps^k) has area
//    <= eps^2 * m),
//  * classify jobs large/medium/small,
//  * classify bags large/small and priority/non-priority (Definition 2).
//
// Everything here assumes the instance has been scaled so the target
// makespan is 1 (sizes are p_j / T).
#pragma once

#include <optional>
#include <vector>

#include "eptas/config.h"
#include "model/instance.h"

namespace bagsched::eptas {

enum class JobClass { Large, Medium, Small };

struct Classification {
  double eps = 0.0;
  int k = 0;                      ///< Lemma 1 parameter
  double large_threshold = 0.0;   ///< eps^k
  double medium_threshold = 0.0;  ///< eps^{k+1}
  double target_height = 0.0;     ///< T' = 1 + 2*eps + eps^2 (paper's T)

  std::vector<double> rounded_size;  ///< per job, power of (1+eps)
  std::vector<JobClass> job_class;   ///< per job

  std::vector<bool> is_large_bag;  ///< >= eps*m medium-or-large jobs
  std::vector<bool> is_priority;   ///< Definition 2 (includes large bags)

  /// Distinct rounded sizes present, descending. "ml" = medium or large.
  std::vector<double> large_sizes;
  std::vector<double> ml_sizes;
  std::vector<double> small_sizes;

  /// Paper constants for reporting: q (jobs per machine bound), d (#large
  /// sizes), b' (priority bags per size). The *effective* per-size priority
  /// cut-off actually used is priority_cutoff = min(b', max_priority_per_size).
  double q = 0.0;
  int d = 0;
  long long b_prime = 0;
  int priority_cutoff = 0;

  JobClass class_of(model::JobId job) const {
    return job_class[static_cast<std::size_t>(job)];
  }
  double size_of(model::JobId job) const {
    return rounded_size[static_cast<std::size_t>(job)];
  }
};

/// Returns nullopt when no valid k exists (the guessed makespan is too
/// small: total rounded area already exceeds (1+eps) * m).
///
/// When `precomputed_rounded` is given (one grid value per job, as produced
/// by util::EpsGrid::round_up on the scaled sizes), the rounding pass is
/// skipped and `scaled` is only consulted for its bag structure and machine
/// count — the guess search uses this to classify directly from a cached
/// grid signature without materializing a scaled instance.
std::optional<Classification> classify(
    const model::Instance& scaled, double eps, const EptasConfig& config,
    const std::vector<double>* precomputed_rounded = nullptr);

/// The paper's b' = (d*q + 1) * q for given d and q (classify caps it with
/// EptasConfig::max_priority_per_size).
long long paper_b_prime(int d, double q);

}  // namespace bagsched::eptas
