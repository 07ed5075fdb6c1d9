// The test suites' one long-running request: it holds a worker slot until
// cancellation, a deadline or its time limit ends it.
//
// Exact branch-and-bound on uniform 60x8 (seed 3) does not prove optimality
// within its 30 s time limit (it stops there with a 0.33% gap on a 4-core
// x86 box), and with no node budget nothing else ends the search sooner.
// Every test that submits a hog must cancel it, give it a deadline, or shut
// down the service or connection that runs it; a hog left running holds its
// slot for 30 s.
#pragma once

#include <limits>

#include "api/api.h"

namespace bagsched {

/// `num_threads` sizes the pool of "exact-parallel" (which runs one even on
/// a single core); "exact" ignores it.
inline api::SolveRequest hog_request(const char* solver = "exact",
                                     int num_threads = 0) {
  api::SolveOptions options;
  options.time_limit_seconds = 30.0;
  options.max_nodes = std::numeric_limits<long long>::max();
  options.seed = 3;
  options.num_threads = num_threads;
  return api::make_request(api::make_instance("uniform", 60, 8, options),
                           options, {solver});
}

}  // namespace bagsched
