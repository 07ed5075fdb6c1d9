// Deterministic inputs of the three perfbench workloads. Every request a
// run sends is a pure function of (workload seed, stream position), so the
// same seed replays the same traffic on every run, in the closed-loop wire
// phase and in the traced in-process replay alike.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "model/delta.h"
#include "model/instance.h"

namespace perfbench {

namespace api = bagsched::api;
namespace model = bagsched::model;

/// One solve request with everything the client needs to check its answer.
struct SolveInput {
  api::SolveRequest request;
  double lower_bound = 0.0;  ///< combined lower bound of request.instance
  std::string request_json;  ///< api::to_json(request).dump()
  /// Stream position of the fresh instance this request repeats (job-
  /// permuted, bag-relabeled); -1 when the instance is fresh.
  long long repeat_of = -1;
};

/// wire-small: 64 seeded uniform instances (24 jobs, 4 machines) solved by
/// greedy-bags with the cache off; request k is pool[k % 64].
std::vector<SolveInput> wire_small_pool(std::uint64_t seed);

/// eptas-cache: eptas at eps 0.5, cache read-write. Fresh instances cycle
/// through the uniform, planted, bagheavy and smallbags families at 24 jobs
/// / 4 machines and replica at 40 jobs / 6 machines; every third request
/// repeats one of the last few fresh instances, jobs permuted and bags
/// relabeled. Requests are generated on first use and kept.
class EptasStream {
 public:
  explicit EptasStream(std::uint64_t seed) : seed_(seed) {}
  const SolveInput& at(std::size_t k);

 private:
  model::Instance fresh_instance(std::size_t fresh) const;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<SolveInput>> requests_;
};

/// session-journal: one session's gen::churn_trace (200 jobs, 16 machines,
/// 40 bags), with each delta pre-encoded for the wire.
struct SessionInput {
  api::SolveRequest open_request;  ///< initial instance, cheap solvers
  std::string open_json;           ///< api::to_json(open_request).dump()
  std::vector<model::Delta> deltas;
  std::vector<std::string> delta_json;  ///< api::to_json(delta).dump()
};

/// Regret bound the sessions are opened with; every commit must stay within
/// (1 + kRegretBound) * combined lower bound.
inline constexpr double kRegretBound = 0.15;

SessionInput session_input(std::uint64_t seed, int session_index, int steps);

}  // namespace perfbench
