#include "inputs.h"

#include <algorithm>
#include <numeric>

#include "api/serialize.h"
#include "gen/churn.h"
#include "gen/generators.h"
#include "model/lower_bounds.h"
#include "util/prng.h"

namespace perfbench {

namespace gen = bagsched::gen;
namespace util = bagsched::util;

namespace {

/// Deterministic 64-bit mix of a seed and a stream coordinate.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  util::splitmix64(state);
  return util::splitmix64(state);
}

SolveInput make_input(model::Instance instance, const api::SolveOptions& options,
                      const std::string& solver) {
  SolveInput input;
  input.lower_bound = model::combined_lower_bound(instance);
  input.request = api::make_request(std::move(instance), options, {solver});
  input.request_json = api::to_json(input.request).dump();
  return input;
}

/// The same instance with its jobs shuffled and its bags renamed: a cache
/// key twin (the canonical fingerprint is invariant under both).
model::Instance permute_and_relabel(const model::Instance& instance,
                                    util::Xoshiro256& rng) {
  std::vector<int> bag_name(static_cast<std::size_t>(instance.num_bags()));
  std::iota(bag_name.begin(), bag_name.end(), 0);
  rng.shuffle(bag_name);
  std::vector<model::Job> jobs = instance.jobs();
  rng.shuffle(jobs);
  for (model::Job& job : jobs) {
    job.bag = bag_name[static_cast<std::size_t>(job.bag)];
  }
  return model::Instance(std::move(jobs), instance.num_machines(),
                         instance.num_bags());
}

// Repeats draw from the most recent fresh instances, so the cache still
// holds them and a repeat of a still-running solve joins it (single-flight).
constexpr std::size_t kRepeatWindow = 8;

}  // namespace

std::vector<SolveInput> wire_small_pool(std::uint64_t seed) {
  std::vector<SolveInput> pool;
  pool.reserve(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    api::SolveOptions options;
    options.seed = mix_seed(seed, i);
    pool.push_back(make_input(gen::by_name("uniform", 24, 4, options.seed),
                              options, "greedy-bags"));
  }
  return pool;
}

model::Instance EptasStream::fresh_instance(std::size_t fresh) const {
  static const char* const kFamilies[] = {"uniform", "planted", "bagheavy",
                                          "smallbags", "replica"};
  const std::string family = kFamilies[fresh % 5];
  const bool replica = family == "replica";
  return gen::by_name(family, replica ? 40 : 24, replica ? 6 : 4,
                      mix_seed(seed_, 1'000'000 + fresh));
}

const SolveInput& EptasStream::at(std::size_t k) {
  api::SolveOptions options;
  options.eps = 0.5;
  options.cache_mode = api::CacheMode::ReadWrite;
  while (requests_.size() <= k) {
    const std::size_t index = requests_.size();
    // Positions 3g and 3g+1 are fresh instances 2g and 2g+1; position 3g+2
    // repeats one of the last kRepeatWindow fresh instances.
    const std::size_t group = index / 3;
    SolveInput input;
    if (index % 3 < 2) {
      input = make_input(fresh_instance(2 * group + index % 3), options,
                         "eptas");
    } else {
      util::Xoshiro256 rng(mix_seed(seed_, 2'000'000 + index));
      const std::size_t newest = 2 * group + 1;
      const std::size_t fresh =
          newest - rng.index(std::min(newest + 1, kRepeatWindow));
      input = make_input(permute_and_relabel(fresh_instance(fresh), rng),
                         options, "eptas");
      input.repeat_of = static_cast<long long>(fresh);
    }
    requests_.push_back(std::make_unique<SolveInput>(std::move(input)));
  }
  return *requests_[k];
}

SessionInput session_input(std::uint64_t seed, int session_index, int steps) {
  gen::ChurnParams params;
  params.num_jobs = 200;
  params.num_machines = 16;
  params.num_bags = 40;
  params.steps = steps;
  params.seed = mix_seed(seed, 3'000'000 + static_cast<std::uint64_t>(
                                               session_index));
  gen::ChurnTrace trace = gen::churn_trace(params);

  SessionInput input;
  api::SolveOptions options;
  options.seed = params.seed;
  // The scale-friendly half of the portfolio: a fresh fallback should cost
  // what a latency-conscious client would pay, and eptas stays idle here.
  input.open_request = api::make_request(
      std::move(trace.initial), options,
      {"local-search", "bag-lpt", "greedy-bags"});
  input.open_json = api::to_json(input.open_request).dump();
  input.delta_json.reserve(trace.deltas.size());
  for (const model::Delta& delta : trace.deltas) {
    input.delta_json.push_back(api::to_json(delta).dump());
  }
  input.deltas = std::move(trace.deltas);
  return input;
}

}  // namespace perfbench
