#include "api/options_digest.h"

#include <bit>

#include "util/hash.h"

namespace bagsched::api {

namespace {

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

std::uint64_t word(long long value) {
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::uint64_t options_digest(const SolveOptions& options) {
  // Result-relevant core options first, then the EPTAS knobs: the priority
  // caps, the pattern cap, rescue, the guess grid and the nested MILP
  // budgets all steer which schedule comes out. The order is part of the
  // digest.
  const eptas::EptasConfig& eptas = options.eptas;
  util::Hash128 hash(0x0d16e57ULL);
  hash.update(bits(options.eps));
  hash.update(bits(options.time_limit_seconds));
  hash.update(word(options.max_nodes));
  hash.update(word(options.max_moves));
  hash.update(word(options.multifit_iterations));
  hash.update(options.seed);
  hash.update(bits(options.stack_threshold));
  hash.update(word(eptas.max_priority_per_size));
  hash.update(word(eptas.max_priority_total));
  hash.update(word(eptas.max_milp_patterns));
  hash.update(eptas.enable_rescue ? 1ULL : 0ULL);
  hash.update(bits(eptas.guess_step_fraction));
  hash.update(word(eptas.milp.max_nodes));
  hash.update(bits(eptas.milp.time_limit_seconds));
  return hash.lo();
}

}  // namespace bagsched::api
