#include "api/options_digest.h"

#include <bit>

namespace bagsched::api {

namespace {

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

#define BAGSCHED_DIGEST_FIELD(name, expr)                              \
  DigestField {                                                        \
    name, [](util::Hash128& hash, const SolveOptions& options) {       \
      (void)options;                                                   \
      hash.update(expr);                                               \
    }                                                                  \
  }

const std::vector<DigestField>& registry() {
  // Result-relevant core options first, then the EPTAS knobs: the constants
  // profile and its caps, the enumeration toggle, the guess grid and
  // the nested MILP budgets all steer which schedule comes out.
  static const std::vector<DigestField> fields = {
      BAGSCHED_DIGEST_FIELD("eps", bits(options.eps)),
      BAGSCHED_DIGEST_FIELD("time_limit_seconds",
                            bits(options.time_limit_seconds)),
      BAGSCHED_DIGEST_FIELD(
          "max_nodes", static_cast<std::uint64_t>(options.max_nodes)),
      BAGSCHED_DIGEST_FIELD(
          "max_moves", static_cast<std::uint64_t>(options.max_moves)),
      BAGSCHED_DIGEST_FIELD(
          "multifit_iterations",
          static_cast<std::uint64_t>(options.multifit_iterations)),
      BAGSCHED_DIGEST_FIELD("seed", options.seed),
      BAGSCHED_DIGEST_FIELD("stack_threshold",
                            bits(options.stack_threshold)),
      BAGSCHED_DIGEST_FIELD(
          "eptas.profile",
          static_cast<std::uint64_t>(options.eptas.profile)),
      BAGSCHED_DIGEST_FIELD(
          "eptas.max_priority_per_size",
          static_cast<std::uint64_t>(options.eptas.max_priority_per_size)),
      BAGSCHED_DIGEST_FIELD(
          "eptas.max_priority_total",
          static_cast<std::uint64_t>(options.eptas.max_priority_total)),
      BAGSCHED_DIGEST_FIELD(
          "eptas.max_patterns",
          static_cast<std::uint64_t>(options.eptas.max_patterns)),
      BAGSCHED_DIGEST_FIELD(
          "eptas.max_milp_patterns",
          static_cast<std::uint64_t>(options.eptas.max_milp_patterns)),
      BAGSCHED_DIGEST_FIELD("eptas.enable_rescue",
                            options.eptas.enable_rescue ? 1ULL : 0ULL),
      BAGSCHED_DIGEST_FIELD("eptas.use_enumerated_milp",
                            options.eptas.use_enumerated_milp ? 1ULL : 0ULL),
      BAGSCHED_DIGEST_FIELD("eptas.guess_step_fraction",
                            bits(options.eptas.guess_step_fraction)),
      BAGSCHED_DIGEST_FIELD(
          "eptas.milp.max_nodes",
          static_cast<std::uint64_t>(options.eptas.milp.max_nodes)),
      BAGSCHED_DIGEST_FIELD("eptas.milp.time_limit_seconds",
                            bits(options.eptas.milp.time_limit_seconds)),
  };
  return fields;
}

#undef BAGSCHED_DIGEST_FIELD

}  // namespace

const std::vector<DigestField>& digest_fields() { return registry(); }

std::vector<std::string> digest_field_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const DigestField& field : registry()) names.emplace_back(field.name);
  return names;
}

std::uint64_t options_digest(const SolveOptions& options) {
  util::Hash128 hash(0x0d16e57ULL);
  for (const DigestField& field : registry()) field.mix(hash, options);
  return hash.lo();
}

}  // namespace bagsched::api
