// The single registry of result-relevant SolveOptions fields.
//
// Several subsystems need to agree on what "the same options" means: the
// solve cache keys entries on it and the service's single-flight dedup
// shares solves under it. Before this registry the field list was
// duplicated (the cache's digest vs the EPTAS-knob digest), and adding a
// knob in one place but not the other silently produced stale cache hits.
// Now every digest consumer calls api::options_digest(), and the field
// list is data — digest_fields() — so a test can assert the registry
// covers what it must.
//
// Deliberately excluded: num_threads (parallel solvers are thread-count-
// invariant by contract), cache_mode (how a result is stored, not what it
// is), and the process-local cancellation/progress/on_probe plumbing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/solver.h"
#include "util/hash.h"

namespace bagsched::api {

/// One registered digest contribution: a stable name (for introspection and
/// tests) plus the mixer that folds the field's value into the hash.
struct DigestField {
  const char* name;
  void (*mix)(util::Hash128& hash, const SolveOptions& options);
};

/// The registry, in fixed order (the order is part of the digest).
const std::vector<DigestField>& digest_fields();

/// Names of every registered field, in registry order.
std::vector<std::string> digest_field_names();

/// Digest of the SolveOptions fields that can change a solver's output —
/// the one true options key for cache entries and single-flight
/// attachment.
std::uint64_t options_digest(const SolveOptions& options);

}  // namespace bagsched::api
