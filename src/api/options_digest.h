// The one digest of result-relevant SolveOptions fields.
//
// Several subsystems need to agree on what "the same options" means: the
// solve cache keys entries on it and the service's single-flight dedup
// shares solves under it, so every digest consumer calls
// api::options_digest(). A knob left out of it would give stale cache hits;
// test_cache perturbs each hashed field in turn and checks the digest moves.
//
// Deliberately excluded: num_threads (parallel solvers are thread-count-
// invariant by contract), cache_mode (how a result is stored, not what it
// is), and the process-local cancellation/progress/on_probe plumbing.
#pragma once

#include <cstdint>

#include "api/solver.h"

namespace bagsched::api {

/// Digest of the SolveOptions fields that can change a solver's output —
/// the one true options key for cache entries and single-flight
/// attachment.
std::uint64_t options_digest(const SolveOptions& options);

}  // namespace bagsched::api
