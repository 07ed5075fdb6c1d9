// JSON serialization for the service boundary: SolveRequest in,
// SolveResult (with Telemetry) out, so results cross process boundaries
// machine-readably. See README "JSON result schema" for the shapes.
//
//   const util::Json doc = api::to_json(result);
//   socket << doc.dump();
//   ...
//   const api::SolveResult back =
//       api::solve_result_from_json(util::Json::parse(text));
//
// Notes on fidelity:
//   * Telemetry round-trips exactly (type tags distinguish int/real/bool/
//     string values; integers beyond 2^53 — like uint64 seeds — are
//     written as decimal strings so no precision is lost in a double).
//   * SolveOptions round-trips its scalar fields (the seed, and budgets
//     past 2^53 such as a max_nodes of LLONG_MAX, as decimal strings); the
//     cancellation token, progress callback and the advanced EptasConfig
//     are process-local and are not serialized.
//   * A request's absolute deadline is serialized as "deadline_seconds"
//     (seconds remaining at serialization time) and re-anchored to now()
//     when parsed — steady-clock time points don't cross processes.
//
// Two codecs share these shapes. The Json-tree one (to_json/*_from_json)
// serves the journal's reads, tools and tests. The typed one (decode_*/
// append_result/append_delta) is the server's wire and commit path: it
// goes straight between text and structs, and is held byte-for-byte /
// error-for-error to the tree one by differential tests.
#pragma once

#include <string>
#include <string_view>

#include "api/request.h"
#include "api/solver.h"
#include "util/json.h"

namespace bagsched::api {

util::Json to_json(const Telemetry& telemetry);
Telemetry telemetry_from_json(const util::Json& json);

/// SolveOptions round-trip (scalar fields only; tokens/callbacks are
/// process-local). Exposed for the session journal, which persists a
/// session's solve configuration alongside its instance.
util::Json options_to_json(const SolveOptions& options);
SolveOptions options_from_json(const util::Json& json);

/// `include_schedule=false` drops the per-job assignment (makespan and
/// telemetry only) for lighter result streams.
util::Json to_json(const SolveResult& result, bool include_schedule = true);
SolveResult solve_result_from_json(const util::Json& json);

util::Json to_json(const SolveRequest& request);
SolveRequest solve_request_from_json(const util::Json& json);

/// Delta shape: {"arrivals":[{"size":s,"bag":b},...], "departures":[ids],
/// "resizes":[{"job":j,"size":s},...], "machines_added":k,
/// "failed_machines":[ids]} — empty fields are omitted on the way out and
/// default on the way in, so "{}" parses as the noop delta.
util::Json to_json(const model::Delta& delta);
model::Delta delta_from_json(const util::Json& json);
/// Appends exactly to_json(delta).dump(): the service's resend dedupe
/// compares these bytes with the journaled ones.
void append_delta(std::string& out, const model::Delta& delta);

/// DeltaRequest carries {"session": id, "delta": {...}} plus the shared
/// base fields (priority, deadline_seconds).
util::Json to_json(const DeltaRequest& request);
DeltaRequest delta_request_from_json(const util::Json& json);

/// solve_request_from_json(Json::parse(text)) without the tree: the same
/// checks, the same errors (kind and message), the same lenient fallbacks
/// for wrong-typed optional members; a repeated key counts by its last
/// value.
SolveRequest decode_solve_request(std::string_view text);
/// delta_request_from_json(Json::parse(text)) without the tree, on the
/// same terms.
DeltaRequest decode_delta_request(std::string_view text);
/// Appends exactly to_json(result, include_schedule).dump().
void append_result(std::string& out, const SolveResult& result,
                   bool include_schedule = true);

/// Inverse of to_string(SolveStatus); throws std::runtime_error on an
/// unknown name.
SolveStatus solve_status_from_string(const std::string& name);

}  // namespace bagsched::api
