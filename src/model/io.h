// Plain-text instance and schedule serialization.
//
// Instance format (line oriented, '#' starts a comment):
//   bagsched 1            # magic + version
//   machines <m>
//   bags <b>
//   jobs <n>
//   <size> <bag>          # one line per job, in job-id order
//
// Schedule format:
//   bagsched-schedule 1
//   machines <m>
//   jobs <n>
//   <machine>             # one line per job, -1 for unassigned
// JSON formats (used by the service layer to move requests and results
// across process boundaries; see README "JSON result schema"):
//   instance: {"machines": m, "bags": b,
//              "jobs": [{"size": s, "bag": l}, ...]}
//   schedule: {"machines": m, "assignment": [m_0, ..., m_{n-1}]}
#pragma once

#include <iosfwd>
#include <string>

#include "model/instance.h"
#include "model/schedule.h"
#include "util/json.h"

namespace bagsched::model {

void write_instance(std::ostream& os, const Instance& instance);
Instance read_instance(std::istream& is);

void save_instance(const std::string& path, const Instance& instance);
Instance load_instance(const std::string& path);

void write_schedule(std::ostream& os, const Schedule& schedule);
Schedule read_schedule(std::istream& is);

util::Json instance_to_json(const Instance& instance);
/// Throws std::runtime_error on missing/ill-typed members; the returned
/// instance is validate()d, so malformed documents fail loudly.
Instance instance_from_json(const util::Json& json);
/// instance_from_json straight from text: reads one instance object with
/// the same checks and the same errors, building no Json tree.
Instance read_instance_json(util::JsonReader& reader);

util::Json schedule_to_json(const Schedule& schedule);
Schedule schedule_from_json(const util::Json& json);
/// Appends exactly schedule_to_json(schedule).dump(), building no tree.
void append_schedule_json(std::string& out, const Schedule& schedule);

}  // namespace bagsched::model
