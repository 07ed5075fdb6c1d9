#include "api/serialize.h"

#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "model/io.h"

namespace bagsched::api {

namespace {

/// Telemetry values carry a one-character type tag so long long and double
/// survive the round trip distinctly ("i:3" vs a plain JSON 3.0).
util::Json telemetry_value_to_json(const TelemetryValue& value) {
  util::Json entry = util::Json::object();
  if (const auto* v = std::get_if<long long>(&value)) {
    entry.set("t", "i");
    // Beyond 2^53 a double can no longer hold the value exactly; a decimal
    // string keeps the promised exact round trip.
    if (*v > (1LL << 53) || *v < -(1LL << 53)) {
      entry.set("v", std::to_string(*v));
    } else {
      entry.set("v", *v);
    }
  } else if (const auto* v = std::get_if<double>(&value)) {
    entry.set("t", "r");
    // The JSON writer renders non-finite doubles as null, which would not
    // decode back; tagged strings keep NaN/±inf wire-safe.
    if (std::isnan(*v)) {
      entry.set("v", "nan");
    } else if (std::isinf(*v)) {
      entry.set("v", *v > 0 ? "inf" : "-inf");
    } else {
      entry.set("v", *v);
    }
  } else if (const auto* v = std::get_if<bool>(&value)) {
    entry.set("t", "b");
    entry.set("v", *v);
  } else {
    entry.set("t", "s");
    entry.set("v", std::get<std::string>(value));
  }
  return entry;
}

TelemetryValue telemetry_value_from_json(const util::Json& entry) {
  const std::string tag = entry.at("t").as_string();
  const util::Json& v = entry.at("v");
  if (tag == "i") {
    return v.is_string() ? std::stoll(v.as_string()) : v.as_int();
  }
  if (tag == "r") {
    if (v.is_string()) {
      const std::string& text = v.as_string();
      if (text == "nan") return std::numeric_limits<double>::quiet_NaN();
      if (text == "inf") return std::numeric_limits<double>::infinity();
      if (text == "-inf") return -std::numeric_limits<double>::infinity();
      throw std::runtime_error("telemetry: bad real value \"" + text + "\"");
    }
    // Frames written before non-finite tagging rendered NaN/inf as null.
    if (v.is_null()) return std::numeric_limits<double>::quiet_NaN();
    return v.as_number();
  }
  if (tag == "b") return v.as_bool();
  if (tag == "s") return v.as_string();
  throw std::runtime_error("telemetry: unknown value tag \"" + tag + "\"");
}

CacheMode cache_mode_from_string(const std::string& text) {
  if (text == "off") return CacheMode::Off;
  if (text == "read") return CacheMode::Read;
  if (text == "read-write") return CacheMode::ReadWrite;
  throw std::runtime_error("options: unknown cache_mode \"" + text + "\"");
}

/// A delta id or machine count narrowed to int. Every one of them is
/// non-negative, and a value past INT_MAX would wrap into a different,
/// possibly valid, one.
int delta_int(long long raw, const char* field) {
  if (raw < 0 || raw > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(std::string("delta: ") + field + " " +
                                std::to_string(raw) + " out of range");
  }
  return static_cast<int>(raw);
}

/// A budget (max_nodes, max_moves) is a JSON number while a double holds
/// it exactly, and past 2^53 a decimal string, as a seed is: LLONG_MAX,
/// "no budget", must survive the wire and the journal.
util::Json budget_to_json(long long budget) {
  constexpr long long kExact = 1LL << 53;
  if (budget >= -kExact && budget <= kExact) return budget;
  return std::to_string(budget);
}

/// The string form of a budget, read strictly by both decoders: an
/// optional '-' and digits, nothing else, within the range of long long.
long long budget_from_string(std::string_view text) {
  long long parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size()) {
    throw std::runtime_error("json: expected a decimal integer string, "
                             "found \"" + std::string(text) + "\"");
  }
  return parsed;
}

// --- Typed codec -------------------------------------------------------------
// Each read_* mirrors its *_from_json twin: members are listed in the order
// the twin looks them up, so read_members raises the same error first.

using util::JsonReader;

/// int_or, plus the string form of a budget.
long long read_budget(JsonReader& reader, long long fallback) {
  if (reader.peek_kind() != util::Json::Kind::String) {
    return reader.int_or(fallback);
  }
  return budget_from_string(reader.read_string());
}

SolveOptions read_options(JsonReader& reader) {
  const SolveOptions defaults;
  SolveOptions options;
  // options_from_json looks members up with find/number_or, which see
  // anything but an object as empty: defaults, no error.
  if (reader.peek_kind() != util::Json::Kind::Object) {
    reader.skip_value();
    return options;
  }
  static constexpr std::array<std::string_view, 8> kKeys = {
      "eps", "time_limit_seconds", "max_nodes", "max_moves",
      "multifit_iterations", "seed", "stack_threshold", "cache_mode"};
  util::read_members(reader, kKeys, 0, [&](std::size_t field) {
    switch (field) {
      case 0: options.eps = reader.number_or(defaults.eps); break;
      case 1:
        options.time_limit_seconds =
            reader.number_or(defaults.time_limit_seconds);
        break;
      case 2:
        options.max_nodes = read_budget(reader, defaults.max_nodes);
        break;
      case 3:
        options.max_moves = read_budget(reader, defaults.max_moves);
        break;
      case 4:
        options.multifit_iterations =
            static_cast<int>(reader.int_or(defaults.multifit_iterations));
        break;
      case 5:
        options.seed = reader.read_u64();
        break;
      case 6:
        options.stack_threshold = reader.number_or(defaults.stack_threshold);
        break;
      default:
        options.cache_mode = cache_mode_from_string(reader.read_string());
    }
  });
  return options;
}

SolveRequest read_solve_request(JsonReader& reader) {
  static constexpr std::array<std::string_view, 5> kKeys = {
      "instance", "options", "solvers", "priority", "deadline_seconds"};
  SolveRequest request;
  model::Instance instance;
  util::read_members(reader, kKeys, 0b00001, [&](std::size_t field) {
    switch (field) {
      case 0: instance = model::read_instance_json(reader); break;
      case 1: request.options = read_options(reader); break;
      case 2:
        request.solvers.clear();
        reader.read_array(
            [&] { request.solvers.push_back(reader.read_string()); });
        break;
      case 3: request.priority = static_cast<int>(reader.int_or(0)); break;
      default: request.deadline = deadline_in(reader.read_number());
    }
  });
  request.instance =
      std::make_shared<const model::Instance>(std::move(instance));
  return request;
}

model::Delta read_delta(JsonReader& reader) {
  model::Delta delta;
  // delta_from_json sees a non-object as empty: the noop delta.
  if (reader.peek_kind() != util::Json::Kind::Object) {
    reader.skip_value();
    return delta;
  }
  static constexpr std::array<std::string_view, 5> kKeys = {
      "arrivals", "departures", "resizes", "machines_added",
      "failed_machines"};
  static constexpr std::array<std::string_view, 2> kArrivalKeys = {"size",
                                                                   "bag"};
  static constexpr std::array<std::string_view, 2> kResizeKeys = {"job",
                                                                  "size"};
  util::read_members(reader, kKeys, 0, [&](std::size_t field) {
    switch (field) {
      case 0:
        delta.arrivals.clear();
        reader.read_array([&] {
          model::JobArrival arrival{};
          util::read_members(reader, kArrivalKeys, 0b11, [&](std::size_t key) {
            if (key == 0) {
              arrival.size = reader.read_number();
            } else {
              arrival.bag = delta_int(reader.read_int(), "bag");
            }
          });
          delta.arrivals.push_back(arrival);
        });
        break;
      case 1:
        delta.departures.clear();
        reader.read_array([&] {
          delta.departures.push_back(
              delta_int(reader.read_int(), "departure"));
        });
        break;
      case 2:
        delta.resizes.clear();
        reader.read_array([&] {
          model::JobResize resize{};
          util::read_members(reader, kResizeKeys, 0b11, [&](std::size_t key) {
            if (key == 0) {
              resize.job = delta_int(reader.read_int(), "resize job");
            } else {
              resize.size = reader.read_number();
            }
          });
          delta.resizes.push_back(resize);
        });
        break;
      case 3:
        delta.machines_added =
            delta_int(reader.int_or(0), "machines_added");
        break;
      default:
        delta.failed_machines.clear();
        reader.read_array([&] {
          delta.failed_machines.push_back(
              delta_int(reader.read_int(), "failed machine"));
        });
    }
  });
  return delta;
}

DeltaRequest read_delta_request(JsonReader& reader) {
  static constexpr std::array<std::string_view, 5> kKeys = {
      "session", "delta", "expect_revision", "priority", "deadline_seconds"};
  DeltaRequest request;
  util::read_members(reader, kKeys, 0b00001, [&](std::size_t field) {
    switch (field) {
      case 0: request.session = reader.read_u64(); break;
      case 1: request.delta = read_delta(reader); break;
      case 2: request.expect_revision = reader.read_u64(); break;
      case 3: request.priority = static_cast<int>(reader.int_or(0)); break;
      default: request.deadline = deadline_in(reader.read_number());
    }
  });
  return request;
}

/// `,"key":` — every key the encoder writes is a plain identifier.
void append_field(std::string& out, std::string_view key) {
  out += ",\"";
  out += key;
  out += "\":";
}

void append_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

/// Appends to_json(telemetry).dump().
void append_telemetry(std::string& out, const Telemetry& telemetry) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : telemetry) {
    if (!first) out += ',';
    first = false;
    util::append_json_string(out, key);
    out += ":{\"t\":";
    if (const auto* v = std::get_if<long long>(&value)) {
      out += "\"i\",\"v\":";
      if (*v > (1LL << 53) || *v < -(1LL << 53)) {
        util::append_json_string(out, std::to_string(*v));
      } else {
        util::append_json_number(out, static_cast<double>(*v));
      }
    } else if (const auto* v = std::get_if<double>(&value)) {
      out += "\"r\",\"v\":";
      if (std::isnan(*v)) {
        out += "\"nan\"";
      } else if (std::isinf(*v)) {
        out += *v > 0 ? "\"inf\"" : "\"-inf\"";
      } else {
        util::append_json_number(out, *v);
      }
    } else if (const auto* v = std::get_if<bool>(&value)) {
      out += "\"b\",\"v\":";
      append_bool(out, *v);
    } else {
      out += "\"s\",\"v\":";
      util::append_json_string(out, std::get<std::string>(value));
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

util::Json options_to_json(const SolveOptions& options) {
  util::Json json = util::Json::object();
  json.set("eps", options.eps);
  json.set("time_limit_seconds", options.time_limit_seconds);
  json.set("max_nodes", budget_to_json(options.max_nodes));
  json.set("max_moves", budget_to_json(options.max_moves));
  json.set("multifit_iterations", options.multifit_iterations);
  // A decimal string: uint64 seeds above 2^53 don't survive a double.
  json.set("seed", std::to_string(options.seed));
  json.set("stack_threshold", options.stack_threshold);
  if (options.cache_mode != CacheMode::Off) {
    json.set("cache_mode", to_string(options.cache_mode));
  }
  return json;
}

SolveOptions options_from_json(const util::Json& json) {
  // The tree twin of read_budget.
  const auto budget_or = [&json](const char* key, long long fallback) {
    const util::Json* value = json.find(key);
    return value != nullptr && value->is_string()
               ? budget_from_string(value->as_string())
               : json.int_or(key, fallback);
  };
  SolveOptions options;
  options.eps = json.number_or("eps", options.eps);
  options.time_limit_seconds =
      json.number_or("time_limit_seconds", options.time_limit_seconds);
  options.max_nodes = budget_or("max_nodes", options.max_nodes);
  options.max_moves = budget_or("max_moves", options.max_moves);
  options.multifit_iterations = static_cast<int>(
      json.int_or("multifit_iterations", options.multifit_iterations));
  if (const util::Json* seed = json.find("seed")) {
    options.seed = util::u64_from_json(*seed);
  }
  options.stack_threshold =
      json.number_or("stack_threshold", options.stack_threshold);
  if (const util::Json* mode = json.find("cache_mode")) {
    options.cache_mode = cache_mode_from_string(mode->as_string());
  }
  return options;
}

util::Json to_json(const Telemetry& telemetry) {
  util::Json json = util::Json::object();
  for (const auto& [key, value] : telemetry) {
    json.set(key, telemetry_value_to_json(value));
  }
  return json;
}

Telemetry telemetry_from_json(const util::Json& json) {
  Telemetry telemetry;
  for (const auto& [key, value] : json.as_object()) {
    telemetry[key] = telemetry_value_from_json(value);
  }
  return telemetry;
}

SolveStatus solve_status_from_string(const std::string& name) {
  for (const SolveStatus status :
       {SolveStatus::Optimal, SolveStatus::Feasible, SolveStatus::Infeasible,
        SolveStatus::Error, SolveStatus::Cancelled}) {
    if (name == to_string(status)) return status;
  }
  throw std::runtime_error("unknown solve status \"" + name + "\"");
}

util::Json to_json(const SolveResult& result, bool include_schedule) {
  util::Json json = util::Json::object();
  json.set("solver", result.solver);
  json.set("status", to_string(result.status));
  json.set("makespan", result.makespan);
  json.set("lower_bound", result.lower_bound);
  json.set("optimality_gap", result.optimality_gap);
  json.set("proven_optimal", result.proven_optimal);
  json.set("schedule_feasible", result.schedule_feasible);
  json.set("cancelled", result.cancelled);
  if (result.moved_jobs >= 0) {
    json.set("moved_jobs", static_cast<long long>(result.moved_jobs));
    json.set("migration_ratio", result.migration_ratio);
  }
  json.set("wall_seconds", result.wall_seconds);
  if (!result.error.empty()) json.set("error", result.error);
  if (include_schedule && result.schedule.num_jobs() > 0) {
    json.set("schedule", model::schedule_to_json(result.schedule));
  }
  json.set("stats", to_json(result.stats));
  return json;
}

SolveResult solve_result_from_json(const util::Json& json) {
  SolveResult result;
  result.solver = json.string_or("solver", "");
  result.status = solve_status_from_string(json.at("status").as_string());
  result.makespan = json.number_or("makespan", 0.0);
  result.lower_bound = json.number_or("lower_bound", 0.0);
  result.optimality_gap = json.number_or("optimality_gap", 0.0);
  result.proven_optimal = json.bool_or("proven_optimal", false);
  result.schedule_feasible = json.bool_or("schedule_feasible", false);
  result.cancelled = json.bool_or("cancelled", false);
  result.moved_jobs = static_cast<int>(json.int_or("moved_jobs", -1));
  result.migration_ratio = json.number_or("migration_ratio", 0.0);
  result.wall_seconds = json.number_or("wall_seconds", 0.0);
  result.error = json.string_or("error", "");
  if (const util::Json* schedule = json.find("schedule")) {
    result.schedule = model::schedule_from_json(*schedule);
  }
  if (const util::Json* stats = json.find("stats")) {
    result.stats = telemetry_from_json(*stats);
  }
  return result;
}

util::Json to_json(const SolveRequest& request) {
  util::Json json = util::Json::object();
  if (request.instance != nullptr) {
    json.set("instance", model::instance_to_json(*request.instance));
  }
  json.set("options", options_to_json(request.options));
  util::Json solvers = util::Json::array();
  for (const auto& name : request.solvers) solvers.push_back(name);
  json.set("solvers", std::move(solvers));
  json.set("priority", request.priority);
  if (request.deadline.has_value()) {
    json.set("deadline_seconds",
             std::chrono::duration<double>(*request.deadline -
                                           ServiceClock::now())
                 .count());
  }
  return json;
}

SolveRequest solve_request_from_json(const util::Json& json) {
  SolveRequest request;
  request.instance = std::make_shared<const model::Instance>(
      model::instance_from_json(json.at("instance")));
  if (const util::Json* options = json.find("options")) {
    request.options = options_from_json(*options);
  }
  if (const util::Json* solvers = json.find("solvers")) {
    for (const util::Json& name : solvers->as_array()) {
      request.solvers.push_back(name.as_string());
    }
  }
  request.priority = static_cast<int>(json.int_or("priority", 0));
  if (const util::Json* deadline = json.find("deadline_seconds")) {
    request.deadline = deadline_in(deadline->as_number());
  }
  return request;
}

util::Json to_json(const model::Delta& delta) {
  util::Json json = util::Json::object();
  if (!delta.arrivals.empty()) {
    util::Json arrivals = util::Json::array();
    for (const model::JobArrival& arrival : delta.arrivals) {
      util::Json entry = util::Json::object();
      entry.set("size", arrival.size);
      entry.set("bag", static_cast<long long>(arrival.bag));
      arrivals.push_back(std::move(entry));
    }
    json.set("arrivals", std::move(arrivals));
  }
  if (!delta.departures.empty()) {
    util::Json departures = util::Json::array();
    for (const model::JobId job : delta.departures) {
      departures.push_back(static_cast<long long>(job));
    }
    json.set("departures", std::move(departures));
  }
  if (!delta.resizes.empty()) {
    util::Json resizes = util::Json::array();
    for (const model::JobResize& resize : delta.resizes) {
      util::Json entry = util::Json::object();
      entry.set("job", static_cast<long long>(resize.job));
      entry.set("size", resize.size);
      resizes.push_back(std::move(entry));
    }
    json.set("resizes", std::move(resizes));
  }
  if (delta.machines_added != 0) {
    json.set("machines_added", static_cast<long long>(delta.machines_added));
  }
  if (!delta.failed_machines.empty()) {
    util::Json failed = util::Json::array();
    for (const model::MachineId machine : delta.failed_machines) {
      failed.push_back(static_cast<long long>(machine));
    }
    json.set("failed_machines", std::move(failed));
  }
  return json;
}

model::Delta delta_from_json(const util::Json& json) {
  model::Delta delta;
  if (const util::Json* arrivals = json.find("arrivals")) {
    for (const util::Json& entry : arrivals->as_array()) {
      delta.arrivals.push_back(model::JobArrival{
          entry.at("size").as_number(),
          delta_int(entry.at("bag").as_int(), "bag")});
    }
  }
  if (const util::Json* departures = json.find("departures")) {
    for (const util::Json& job : departures->as_array()) {
      delta.departures.push_back(delta_int(job.as_int(), "departure"));
    }
  }
  if (const util::Json* resizes = json.find("resizes")) {
    for (const util::Json& entry : resizes->as_array()) {
      delta.resizes.push_back(model::JobResize{
          delta_int(entry.at("job").as_int(), "resize job"),
          entry.at("size").as_number()});
    }
  }
  delta.machines_added =
      delta_int(json.int_or("machines_added", 0), "machines_added");
  if (const util::Json* failed = json.find("failed_machines")) {
    for (const util::Json& machine : failed->as_array()) {
      delta.failed_machines.push_back(
          delta_int(machine.as_int(), "failed machine"));
    }
  }
  return delta;
}

void append_delta(std::string& out, const model::Delta& delta) {
  // Integers go through the double writer, as the tree stores them.
  const auto number = [&out](double value) {
    util::append_json_number(out, value);
  };
  const char* sep = "";
  const auto field = [&](const char* key) {
    out += sep;
    out += '"';
    out += key;
    out += "\":";
    sep = ",";
  };
  // Empty lists are omitted, as to_json omits them.
  const auto list = [&](const char* key, const auto& items,
                        const auto& write) {
    if (items.empty()) return;
    field(key);
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ',';
      write(items[i]);
    }
    out += ']';
  };
  out += '{';
  list("arrivals", delta.arrivals, [&](const model::JobArrival& arrival) {
    out += "{\"size\":";
    number(arrival.size);
    out += ",\"bag\":";
    number(arrival.bag);
    out += '}';
  });
  list("departures", delta.departures, number);
  list("resizes", delta.resizes, [&](const model::JobResize& resize) {
    out += "{\"job\":";
    number(resize.job);
    out += ",\"size\":";
    number(resize.size);
    out += '}';
  });
  if (delta.machines_added != 0) {
    field("machines_added");
    number(delta.machines_added);
  }
  list("failed_machines", delta.failed_machines, number);
  out += '}';
}

SolveRequest decode_solve_request(std::string_view text) {
  SolveRequest request;
  util::read_document(text, [&](util::JsonReader& reader) {
    request = read_solve_request(reader);
  });
  return request;
}

DeltaRequest decode_delta_request(std::string_view text) {
  DeltaRequest request;
  util::read_document(text, [&](util::JsonReader& reader) {
    request = read_delta_request(reader);
  });
  return request;
}

void append_result(std::string& out, const SolveResult& result,
                   bool include_schedule) {
  out += "{\"solver\":";
  util::append_json_string(out, result.solver);
  append_field(out, "status");
  util::append_json_string(out, to_string(result.status));
  append_field(out, "makespan");
  util::append_json_number(out, result.makespan);
  append_field(out, "lower_bound");
  util::append_json_number(out, result.lower_bound);
  append_field(out, "optimality_gap");
  util::append_json_number(out, result.optimality_gap);
  append_field(out, "proven_optimal");
  append_bool(out, result.proven_optimal);
  append_field(out, "schedule_feasible");
  append_bool(out, result.schedule_feasible);
  append_field(out, "cancelled");
  append_bool(out, result.cancelled);
  if (result.moved_jobs >= 0) {
    append_field(out, "moved_jobs");
    util::append_json_number(out, static_cast<double>(result.moved_jobs));
    append_field(out, "migration_ratio");
    util::append_json_number(out, result.migration_ratio);
  }
  append_field(out, "wall_seconds");
  util::append_json_number(out, result.wall_seconds);
  if (!result.error.empty()) {
    append_field(out, "error");
    util::append_json_string(out, result.error);
  }
  if (include_schedule && result.schedule.num_jobs() > 0) {
    append_field(out, "schedule");
    model::append_schedule_json(out, result.schedule);
  }
  append_field(out, "stats");
  append_telemetry(out, result.stats);
  out += '}';
}

util::Json to_json(const DeltaRequest& request) {
  util::Json json = util::Json::object();
  json.set("session", static_cast<long long>(request.session));
  json.set("delta", to_json(request.delta));
  if (request.expect_revision.has_value()) {
    json.set("expect_revision",
             static_cast<long long>(*request.expect_revision));
  }
  if (request.priority != 0) json.set("priority", request.priority);
  if (request.deadline.has_value()) {
    json.set("deadline_seconds",
             std::chrono::duration<double>(*request.deadline -
                                           ServiceClock::now())
                 .count());
  }
  return json;
}

DeltaRequest delta_request_from_json(const util::Json& json) {
  DeltaRequest request;
  request.session = util::u64_from_json(json.at("session"));
  if (const util::Json* delta = json.find("delta")) {
    request.delta = delta_from_json(*delta);
  }
  if (const util::Json* expect = json.find("expect_revision")) {
    request.expect_revision = util::u64_from_json(*expect);
  }
  request.priority = static_cast<int>(json.int_or("priority", 0));
  if (const util::Json* deadline = json.find("deadline_seconds")) {
    request.deadline = deadline_in(deadline->as_number());
  }
  return request;
}

}  // namespace bagsched::api
