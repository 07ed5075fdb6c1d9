#include "model/io.h"

#include <array>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace bagsched::model {

namespace {

/// `raw` as a non-negative int. Values past INT_MAX are rejected instead
/// of being narrowed (machines: 4294967298 would otherwise decode as 2).
int json_count(long long raw, const char* field) {
  if (raw < 0 || raw > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(std::string("instance JSON: ") + field + " " +
                                std::to_string(raw) + " out of range");
  }
  return static_cast<int>(raw);
}

/// Reads the next non-comment, non-empty line; throws at EOF.
std::string next_line(std::istream& is, const char* what) {
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim whitespace-only lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    return line;
  }
  throw std::runtime_error(std::string("instance I/O: unexpected EOF while "
                                       "reading ") + what);
}

template <typename T>
T parse_keyword(std::istream& is, const std::string& keyword) {
  std::istringstream line(next_line(is, keyword.c_str()));
  std::string word;
  T value{};
  if (!(line >> word >> value) || word != keyword) {
    throw std::runtime_error("instance I/O: expected '" + keyword + " <n>'");
  }
  return value;
}

}  // namespace

void write_instance(std::ostream& os, const Instance& instance) {
  os << "bagsched 1\n";
  os << "machines " << instance.num_machines() << "\n";
  os << "bags " << instance.num_bags() << "\n";
  os << "jobs " << instance.num_jobs() << "\n";
  os << std::setprecision(17);
  for (const Job& job : instance.jobs()) {
    os << job.size << " " << job.bag << "\n";
  }
}

Instance read_instance(std::istream& is) {
  {
    std::istringstream header(next_line(is, "header"));
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != "bagsched" || version != 1) {
      throw std::runtime_error("instance I/O: bad header");
    }
  }
  const int machines = parse_keyword<int>(is, "machines");
  const int bags = parse_keyword<int>(is, "bags");
  const int jobs = parse_keyword<int>(is, "jobs");
  std::vector<Job> job_list(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    std::istringstream line(next_line(is, "job"));
    Job& job = job_list[static_cast<std::size_t>(j)];
    if (!(line >> job.size >> job.bag)) {
      throw std::runtime_error("instance I/O: bad job line");
    }
  }
  return Instance(std::move(job_list), machines, bags);
}

void save_instance(const std::string& path, const Instance& instance) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  write_instance(file, instance);
}

Instance load_instance(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  return read_instance(file);
}

void write_schedule(std::ostream& os, const Schedule& schedule) {
  os << "bagsched-schedule 1\n";
  os << "machines " << schedule.num_machines() << "\n";
  os << "jobs " << schedule.num_jobs() << "\n";
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    os << schedule.machine_of(j) << "\n";
  }
}

Schedule read_schedule(std::istream& is) {
  {
    std::istringstream header(next_line(is, "header"));
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != "bagsched-schedule" ||
        version != 1) {
      throw std::runtime_error("schedule I/O: bad header");
    }
  }
  const int machines = parse_keyword<int>(is, "machines");
  const int jobs = parse_keyword<int>(is, "jobs");
  Schedule schedule(jobs, machines);
  for (JobId j = 0; j < jobs; ++j) {
    std::istringstream line(next_line(is, "assignment"));
    int machine = kUnassigned;
    if (!(line >> machine)) {
      throw std::runtime_error("schedule I/O: bad assignment line");
    }
    schedule.assign(j, machine);
  }
  return schedule;
}

util::Json instance_to_json(const Instance& instance) {
  util::Json json = util::Json::object();
  json.set("machines", instance.num_machines());
  json.set("bags", instance.num_bags());
  util::Json jobs = util::Json::array();
  for (const Job& job : instance.jobs()) {
    util::Json entry = util::Json::object();
    entry.set("size", job.size);
    entry.set("bag", job.bag);
    jobs.push_back(std::move(entry));
  }
  json.set("jobs", std::move(jobs));
  return json;
}

Instance instance_from_json(const util::Json& json) {
  const int machines = json_count(json.at("machines").as_int(), "machines");
  const int bags = json_count(json.at("bags").as_int(), "bags");
  std::vector<Job> jobs;
  jobs.reserve(json.at("jobs").size());
  for (const util::Json& entry : json.at("jobs").as_array()) {
    Job job;
    job.size = entry.at("size").as_number();
    job.bag = json_count(entry.at("bag").as_int(), "bag");
    jobs.push_back(job);
  }
  Instance instance(std::move(jobs), machines, bags);
  instance.validate();
  return instance;
}

Instance read_instance_json(util::JsonReader& reader) {
  static constexpr std::array<std::string_view, 3> kKeys = {"machines",
                                                            "bags", "jobs"};
  static constexpr std::array<std::string_view, 2> kJobKeys = {"size", "bag"};
  int machines = 0;
  int bags = 0;
  std::vector<Job> jobs;
  util::read_members(reader, kKeys, 0b111, [&](std::size_t field) {
    if (field == 0) {
      machines = json_count(reader.read_int(), "machines");
    } else if (field == 1) {
      bags = json_count(reader.read_int(), "bags");
    } else {
      jobs.clear();
      reader.read_array([&] {
        Job job;
        util::read_members(reader, kJobKeys, 0b11, [&](std::size_t key) {
          if (key == 0) {
            job.size = reader.read_number();
          } else {
            job.bag = json_count(reader.read_int(), "bag");
          }
        });
        jobs.push_back(job);
      });
    }
  });
  Instance instance(std::move(jobs), machines, bags);
  instance.validate();
  return instance;
}

void append_schedule_json(std::string& out, const Schedule& schedule) {
  char buffer[24];
  const auto append_int = [&](long long value) {
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, result.ptr);
  };
  out += "{\"machines\":";
  append_int(schedule.num_machines());
  out += ",\"assignment\":[";
  bool first = true;
  for (const MachineId machine : schedule.assignment()) {
    if (!first) out += ',';
    first = false;
    append_int(machine);
  }
  out += "]}";
}

util::Json schedule_to_json(const Schedule& schedule) {
  util::Json json = util::Json::object();
  json.set("machines", schedule.num_machines());
  util::Json assignment = util::Json::array();
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    assignment.push_back(schedule.machine_of(j));
  }
  json.set("assignment", std::move(assignment));
  return json;
}

Schedule schedule_from_json(const util::Json& json) {
  const int machines = json_count(json.at("machines").as_int(), "machines");
  const auto& assignment = json.at("assignment").as_array();
  Schedule schedule(static_cast<int>(assignment.size()), machines);
  for (std::size_t j = 0; j < assignment.size(); ++j) {
    const long long machine = assignment[j].as_int();
    // Fail loudly like instance_from_json: an out-of-range machine id
    // would otherwise index past the load vectors downstream. The check
    // runs before narrowing, so 4294967296 cannot pass as machine 0.
    if (machine != kUnassigned && (machine < 0 || machine >= machines)) {
      throw std::runtime_error(
          "schedule JSON: machine id " + std::to_string(machine) +
          " out of range for " + std::to_string(machines) + " machines");
    }
    schedule.assign(static_cast<JobId>(j), static_cast<MachineId>(machine));
  }
  return schedule;
}

}  // namespace bagsched::model
