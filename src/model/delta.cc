#include "model/delta.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace bagsched::model {

bool is_noop(const Delta& delta) {
  return delta.arrivals.empty() && delta.departures.empty() &&
         delta.resizes.empty() && delta.machines_added == 0 &&
         delta.failed_machines.empty();
}

std::string describe(const Delta& delta) {
  std::ostringstream out;
  const char* sep = "";
  if (!delta.arrivals.empty()) {
    out << "+" << delta.arrivals.size() << " job"
        << (delta.arrivals.size() == 1 ? "" : "s");
    sep = " ";
  }
  if (!delta.departures.empty()) {
    out << sep << "-" << delta.departures.size() << " job"
        << (delta.departures.size() == 1 ? "" : "s");
    sep = " ";
  }
  if (!delta.resizes.empty()) {
    out << sep << "~" << delta.resizes.size() << " resize"
        << (delta.resizes.size() == 1 ? "" : "s");
    sep = " ";
  }
  if (delta.machines_added > 0) {
    out << sep << "+" << delta.machines_added << " machine"
        << (delta.machines_added == 1 ? "" : "s");
    sep = " ";
  }
  if (!delta.failed_machines.empty()) {
    out << sep << "-" << delta.failed_machines.size() << " machine"
        << (delta.failed_machines.size() == 1 ? "" : "s");
    sep = " ";
  }
  if (*sep == '\0') out << "noop";
  return out.str();
}

namespace {

void check_job_id(int num_jobs, JobId job, const char* what) {
  if (job < 0 || job >= num_jobs) {
    throw std::invalid_argument(std::string("delta: ") + what + " names " +
                                "unknown job " + std::to_string(job));
  }
}

}  // namespace

DeltaMap map_delta(int num_jobs, int num_machines, const Delta& delta) {
  DeltaMap map;
  // Departures are marked kRemovedJob first; survivors are numbered after
  // every check has passed.
  map.new_job_of.assign(static_cast<std::size_t>(num_jobs), 0);
  for (const JobId job : delta.departures) {
    check_job_id(num_jobs, job, "departure");
    if (map.new_job_of[static_cast<std::size_t>(job)] == kRemovedJob) {
      throw std::invalid_argument("delta: job " + std::to_string(job) +
                                  " departs twice");
    }
    map.new_job_of[static_cast<std::size_t>(job)] = kRemovedJob;
  }
  for (const JobResize& resize : delta.resizes) {
    check_job_id(num_jobs, resize.job, "resize");
    if (map.new_job_of[static_cast<std::size_t>(resize.job)] == kRemovedJob) {
      throw std::invalid_argument("delta: job " +
                                  std::to_string(resize.job) +
                                  " both resizes and departs");
    }
    if (resize.size <= 0.0) {
      throw std::invalid_argument("delta: resize of job " +
                                  std::to_string(resize.job) +
                                  " to non-positive size");
    }
  }
  if (delta.machines_added < 0) {
    throw std::invalid_argument("delta: machines_added must be >= 0");
  }
  map.new_machine_of.assign(static_cast<std::size_t>(num_machines), 0);
  for (const MachineId machine : delta.failed_machines) {
    if (machine < 0 || machine >= num_machines) {
      throw std::invalid_argument("delta: unknown machine " +
                                  std::to_string(machine) + " fails");
    }
    if (map.new_machine_of[static_cast<std::size_t>(machine)] ==
        kUnassigned) {
      throw std::invalid_argument("delta: machine " +
                                  std::to_string(machine) + " fails twice");
    }
    map.new_machine_of[static_cast<std::size_t>(machine)] = kUnassigned;
  }
  // 64-bit: machines_added may be anything up to INT_MAX.
  const long long new_machines =
      static_cast<long long>(num_machines) + delta.machines_added -
      static_cast<long long>(delta.failed_machines.size());
  if (new_machines <= 0) {
    throw std::invalid_argument("delta: no machines left after failures");
  }
  if (new_machines > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("delta: machine count overflows");
  }

  // Survivors keep their relative order, arrivals follow; surviving
  // machines are renumbered compactly in id order.
  JobId next_job = 0;
  for (JobId& new_job : map.new_job_of) {
    if (new_job != kRemovedJob) new_job = next_job++;
  }
  map.arrival_jobs.reserve(delta.arrivals.size());
  for (std::size_t k = 0; k < delta.arrivals.size(); ++k) {
    map.arrival_jobs.push_back(next_job++);
  }
  MachineId next_machine = 0;
  for (MachineId& new_machine : map.new_machine_of) {
    if (new_machine != kUnassigned) new_machine = next_machine++;
  }
  map.num_jobs = next_job;
  map.num_machines = static_cast<int>(new_machines);
  return map;
}

Schedule carry_schedule(const Schedule& schedule, const DeltaMap& map) {
  Schedule carried(map.num_jobs, map.num_machines);
  for (JobId old_job = 0;
       old_job < static_cast<JobId>(map.new_job_of.size()); ++old_job) {
    const JobId new_job = map.new_job_of[static_cast<std::size_t>(old_job)];
    if (new_job == kRemovedJob) continue;
    const MachineId old_machine = schedule.machine_of(old_job);
    if (old_machine == kUnassigned) continue;
    carried.assign(new_job,
                   map.new_machine_of[static_cast<std::size_t>(old_machine)]);
  }
  return carried;
}

namespace {

/// An instance before its bag index is built: what a chain of deltas folds
/// over. Job ids are assigned when the Instance is built.
struct InstanceParts {
  std::vector<Job> jobs;
  int num_machines = 0;
  int num_bags = 0;
};

/// The core of apply_delta: applies the delta to `parts` in place, with the
/// same checks. On a throw `parts` is unchanged.
void fold_delta(InstanceParts& parts, const Delta& delta, DeltaMap* map) {
  DeltaMap local = map_delta(static_cast<int>(parts.jobs.size()),
                             parts.num_machines, delta);
  // Arrivals are checked before anything changes.
  BagId num_bags = static_cast<BagId>(parts.num_bags);
  for (const JobArrival& arrival : delta.arrivals) {
    if (arrival.size <= 0.0) {
      throw std::invalid_argument("delta: arrival with non-positive size");
    }
    if (arrival.bag < 0 || arrival.bag > num_bags) {
      throw std::invalid_argument(
          "delta: arrival bag " + std::to_string(arrival.bag) +
          " out of range (next unused bag is " + std::to_string(num_bags) +
          ")");
    }
    if (arrival.bag == num_bags) ++num_bags;  // opening a new bag
  }

  // Survivors move down over the departed in place (a survivor's new id is
  // never above its old one), then take their new sizes; arrivals follow.
  for (std::size_t job = 0; job < local.new_job_of.size(); ++job) {
    const JobId new_job = local.new_job_of[job];
    if (new_job != kRemovedJob) {
      parts.jobs[static_cast<std::size_t>(new_job)] = parts.jobs[job];
    }
  }
  for (const JobResize& resize : delta.resizes) {
    parts.jobs[static_cast<std::size_t>(
                   local.new_job_of[static_cast<std::size_t>(resize.job)])]
        .size = resize.size;
  }
  parts.jobs.resize(static_cast<std::size_t>(local.num_jobs) -
                    delta.arrivals.size());
  for (const JobArrival& arrival : delta.arrivals) {
    parts.jobs.push_back(Job{0, arrival.size, arrival.bag});
  }
  parts.num_machines = local.num_machines;
  parts.num_bags = num_bags;
  if (map != nullptr) *map = std::move(local);
}

}  // namespace

Instance apply_delta(const Instance& instance, const Delta& delta,
                     DeltaMap* map) {
  InstanceParts parts{instance.jobs(), instance.num_machines(),
                      instance.num_bags()};
  fold_delta(parts, delta, map);
  return Instance(std::move(parts.jobs), parts.num_machines, parts.num_bags);
}

Instance apply_deltas(const Instance& instance,
                      const std::vector<Delta>& deltas) {
  InstanceParts parts{instance.jobs(), instance.num_machines(),
                      instance.num_bags()};
  for (const Delta& delta : deltas) fold_delta(parts, delta, nullptr);
  return Instance(std::move(parts.jobs), parts.num_machines, parts.num_bags);
}

Delta inverse_delta(const Instance& instance, const Delta& delta,
                    const DeltaMap& map) {
  Delta inverse;
  // Departed jobs come back with their original size and bag (bags are
  // never renumbered, so the id is still valid in the post-delta world).
  for (const JobId job : delta.departures) {
    inverse.arrivals.push_back(
        JobArrival{instance.job(job).size, instance.job(job).bag});
  }
  // Arrivals leave, named by their post-delta ids.
  inverse.departures = map.arrival_jobs;
  // Resizes drift back to the original sizes, named by post-delta ids.
  for (const JobResize& resize : delta.resizes) {
    inverse.resizes.push_back(
        JobResize{map.new_job_of[static_cast<std::size_t>(resize.job)],
                  instance.job(resize.job).size});
  }
  // Machines are identical, so WLOG the inverse removes the ones that were
  // just added (they landed at the top of the id range) and re-adds as many
  // as failed.
  inverse.machines_added = static_cast<int>(delta.failed_machines.size());
  const int new_machines = instance.num_machines() + delta.machines_added -
                           static_cast<int>(delta.failed_machines.size());
  for (int k = 0; k < delta.machines_added; ++k) {
    inverse.failed_machines.push_back(
        static_cast<MachineId>(new_machines - 1 - k));
  }
  return inverse;
}

}  // namespace bagsched::model
