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

void check_job_id(const Instance& instance, JobId job, const char* what) {
  if (job < 0 || job >= instance.num_jobs()) {
    throw std::invalid_argument(std::string("delta: ") + what + " names " +
                                "unknown job " + std::to_string(job));
  }
}

}  // namespace

Instance apply_delta(const Instance& instance, const Delta& delta,
                     DeltaMap* map) {
  const int old_jobs = instance.num_jobs();
  const int old_machines = instance.num_machines();

  // --- Validate the delta against the pre-delta instance -------------------
  std::vector<char> departs(static_cast<std::size_t>(old_jobs), 0);
  for (const JobId job : delta.departures) {
    check_job_id(instance, job, "departure");
    if (departs[static_cast<std::size_t>(job)]) {
      throw std::invalid_argument("delta: job " + std::to_string(job) +
                                  " departs twice");
    }
    departs[static_cast<std::size_t>(job)] = 1;
  }
  for (const JobResize& resize : delta.resizes) {
    check_job_id(instance, resize.job, "resize");
    if (departs[static_cast<std::size_t>(resize.job)]) {
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
  std::vector<char> failed(static_cast<std::size_t>(old_machines), 0);
  for (const MachineId machine : delta.failed_machines) {
    if (machine < 0 || machine >= old_machines) {
      throw std::invalid_argument("delta: unknown machine " +
                                  std::to_string(machine) + " fails");
    }
    if (failed[static_cast<std::size_t>(machine)]) {
      throw std::invalid_argument("delta: machine " +
                                  std::to_string(machine) + " fails twice");
    }
    failed[static_cast<std::size_t>(machine)] = 1;
  }
  // 64-bit: machines_added may be anything up to INT_MAX.
  const long long new_machines =
      static_cast<long long>(old_machines) + delta.machines_added -
      static_cast<long long>(delta.failed_machines.size());
  if (new_machines <= 0) {
    throw std::invalid_argument("delta: no machines left after failures");
  }
  if (new_machines > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("delta: machine count overflows");
  }

  // --- Build the post-delta job list (survivors first, then arrivals) -----
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(old_jobs) -
               delta.departures.size() + delta.arrivals.size());
  std::vector<JobId> new_job_of(static_cast<std::size_t>(old_jobs),
                                kRemovedJob);
  std::vector<double> resized(static_cast<std::size_t>(old_jobs), 0.0);
  std::vector<char> has_resize(static_cast<std::size_t>(old_jobs), 0);
  for (const JobResize& resize : delta.resizes) {
    resized[static_cast<std::size_t>(resize.job)] = resize.size;
    has_resize[static_cast<std::size_t>(resize.job)] = 1;
  }
  BagId num_bags = static_cast<BagId>(instance.num_bags());
  for (JobId job = 0; job < old_jobs; ++job) {
    if (departs[static_cast<std::size_t>(job)]) continue;
    Job copy = instance.job(job);
    if (has_resize[static_cast<std::size_t>(job)]) {
      copy.size = resized[static_cast<std::size_t>(job)];
    }
    new_job_of[static_cast<std::size_t>(job)] =
        static_cast<JobId>(jobs.size());
    jobs.push_back(copy);
  }
  std::vector<JobId> arrival_jobs;
  arrival_jobs.reserve(delta.arrivals.size());
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
    arrival_jobs.push_back(static_cast<JobId>(jobs.size()));
    jobs.push_back(Job{0, arrival.size, arrival.bag});
  }

  if (map != nullptr) {
    map->new_job_of = std::move(new_job_of);
    map->arrival_jobs = std::move(arrival_jobs);
    map->new_machine_of.assign(static_cast<std::size_t>(old_machines),
                               kUnassigned);
    MachineId next = 0;
    for (MachineId machine = 0; machine < old_machines; ++machine) {
      if (!failed[static_cast<std::size_t>(machine)]) {
        map->new_machine_of[static_cast<std::size_t>(machine)] = next++;
      }
    }
  }
  return Instance(std::move(jobs), static_cast<int>(new_machines), num_bags);
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
