// Instance deltas for online scheduling (DESIGN.md §7): the dynamic events
// the bag constraint is motivated by — jobs arrive and depart, job sizes
// drift, machines join the fleet or fail — expressed as a first-class value
// that can be applied to an Instance, inverted, serialized and replayed.
//
// Conventions:
//   * Departures/resizes name jobs by their id in the PRE-delta instance.
//   * Surviving jobs keep their relative order and are renumbered compactly;
//     arrivals are appended after them (DeltaMap records both mappings).
//   * Bags are never renumbered: a departure may leave a bag empty (the
//     canonical fingerprint ignores empty bags), and an arrival may open a
//     new bag by naming the first unused bag id.
//   * Machines are identical, so the instance only tracks their count;
//     failed_machines carries the concrete ids so a schedule-level consumer
//     (online::ScheduleSession) knows which assignments were lost.
//     Surviving machines are renumbered compactly in id order.
#pragma once

#include <string>
#include <vector>

#include "model/instance.h"
#include "model/job.h"
#include "model/schedule.h"

namespace bagsched::model {

/// A job entering the system: its size and the bag it joins. `bag` may be
/// an existing bag id or `num_bags + k` to open new bags (k counted over
/// the delta's arrivals in order).
struct JobArrival {
  double size = 0.0;
  BagId bag = 0;
};

/// A job's size drifting (the replica resize / load-estimate-update case).
struct JobResize {
  JobId job = 0;      ///< pre-delta job id
  double size = 0.0;  ///< new size (> 0)
};

/// One atomic batch of online events, applied together. An empty delta is
/// valid (and recognized by is_noop).
struct Delta {
  std::vector<JobArrival> arrivals;
  std::vector<JobId> departures;  ///< pre-delta job ids, each at most once
  std::vector<JobResize> resizes;
  /// Machines joining the fleet (identical machines: only the count).
  int machines_added = 0;
  /// Machines failing/draining, by pre-delta machine id. Their jobs must
  /// migrate; surviving machines are renumbered compactly in id order.
  std::vector<MachineId> failed_machines;
};

bool is_noop(const Delta& delta);

/// One-line summary, e.g. "+3 jobs -1 job ~2 resizes -1 machine".
std::string describe(const Delta& delta);

/// How the pre-delta world maps into the post-delta instance.
struct DeltaMap {
  /// new_job_of[old_id] = post-delta id, or kRemovedJob for departures.
  std::vector<JobId> new_job_of;
  /// Post-delta ids of the delta's arrivals, in arrival order.
  std::vector<JobId> arrival_jobs;
  /// new_machine_of[old_id] = post-delta machine id, or kUnassigned for
  /// failed machines.
  std::vector<MachineId> new_machine_of;
  int num_jobs = 0;      ///< post-delta job count
  int num_machines = 0;  ///< post-delta machine count
};

constexpr JobId kRemovedJob = -1;

/// The delta's renumbering from the pre-delta job and machine counts alone,
/// so a consumer that tracks only a schedule (the session journal) can
/// carry it across the delta without the instance. Throws
/// std::invalid_argument on what the counts can tell is malformed: unknown
/// or duplicate departures, a resize of an unknown or departing job or to
/// a non-positive size, machines_added < 0, unknown or duplicate failed
/// machines, no machines left. Arrivals are checked by apply_delta, which
/// knows the bag count.
DeltaMap map_delta(int num_jobs, int num_machines, const Delta& delta);

/// `schedule` (of the pre-delta instance) carried across the delta: every
/// surviving job keeps its machine under the new numbering; arrivals and
/// the jobs of failed machines are unassigned.
Schedule carry_schedule(const Schedule& schedule, const DeltaMap& map);

/// Applies the delta, renumbering jobs/machines per the conventions above.
/// Throws std::invalid_argument when the delta is malformed (unknown job or
/// machine ids, duplicate departures, non-positive sizes, no machines left)
/// — but NOT when the result is bag-infeasible (max bag size > m): that is
/// a legitimate online state the caller must detect via is_feasible().
Instance apply_delta(const Instance& instance, const Delta& delta,
                     DeltaMap* map = nullptr);

/// apply_delta over `deltas` in order: the deltas fold into one job list
/// with apply_delta's own core, and the Instance (with its bag index) is
/// built once instead of once per delta. Throws what the first failing
/// apply_delta throws.
Instance apply_deltas(const Instance& instance,
                      const std::vector<Delta>& deltas);

/// The delta that undoes `delta`: applying it to apply_delta(instance,
/// delta) yields an instance equal to `instance` up to job renumbering —
/// the two share their exact canonical fingerprint (cache::Canonicalizer).
/// `map` must be the DeltaMap filled by the forward application.
Delta inverse_delta(const Instance& instance, const Delta& delta,
                    const DeltaMap& map);

}  // namespace bagsched::model
