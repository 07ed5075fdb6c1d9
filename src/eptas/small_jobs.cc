#include "eptas/small_jobs.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "flow/assignment.h"
#include "sched/bag_lpt.h"
#include "util/logging.h"

namespace bagsched::eptas {

using model::BagId;
using model::JobId;
using model::MachineId;

namespace {

/// Least-loaded machine where `bag` has no job at all; -1 if none exists.
int least_loaded_free(const model::Instance& inst,
                      const model::Schedule& schedule,
                      const std::vector<double>& loads, BagId bag) {
  std::vector<bool> blocked(static_cast<std::size_t>(inst.num_machines()),
                            false);
  for (JobId j : inst.bag(bag)) {
    const MachineId machine = schedule.machine_of(j);
    if (machine != model::kUnassigned) {
      blocked[static_cast<std::size_t>(machine)] = true;
    }
  }
  int best = -1;
  double best_load = std::numeric_limits<double>::infinity();
  for (int machine = 0; machine < inst.num_machines(); ++machine) {
    if (blocked[static_cast<std::size_t>(machine)]) continue;
    if (loads[static_cast<std::size_t>(machine)] < best_load) {
      best_load = loads[static_cast<std::size_t>(machine)];
      best = machine;
    }
  }
  return best;
}

}  // namespace

bool schedule_small_jobs(const Transformed& transformed,
                         const Classification& /*cls*/,
                         const PatternSpace& space,
                         const MasterSolution& master,
                         PlacementResult& placement,
                         const EptasConfig& config, SmallJobStats& stats) {
  const model::Instance& inst = transformed.instance;
  const int m = inst.num_machines();

  // --- Machine groups: same pattern id (empty machines form group of -1). --
  std::map<int, std::vector<int>> groups_by_pattern;
  for (int machine = 0; machine < m; ++machine) {
    groups_by_pattern[placement
                          .machine_pattern[static_cast<std::size_t>(machine)]]
        .push_back(machine);
  }
  struct Group {
    int pattern = -1;  ///< index into master.patterns, -1 = empty
    std::vector<int> machines;
    std::vector<std::vector<JobId>> assigned;  ///< per small bag processed
    double pending_area = 0.0;
  };
  std::vector<Group> groups;
  for (auto& [pattern, machines] : groups_by_pattern) {
    Group group;
    group.pattern = pattern;
    group.machines = std::move(machines);
    groups.push_back(std::move(group));
  }

  // Priority-bag index per I' bag (for pattern-blocking lookups).
  std::map<BagId, int> pbag_index;
  for (int i = 0; i < space.num_priority(); ++i) {
    pbag_index[space.priority_bags[static_cast<std::size_t>(i)].bag] = i;
  }

  std::vector<double> loads = placement.ml_load;

  auto group_load = [&](const Group& group) {
    double total = group.pending_area;
    for (int machine : group.machines) {
      total += loads[static_cast<std::size_t>(machine)];
    }
    return total / static_cast<double>(group.machines.size());
  };
  auto blocked_for = [&](const Group& group, BagId bag) {
    if (group.pattern < 0) return false;
    const auto it = pbag_index.find(bag);
    if (it == pbag_index.end()) return false;
    return master.patterns[static_cast<std::size_t>(group.pattern)]
        .contains_priority(it->second);
  };

  // --- group-bag-LPT: assign each small bag's jobs to groups. -------------
  // Bags processed by descending small area (heavy bags first).
  std::vector<std::pair<double, BagId>> small_bags;
  for (BagId l = 0; l < inst.num_bags(); ++l) {
    double area = 0.0;
    bool any = false;
    for (JobId j : inst.bag(l)) {
      if (transformed.class_of(j) == JobClass::Small) {
        area += inst.job(j).size;
        any = true;
      }
    }
    if (any) small_bags.emplace_back(-area, l);
  }
  std::sort(small_bags.begin(), small_bags.end());

  struct PendingBag {
    BagId bag;
    std::vector<std::vector<JobId>> per_group;  ///< parallel to `groups`
  };
  std::vector<PendingBag> pending;

  for (const auto& [neg_area, bag] : small_bags) {
    (void)neg_area;
    if (util::stop_requested(config.cancel)) return false;
    std::vector<JobId> jobs;
    for (JobId j : inst.bag(bag)) {
      if (transformed.class_of(j) == JobClass::Small) jobs.push_back(j);
    }
    std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
      if (inst.job(a).size != inst.job(b).size) {
        return inst.job(a).size > inst.job(b).size;
      }
      return a < b;
    });

    // Groups ascending by average (placed + pending) load.
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return group_load(groups[a]) < group_load(groups[b]);
    });

    PendingBag pending_bag;
    pending_bag.bag = bag;
    pending_bag.per_group.resize(groups.size());
    std::size_t next_job = 0;
    for (std::size_t g : order) {
      if (next_job >= jobs.size()) break;
      if (blocked_for(groups[g], bag)) continue;
      const std::size_t take = std::min(jobs.size() - next_job,
                                        groups[g].machines.size());
      for (std::size_t t = 0; t < take; ++t) {
        const JobId job = jobs[next_job++];
        pending_bag.per_group[g].push_back(job);
        groups[g].pending_area += inst.job(job).size;
      }
    }
    if (next_job < jobs.size()) {
      // Blocked groups ate the capacity the master's R5 promised: rescue by
      // allowing blocked groups too (conflicts fixed by Lemma 11 below).
      if (!config.enable_rescue) return false;
      for (std::size_t g : order) {
        if (next_job >= jobs.size()) break;
        if (!blocked_for(groups[g], bag)) continue;
        std::size_t already = pending_bag.per_group[g].size();
        const std::size_t take =
            std::min(jobs.size() - next_job,
                     groups[g].machines.size() - already);
        for (std::size_t t = 0; t < take; ++t) {
          const JobId job = jobs[next_job++];
          pending_bag.per_group[g].push_back(job);
          groups[g].pending_area += inst.job(job).size;
          ++stats.rescues;
        }
      }
      if (next_job < jobs.size()) return false;  // |B_l| > m: impossible
    }
    pending.push_back(std::move(pending_bag));
  }

  // --- bag-LPT inside each group. ------------------------------------------
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (util::stop_requested(config.cancel)) return false;
    const Group& group = groups[g];
    std::vector<sched::LptBag> bags;
    std::vector<BagId> bag_ids;
    for (const PendingBag& pending_bag : pending) {
      if (pending_bag.per_group[g].empty()) continue;
      bags.push_back(sched::LptBag{pending_bag.per_group[g]});
      bag_ids.push_back(pending_bag.bag);
    }
    if (bags.empty()) continue;
    std::vector<double> group_loads;
    group_loads.reserve(group.machines.size());
    for (int machine : group.machines) {
      group_loads.push_back(loads[static_cast<std::size_t>(machine)]);
    }
    const auto assignment =
        sched::bag_lpt_assign(inst, bags, group_loads);
    for (std::size_t b = 0; b < bags.size(); ++b) {
      for (std::size_t j = 0; j < bags[b].jobs.size(); ++j) {
        const JobId job = bags[b].jobs[j];
        const int machine =
            group.machines[static_cast<std::size_t>(assignment[b][j])];
        placement.schedule.assign(job, machine);
        loads[static_cast<std::size_t>(machine)] += inst.job(job).size;
      }
    }
  }

  // --- Lemma 11: repair small-vs-ml conflicts inside priority bags. --------
  // (Only priority bags can conflict: non-priority small-part bags hold no
  // ml jobs in I'.)
  for (int i = 0; i < space.num_priority(); ++i) {
    if (util::stop_requested(config.cancel)) return false;
    const BagId bag = space.priority_bags[static_cast<std::size_t>(i)].bag;
    // Machine -> ml job of this bag.
    std::map<int, JobId> ml_on;
    std::vector<JobId> smalls;
    for (JobId j : inst.bag(bag)) {
      if (transformed.class_of(j) == JobClass::Small) {
        smalls.push_back(j);
      } else if (placement.schedule.is_assigned(j)) {
        ml_on[placement.schedule.machine_of(j)] = j;
      }
    }
    std::set<int> small_on;  // machines already holding a small of this bag
    for (JobId j : smalls) {
      if (placement.schedule.is_assigned(j)) {
        small_on.insert(placement.schedule.machine_of(j));
      }
    }
    for (JobId job : smalls) {
      const int machine = placement.schedule.machine_of(job);
      const auto it = ml_on.find(machine);
      if (it == ml_on.end()) continue;  // no conflict

      // Origin-chain walk (paper Lemma 11): follow origins of the large
      // jobs until a machine free of this bag appears.
      JobId blocking = it->second;
      int target = -1;
      std::set<int> visited;
      for (int steps = 0; steps < m; ++steps) {
        const auto origin_it = placement.origin.find(blocking);
        if (origin_it == placement.origin.end()) break;
        const int candidate = origin_it->second;
        if (!visited.insert(candidate).second) break;  // cycle: give up
        const bool has_small = small_on.count(candidate) > 0;
        const auto ml_it = ml_on.find(candidate);
        if (ml_it == ml_on.end() && !has_small) {
          target = candidate;
          break;
        }
        if (ml_it == ml_on.end()) break;  // blocked by a small: chain ends
        blocking = ml_it->second;
      }
      if (target < 0) {
        if (!config.enable_rescue) return false;
        target = least_loaded_free(inst, placement.schedule, loads, bag);
        if (target < 0) return false;
        ++stats.rescues;
      } else {
        ++stats.origin_repairs;
      }
      loads[static_cast<std::size_t>(machine)] -= inst.job(job).size;
      loads[static_cast<std::size_t>(target)] += inst.job(job).size;
      placement.schedule.assign(job, target);
      small_on.erase(machine);
      small_on.insert(target);
    }
  }
  return true;
}

std::optional<std::vector<int>> insert_medium_jobs(
    const model::Instance& original, const Transformed& transformed,
    const PlacementResult& placement,
    const util::CancellationToken* cancel) {
  const model::Instance& inst = transformed.instance;
  const int m = inst.num_machines();
  if (transformed.removed_medium.empty()) return std::vector<int>{};

  // Original bag -> its large-part I' bag (if any).
  std::map<BagId, BagId> large_part_of;
  for (BagId l = 0; l < inst.num_bags(); ++l) {
    if (transformed.is_large_part[static_cast<std::size_t>(l)]) {
      large_part_of[transformed.orig_bag[static_cast<std::size_t>(l)]] = l;
    }
  }

  // Group removed mediums by original bag.
  std::map<BagId, std::vector<std::size_t>> by_bag;  // -> medium indices
  for (std::size_t i = 0; i < transformed.removed_medium.size(); ++i) {
    const JobId orig = transformed.removed_medium[i];
    by_bag[original.job(orig).bag].push_back(i);
  }

  // Machines forbidden per original bag: those holding a large-part job.
  std::vector<BagId> group_bags;
  std::vector<std::vector<bool>> forbidden;  // per group, per machine
  std::vector<int> demands;
  for (const auto& [bag, indices] : by_bag) {
    group_bags.push_back(bag);
    demands.push_back(static_cast<int>(indices.size()));
    std::vector<bool> blocked(static_cast<std::size_t>(m), false);
    const auto it = large_part_of.find(bag);
    if (it != large_part_of.end()) {
      for (JobId j : inst.bag(it->second)) {
        const MachineId machine = placement.schedule.machine_of(j);
        if (machine != model::kUnassigned) {
          blocked[static_cast<std::size_t>(machine)] = true;
        }
      }
    }
    forbidden.push_back(std::move(blocked));
  }

  const int total = static_cast<int>(transformed.removed_medium.size());
  // Ramp the per-machine capacity until the flow saturates all demands.
  for (int cap = std::max(1, (total + m - 1) / m); cap <= total; ++cap) {
    if (util::stop_requested(cancel)) return std::nullopt;
    flow::AssignmentProblem problem;
    problem.demands = demands;
    problem.capacities.assign(static_cast<std::size_t>(m), cap);
    problem.allowed = [&](int group, int machine) {
      return !forbidden[static_cast<std::size_t>(group)]
                       [static_cast<std::size_t>(machine)];
    };
    const auto assignment = flow::solve_assignment(problem);
    if (!assignment) continue;
    // Read the machines back per medium job. Within one (bag, machine)
    // pair at most one medium lands (middle edges have capacity 1).
    std::vector<int> result(transformed.removed_medium.size(), -1);
    for (std::size_t g = 0; g < group_bags.size(); ++g) {
      const auto& indices = by_bag[group_bags[g]];
      const auto& machines = (*assignment)[g];
      for (std::size_t i = 0; i < indices.size(); ++i) {
        result[indices[i]] = machines[i];
      }
    }
    return result;
  }
  return std::nullopt;
}

model::Schedule lift_solution(const model::Instance& original,
                              const Transformed& transformed,
                              PlacementResult& placement,
                              const std::vector<int>& medium_machine,
                              const EptasConfig& config,
                              SmallJobStats& stats,
                              const Classification* cls) {
  const model::Instance& inst = transformed.instance;
  const int m = inst.num_machines();
  const int orig_bags = original.num_bags();

  // Loads including mediums (for rescue decisions).
  std::vector<double> loads(static_cast<std::size_t>(m), 0.0);
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    const MachineId machine = placement.schedule.machine_of(j);
    if (machine != model::kUnassigned) {
      loads[static_cast<std::size_t>(machine)] += inst.job(j).size;
    }
  }
  for (std::size_t i = 0; i < medium_machine.size(); ++i) {
    const JobId orig = transformed.removed_medium[i];
    loads[static_cast<std::size_t>(medium_machine[i])] +=
        cls != nullptr ? cls->size_of(orig) : original.job(orig).size;
  }

  // ml_of[l][machine] = true when machine holds a medium/large job of
  // ORIGINAL bag l (large-part jobs + inserted mediums + priority ml jobs).
  std::vector<std::set<int>> ml_of(static_cast<std::size_t>(orig_bags));
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    if (transformed.class_of(j) == JobClass::Small) continue;
    const MachineId machine = placement.schedule.machine_of(j);
    if (machine == model::kUnassigned) continue;
    const BagId orig =
        transformed.orig_bag[static_cast<std::size_t>(inst.job(j).bag)];
    ml_of[static_cast<std::size_t>(orig)].insert(machine);
  }
  for (std::size_t i = 0; i < medium_machine.size(); ++i) {
    const BagId orig = original.job(transformed.removed_medium[i]).bag;
    ml_of[static_cast<std::size_t>(orig)].insert(medium_machine[i]);
  }

  // Small jobs of each original bag: machine -> I' job (at most one real
  // small plus possibly fillers; the bag-LPT stages never co-locate two).
  for (BagId orig = 0; orig < orig_bags; ++orig) {
    if (util::stop_requested(config.cancel)) break;  // keep schedule valid
    if (ml_of[static_cast<std::size_t>(orig)].empty()) continue;
    // Collect this original bag's I' small jobs (same bag id: the
    // transformation keeps small-part bags under the original id).
    std::vector<JobId> smalls;
    std::vector<JobId> fillers;
    for (JobId j : inst.bag(orig)) {
      if (transformed.class_of(j) != JobClass::Small) continue;
      if (transformed.is_filler[static_cast<std::size_t>(j)]) {
        fillers.push_back(j);
      } else {
        smalls.push_back(j);
      }
    }
    // Machines with any small of this bag (for rescue feasibility).
    std::set<int> small_on;
    for (JobId j : inst.bag(orig)) {
      if (transformed.class_of(j) == JobClass::Small &&
          placement.schedule.is_assigned(j)) {
        small_on.insert(placement.schedule.machine_of(j));
      }
    }

    for (JobId job : smalls) {
      const int machine = placement.schedule.machine_of(job);
      if (ml_of[static_cast<std::size_t>(orig)].count(machine) == 0) {
        continue;  // no conflict with a medium/large of the same orig bag
      }
      // Find a filler of this bag on a machine free of ml-of-bag jobs.
      JobId partner = model::kUnassigned;
      for (JobId filler : fillers) {
        const int d = placement.schedule.machine_of(filler);
        if (d == model::kUnassigned || d == machine) continue;
        if (ml_of[static_cast<std::size_t>(orig)].count(d) > 0) continue;
        partner = filler;
        break;
      }
      if (partner != model::kUnassigned) {
        const int d = placement.schedule.machine_of(partner);
        // Swap: the real small job moves to d, the filler to `machine`.
        // Loads: filler is at least as large as the small job by
        // construction, so d does not grow.
        loads[static_cast<std::size_t>(machine)] +=
            inst.job(partner).size - inst.job(job).size;
        loads[static_cast<std::size_t>(d)] +=
            inst.job(job).size - inst.job(partner).size;
        placement.schedule.swap_jobs(job, partner);
        small_on.erase(machine);
        small_on.insert(d);
        ++stats.lift_swaps;
      } else {
        if (!config.enable_rescue) {
          // Leave the conflict; final validation will reject the guess.
          continue;
        }
        // Rescue: any machine without this original bag entirely.
        int best = -1;
        double best_load = std::numeric_limits<double>::infinity();
        for (int d = 0; d < m; ++d) {
          if (d == machine) continue;
          if (ml_of[static_cast<std::size_t>(orig)].count(d) > 0) continue;
          if (small_on.count(d) > 0) continue;
          if (loads[static_cast<std::size_t>(d)] < best_load) {
            best_load = loads[static_cast<std::size_t>(d)];
            best = d;
          }
        }
        if (best < 0) continue;  // validation will reject
        loads[static_cast<std::size_t>(machine)] -= inst.job(job).size;
        loads[static_cast<std::size_t>(best)] += inst.job(job).size;
        placement.schedule.assign(job, best);
        small_on.erase(machine);
        small_on.insert(best);
        ++stats.rescues;
      }
    }
  }

  // --- Assemble the original-instance schedule (fillers vanish). ----------
  model::Schedule final_schedule(original.num_jobs(), m);
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    const JobId orig = transformed.orig_job[static_cast<std::size_t>(j)];
    if (orig == model::kUnassigned) continue;  // filler
    final_schedule.assign(orig, placement.schedule.machine_of(j));
  }
  for (std::size_t i = 0; i < medium_machine.size(); ++i) {
    final_schedule.assign(transformed.removed_medium[i], medium_machine[i]);
  }
  return final_schedule;
}

}  // namespace bagsched::eptas
