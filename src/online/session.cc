#include "online/session.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "model/lower_bounds.h"
#include "sched/exact.h"
#include "sched/local_search.h"
#include "util/stopwatch.h"

namespace bagsched::online {

const char* to_string(RepairPath path) {
  switch (path) {
    case RepairPath::Noop: return "noop";
    case RepairPath::Repair: return "repair";
    case RepairPath::Region: return "region";
    case RepairPath::Fresh: return "fresh";
  }
  return "?";
}

int migration_cost(const model::Schedule& prev, const model::Schedule& next,
                   const model::DeltaMap& map) {
  // A job whose machine failed has no choice but to move; a job whose
  // machine merely got a new id only counts when it ended up elsewhere.
  const model::Schedule carried = model::carry_schedule(prev, map);
  int moved = 0;
  for (const model::JobId new_job : map.new_job_of) {
    if (new_job == model::kRemovedJob) continue;  // departed: not a move
    const model::MachineId renamed = carried.machine_of(new_job);
    if (renamed == model::kUnassigned ||
        next.machine_of(new_job) != renamed) {
      ++moved;
    }
  }
  return moved;
}

namespace {

/// Greedy-places every unassigned job (largest first) onto the least-loaded
/// machine its bag permits. Always succeeds on a bag-feasible instance: a
/// bag of size <= m can have at most m-1 members elsewhere, so a
/// conflict-free machine exists. Throws std::logic_error otherwise.
void greedy_place(const model::Instance& instance,
                  model::Schedule& schedule) {
  const int m = instance.num_machines();
  std::vector<model::JobId> unassigned;
  for (model::JobId job = 0; job < instance.num_jobs(); ++job) {
    if (!schedule.is_assigned(job)) unassigned.push_back(job);
  }
  if (unassigned.empty()) return;

  std::vector<double> loads(static_cast<std::size_t>(m), 0.0);
  // Bag occupancy, tracked only for the bags that need placement.
  std::unordered_map<model::BagId, std::vector<char>> bag_used;
  for (const model::JobId job : unassigned) {
    bag_used.try_emplace(instance.job(job).bag,
                         std::vector<char>(static_cast<std::size_t>(m), 0));
  }
  for (model::JobId job = 0; job < instance.num_jobs(); ++job) {
    const model::MachineId machine = schedule.machine_of(job);
    if (machine == model::kUnassigned) continue;
    loads[static_cast<std::size_t>(machine)] += instance.job(job).size;
    const auto it = bag_used.find(instance.job(job).bag);
    if (it != bag_used.end()) {
      it->second[static_cast<std::size_t>(machine)] = 1;
    }
  }
  std::sort(unassigned.begin(), unassigned.end(),
            [&](model::JobId a, model::JobId b) {
              const double sa = instance.job(a).size;
              const double sb = instance.job(b).size;
              return sa != sb ? sa > sb : a < b;
            });
  for (const model::JobId job : unassigned) {
    std::vector<char>& used = bag_used.at(instance.job(job).bag);
    model::MachineId best = model::kUnassigned;
    for (model::MachineId machine = 0; machine < m; ++machine) {
      if (used[static_cast<std::size_t>(machine)]) continue;
      if (best == model::kUnassigned ||
          loads[static_cast<std::size_t>(machine)] <
              loads[static_cast<std::size_t>(best)]) {
        best = machine;
      }
    }
    if (best == model::kUnassigned) {
      throw std::logic_error("greedy_place: no conflict-free machine "
                             "(instance must be bag-infeasible)");
    }
    schedule.assign(job, best);
    loads[static_cast<std::size_t>(best)] += instance.job(job).size;
    used[static_cast<std::size_t>(best)] = 1;
  }
}

}  // namespace

ScheduleSession::ScheduleSession(model::Instance initial,
                                 SessionOptions options,
                                 const util::CancellationToken* cancel)
    : options_(std::move(options)) {
  initial.validate();
  if (!initial.is_feasible()) {
    throw std::invalid_argument(
        "ScheduleSession: initial instance is bag-infeasible");
  }
  if (cancel == nullptr) cancel = options_.solve.cancel;
  api::SolveResult result = fresh_solve(initial, cancel);
  if (result.status == api::SolveStatus::Cancelled &&
      result.schedule_feasible) {
    result.status = api::SolveStatus::Feasible;  // committed, not dropped
  }
  if (!result.ok() || !result.schedule_feasible) {
    throw std::invalid_argument(
        "ScheduleSession: no feasible schedule for the initial instance: " +
        result.error);
  }
  model::Schedule schedule = result.schedule;
  const double lower = model::combined_lower_bound(initial);
  commit(std::make_shared<const model::Instance>(std::move(initial)),
         std::move(schedule), std::move(result), lower);
  revision_ = 0;  // construction is not a delta commit
}

ScheduleSession::ScheduleSession(model::Instance initial,
                                 model::Schedule committed,
                                 SessionOptions options)
    : options_(std::move(options)) {
  initial.validate();
  model::require_valid(initial, committed, "ScheduleSession adopt");
  api::SolveResult result;
  result.solver = "online-adopted";
  result.status = api::SolveStatus::Feasible;
  result.schedule = committed;
  result.makespan = committed.makespan(initial);
  result.lower_bound = model::combined_lower_bound(initial);
  result.optimality_gap =
      result.makespan / std::max(result.lower_bound, 1e-300) - 1.0;
  result.schedule_feasible = true;
  const double lower = result.lower_bound;
  commit(std::make_shared<const model::Instance>(std::move(initial)),
         std::move(committed), std::move(result), lower);
  revision_ = 0;
}

api::SolveResult ScheduleSession::fresh_solve(
    const model::Instance& instance,
    const util::CancellationToken* cancel) const {
  const api::Portfolio portfolio =
      options_.solvers.empty() ? api::Portfolio()
                               : api::Portfolio(options_.solvers);
  api::SolveOptions options = options_.solve;
  options.cancel = cancel;
  return portfolio.solve(instance, options).best;
}

void ScheduleSession::commit(std::shared_ptr<const model::Instance> instance,
                             model::Schedule schedule,
                             api::SolveResult result, double lower_bound) {
  instance_ = std::move(instance);
  schedule_ = std::move(schedule);
  makespan_ = schedule_.makespan(*instance_);
  lower_bound_ = lower_bound;
  last_result_ = std::move(result);
  ++revision_;
}

api::SolveResult ScheduleSession::apply(
    const model::Delta& delta, const util::CancellationToken* cancel) {
  if (cancel == nullptr) cancel = options_.solve.cancel;
  util::Stopwatch clock;
  ++stats_.deltas;
  if (model::is_noop(delta)) {
    ++stats_.noops;
    api::SolveResult result = last_result_;
    result.moved_jobs = 0;
    result.migration_ratio = 0.0;
    result.stats["online.path"] = std::string(to_string(RepairPath::Noop));
    result.wall_seconds = clock.seconds();
    return result;
  }

  model::DeltaMap map;
  model::Instance next = model::apply_delta(*instance_, delta, &map);
  if (!next.is_feasible()) {
    ++stats_.rejected;
    api::SolveResult result;
    result.solver = "online-session";
    result.status = api::SolveStatus::Infeasible;
    result.error = "delta makes the instance bag-infeasible (max bag size " +
                   std::to_string(next.max_bag_size()) + " > " +
                   std::to_string(next.num_machines()) + " machines)";
    result.stats["online.path"] = std::string("rejected");
    result.wall_seconds = clock.seconds();
    return result;
  }

  const double lower = model::combined_lower_bound(next);
  const double regret_cap = (1.0 + options_.regret_bound) * lower;
  int survivors = 0;
  for (const model::JobId new_job : map.new_job_of) {
    if (new_job != model::kRemovedJob) ++survivors;
  }

  RepairPath path = RepairPath::Repair;

  // --- 1. repair: inherit, greedy-place, polish ----------------------------
  model::Schedule repaired = model::carry_schedule(schedule_, map);
  // The delta's footprint: arrivals, displaced jobs (failed machines) and
  // resizes — the candidates for the region re-solve.
  std::vector<model::JobId> region;
  for (model::JobId job = 0; job < next.num_jobs(); ++job) {
    if (!repaired.is_assigned(job)) region.push_back(job);
  }
  for (const model::JobResize& resize : delta.resizes) {
    const model::JobId new_job =
        map.new_job_of[static_cast<std::size_t>(resize.job)];
    if (new_job != model::kRemovedJob) region.push_back(new_job);
  }
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  const std::size_t affected = region.size();

  greedy_place(next, repaired);
  // Polish only when the inherited placement misses the regret bound:
  // an already-acceptable schedule stays untouched, keeping migration
  // minimal (stickiness is the whole point of the repair path).
  if (repaired.makespan(next) > regret_cap) {
    sched::LocalSearchOptions polish;
    polish.max_moves = options_.repair_moves;
    polish.seed = options_.solve.seed;
    polish.cancel = cancel;
    sched::improve(next, repaired, polish);
  }

  // --- 2. region re-solve when repair missed the regret bound ------------
  if (repaired.makespan(next) > regret_cap && affected > 0 &&
      affected <= static_cast<std::size_t>(options_.region_max_jobs)) {
    sched::ExactOptions region_options;
    region_options.max_nodes = options_.region_max_nodes;
    region_options.cancel = cancel;
    sched::ExactResult regional =
        sched::solve_exact(next, repaired, region, region_options);
    if (regional.schedule.makespan(next) < repaired.makespan(next) &&
        model::validate(next, regional.schedule).ok()) {
      repaired = std::move(regional.schedule);
      path = RepairPath::Region;
    }
  }

  // --- 3. fresh portfolio solve as the last resort -----------------------
  api::SolveResult result;
  if (repaired.makespan(next) > regret_cap && !util::stop_requested(cancel)) {
    api::SolveResult fresh = fresh_solve(next, cancel);
    if (fresh.ok() && fresh.schedule_feasible &&
        fresh.makespan < repaired.makespan(next)) {
      result = std::move(fresh);
      repaired = result.schedule;
      path = RepairPath::Fresh;
    }
  }

  const double makespan = repaired.makespan(next);
  if (path != RepairPath::Fresh) {
    result.solver = std::string("online-") + to_string(path);
    result.status = api::SolveStatus::Feasible;
    result.schedule = repaired;
    result.makespan = makespan;
    result.schedule_feasible = true;
  }
  result.lower_bound = lower;
  result.optimality_gap = makespan / std::max(lower, 1e-300) - 1.0;
  if (makespan <= lower * (1.0 + 1e-12)) {
    result.status = api::SolveStatus::Optimal;
    result.proven_optimal = true;
    result.optimality_gap = 0.0;
  }

  const int moved = migration_cost(schedule_, repaired, map);
  result.moved_jobs = moved;
  result.migration_ratio =
      survivors > 0 ? static_cast<double>(moved) / survivors : 0.0;
  result.stats["online.path"] = std::string(to_string(path));
  result.stats["online.affected_jobs"] = static_cast<long long>(affected);
  result.stats["online.survivors"] = static_cast<long long>(survivors);
  result.stats["online.moved_jobs"] = static_cast<long long>(moved);
  result.stats["online.regret_cap"] = regret_cap;
  result.stats["online.revision"] = static_cast<long long>(revision_ + 1);
  result.wall_seconds = clock.seconds();

  switch (path) {
    case RepairPath::Repair: ++stats_.repairs; break;
    case RepairPath::Region: ++stats_.region_resolves; break;
    case RepairPath::Fresh: ++stats_.fresh_solves; break;
    default: break;
  }
  stats_.total_moved_jobs += static_cast<std::uint64_t>(moved);

  commit(std::make_shared<const model::Instance>(std::move(next)),
         std::move(repaired), result, lower);
  return result;
}

}  // namespace bagsched::online
