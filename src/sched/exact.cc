#include "sched/exact.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "model/lower_bounds.h"
#include "sched/local_search.h"
#include "util/bitset64.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace bagsched::sched {

using model::BagId;
using model::Instance;
using model::JobId;
using model::MachineId;
using model::Schedule;

namespace {

/// Nodes a worker searches between stop checks, as an AND-mask over its
/// node counter (the interval is 8192, a power of two). At each check a
/// worker also adds its nodes to the shared counter and re-reads the shared
/// incumbent and stop flag.
constexpr long long kCheckMask = 8192 - 1;
/// Frontier expansion stops once at least num_threads * kFramesPerThread
/// stealable frames exist (more frames = finer-grained stealing).
constexpr std::size_t kFramesPerThread = 32;

/// A stealable subtree: the search state after placing the first
/// `placed.size()` free jobs in LPT order.
struct Frame {
  std::vector<MachineId> placed;  ///< machine per order_[0..depth)
  std::vector<double> loads;
  util::BitMatrix64 occupancy;
  int used_machines = 0;
  double current_max = 0.0;
};

class Engine {
 public:
  Engine(const Instance& instance, const Schedule& start,
         const std::vector<JobId>& free_jobs, const ExactOptions& options)
      : instance_(instance), options_(options) {
    const model::ValidationResult valid = model::validate(instance, start);
    if (!valid.ok()) {
      throw std::invalid_argument("solve_exact: invalid start schedule (" +
                                  valid.message + ")");
    }
    std::vector<char> is_free(static_cast<std::size_t>(instance.num_jobs()),
                              0);
    for (const JobId job : free_jobs) {
      if (job < 0 || job >= instance.num_jobs() ||
          is_free[static_cast<std::size_t>(job)]) {
        throw std::invalid_argument(
            "solve_exact: free job id out of range or repeated");
      }
      is_free[static_cast<std::size_t>(job)] = 1;
    }
    // LPT order maximizes pruning power near the root.
    for (const JobId job : free_jobs) order_.push_back(instance.job(job));
    std::sort(order_.begin(), order_.end(),
              [](const model::Job& a, const model::Job& b) {
                return a.size != b.size ? a.size > b.size : a.id < b.id;
              });

    // The root holds the fixed remainder. Machines past the highest one it
    // uses are empty and interchangeable, so the fresh-machine rule starts
    // there.
    const int m = instance.num_machines();
    root_.loads.assign(static_cast<std::size_t>(m), 0.0);
    root_.occupancy = util::BitMatrix64(m, std::max(instance.num_bags(), 1));
    double total_area = 0.0;
    for (JobId job = 0; job < instance.num_jobs(); ++job) {
      const double size = instance.job(job).size;
      total_area += size;
      if (is_free[static_cast<std::size_t>(job)]) continue;
      const MachineId machine = start.machine_of(job);
      root_.loads[static_cast<std::size_t>(machine)] += size;
      root_.occupancy.set(machine, instance.job(job).bag);
      root_.used_machines = std::max(root_.used_machines, machine + 1);
    }
    for (const double load : root_.loads) {
      root_.current_max = std::max(root_.current_max, load);
    }
    // The loads always sum to the placed area, so the area lower bound
    // (placed + remaining) / m is the same constant at every node.
    area_bound_ = total_area / m;

    shared_.best_schedule = start;
    shared_.best_locked = start.makespan(instance);
    shared_.best.store(shared_.best_locked, std::memory_order_relaxed);
  }

  ExactResult run() {
    lower_bound_ = model::combined_lower_bound(instance_);
    if (options_.on_incumbent) options_.on_incumbent(shared_.best_locked);

    const int threads =
        options_.num_threads > 0
            ? options_.num_threads
            : static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency()));
    if (threads == 1) {
      Worker worker(*this);
      worker.search(root_);
      worker.flush_nodes();
    } else if (shared_.best_locked > lower_bound_ + 1e-12) {
      const std::vector<Frame> frames = expand_frontier(
          static_cast<std::size_t>(threads) * kFramesPerThread);
      if (!frames.empty() && !shared_.aborted.load()) {
        util::ThreadPool pool(static_cast<std::size_t>(threads));
        std::vector<std::future<void>> done;
        done.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t) {
          done.push_back(pool.submit([this, &frames] { drain(frames); }));
        }
        for (auto& f : done) f.get();
      }
    }

    ExactResult result;
    result.schedule = shared_.best_schedule;
    result.makespan = shared_.best_locked;
    result.nodes = shared_.nodes.load(std::memory_order_relaxed);
    result.proven_optimal = !shared_.aborted.load();
    result.cancelled = shared_.cancelled.load();
    return result;
  }

 private:
  /// State shared by the expander and every worker.
  struct Shared {
    std::atomic<double> best{0.0};
    std::atomic<long long> nodes{0};
    std::atomic<bool> aborted{false};
    std::atomic<bool> cancelled{false};
    std::atomic<std::size_t> next_frame{0};

    std::mutex mutex;  ///< guards best_locked / best_schedule / emission
    double best_locked = 0.0;
    Schedule best_schedule;
  };

  /// One searching thread: its DFS state, seeded from a frame, and the
  /// DFS itself. Per node, the DFS reads the engine's constants and its own
  /// fields; it reads the shared atomics only at the stop checks, at
  /// leaves and between frames. Its incumbent may lag another worker's by
  /// up to one check interval; with one thread it is always exact.
  class Worker {
   public:
    explicit Worker(Engine& engine)
        : engine_(engine),
          placed_(engine.order_.size(), model::kUnassigned) {}

    bool stopped() const { return stopped_; }

    /// Searches the subtree below `frame`.
    void search(const Frame& frame) {
      std::copy(frame.placed.begin(), frame.placed.end(), placed_.begin());
      loads_ = frame.loads;
      occupancy_ = frame.occupancy;
      best_ = engine_.shared_.best.load(std::memory_order_relaxed);
      dfs(frame.placed.size(), frame.used_machines, frame.current_max);
    }

    /// Adds this worker's uncounted nodes to the shared counter; returns
    /// the new total.
    long long flush_nodes() {
      const long long total =
          engine_.shared_.nodes.fetch_add(local_nodes_,
                                          std::memory_order_relaxed) +
          local_nodes_;
      local_nodes_ = 0;
      return total;
    }

   private:
    /// The stop checks, every kCheckMask + 1 nodes; true (and stopped())
    /// when the search must stop.
    bool stop_check() {
      Shared& shared = engine_.shared_;
      const ExactOptions& options = engine_.options_;
      // Injected stall at the poll cadence: models a solver that slows to
      // a crawl, so budget/watchdog escalation is exercised without a
      // hang. The sleep sits before the token check, so a stop requested
      // mid-stall is not noticed for up to a full period — exactly the
      // unresponsiveness the stuck-solver watchdog exists for.
      if (BAGSCHED_FAULT("solver.stall.exact")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
      if (flush_nodes() > options.max_nodes ||
          engine_.timer_.seconds() > options.time_limit_seconds) {
        shared.aborted.store(true);
      } else if (util::stop_requested(options.cancel)) {
        shared.cancelled.store(true);
        shared.aborted.store(true);
      }
      best_ = shared.best.load(std::memory_order_relaxed);
      stopped_ = shared.aborted.load();
      return stopped_;
    }

    void dfs(std::size_t depth, int used_machines, double current_max) {
      if (stopped_) return;
      if ((++local_nodes_ & kCheckMask) == 0 && stop_check()) return;
      const std::vector<model::Job>& order = engine_.order_;
      if (depth == order.size()) {
        if (engine_.publish(current_max)) {
          best_ = current_max;
          engine_.record_schedule(current_max, placed_);
        } else {
          best_ = engine_.shared_.best.load(std::memory_order_relaxed);
        }
        return;
      }
      if (std::max(current_max, engine_.area_bound_) >= best_ - 1e-12) {
        return;
      }
      if (best_ <= engine_.lower_bound_ + 1e-12) {
        return;  // incumbent already optimal
      }

      const BagId bag = order[depth].bag;
      const double size = order[depth].size;

      // Symmetry breaking: identical empty machines are interchangeable,
      // so try at most one fresh machine.
      const int machine_limit =
          std::min(engine_.instance_.num_machines(), used_machines + 1);
      for (int machine = 0; machine < machine_limit; ++machine) {
        if (!branch_allowed(loads_, occupancy_, machine, bag, size, best_)) {
          continue;
        }
        const double load = loads_[static_cast<std::size_t>(machine)];
        loads_[static_cast<std::size_t>(machine)] = load + size;
        occupancy_.set(machine, bag);
        placed_[depth] = static_cast<MachineId>(machine);
        dfs(depth + 1, std::max(used_machines, machine + 1),
            std::max(current_max, load + size));
        occupancy_.reset(machine, bag);
        loads_[static_cast<std::size_t>(machine)] = load;
        if (stopped_) return;
      }
    }

    Engine& engine_;
    std::vector<MachineId> placed_;  ///< machine per order_ position
    std::vector<double> loads_;
    util::BitMatrix64 occupancy_;
    double best_ = 0.0;     ///< incumbent makespan as of the last sync
    bool stopped_ = false;  ///< the search is over for this worker
    /// Written at every node, so it gets a cache line of its own, apart
    /// from the fields every node reads: sharing one measured 8-19% slower
    /// on one thread.
    alignas(64) long long local_nodes_ = 0;
  };

  /// Pool worker: steals frames until none are left or the search stops.
  void drain(const std::vector<Frame>& frames) {
    Worker worker(*this);
    while (!worker.stopped() &&
           !shared_.aborted.load(std::memory_order_relaxed)) {
      const std::size_t index =
          shared_.next_frame.fetch_add(1, std::memory_order_relaxed);
      if (index >= frames.size()) break;
      worker.search(frames[index]);
    }
    worker.flush_nodes();
  }

  /// Expands the top of the tree breadth-first, complete level by complete
  /// level, until at least `target` frames exist (or the tree is exhausted).
  /// Leaves reached during expansion are evaluated as incumbents.
  std::vector<Frame> expand_frontier(std::size_t target) {
    std::vector<Frame> frontier;
    frontier.push_back(root_);
    long long nodes = 0;
    while (!frontier.empty() && frontier.size() < target &&
           frontier.front().placed.size() < order_.size()) {
      const BagId bag = order_[frontier.front().placed.size()].bag;
      const double size = order_[frontier.front().placed.size()].size;
      std::vector<Frame> next;
      next.reserve(frontier.size() * 2);
      for (const Frame& frame : frontier) {
        const double best = shared_.best.load(std::memory_order_relaxed);
        if (std::max(frame.current_max, area_bound_) >= best - 1e-12) {
          continue;
        }
        const int machine_limit =
            std::min(instance_.num_machines(), frame.used_machines + 1);
        for (int machine = 0; machine < machine_limit; ++machine) {
          if (!branch_allowed(frame.loads, frame.occupancy, machine, bag,
                              size, best)) {
            continue;
          }
          ++nodes;
          Frame child = frame;
          child.placed.push_back(static_cast<MachineId>(machine));
          child.loads[static_cast<std::size_t>(machine)] += size;
          child.occupancy.set(machine, bag);
          child.used_machines = std::max(frame.used_machines, machine + 1);
          child.current_max = std::max(
              frame.current_max, child.loads[static_cast<std::size_t>(machine)]);
          if (child.placed.size() == order_.size()) {
            if (publish(child.current_max)) {
              record_schedule(child.current_max, child.placed);
            }
          } else {
            next.push_back(std::move(child));
          }
        }
      }
      frontier = std::move(next);
      if (nodes > options_.max_nodes) {
        shared_.aborted.store(true);
        break;
      }
    }
    shared_.nodes.fetch_add(nodes, std::memory_order_relaxed);
    return frontier;
  }

  /// Bag, incumbent and dominance pruning for placing a job of `bag` and
  /// `size` on `machine`. Dominance: a machine with the same load and the
  /// same bag row as a lower-indexed one reaches a machine-permutation of
  /// an already explored state.
  static bool branch_allowed(const std::vector<double>& loads,
                             const util::BitMatrix64& occupancy, int machine,
                             BagId bag, double size, double best) {
    if (occupancy.test(machine, bag)) return false;
    const double load = loads[static_cast<std::size_t>(machine)];
    if (load + size >= best - 1e-12) return false;
    for (int prev = 0; prev < machine; ++prev) {
      if (loads[static_cast<std::size_t>(prev)] == load &&
          occupancy.rows_equal(prev, machine)) {
        return false;
      }
    }
    return true;
  }

  /// CAS publication into the atomic incumbent; true when `makespan` was an
  /// improvement and this thread won the race to record it.
  bool publish(double makespan) {
    double current = shared_.best.load(std::memory_order_relaxed);
    while (makespan < current - 1e-12) {
      if (shared_.best.compare_exchange_weak(current, makespan,
                                             std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void record_schedule(double makespan, const std::vector<MachineId>& placed) {
    std::lock_guard<std::mutex> lock(shared_.mutex);
    if (makespan >= shared_.best_locked - 1e-12) return;
    shared_.best_locked = makespan;
    for (std::size_t d = 0; d < order_.size(); ++d) {
      shared_.best_schedule.assign(order_[d].id, placed[d]);
    }
    if (options_.on_incumbent) options_.on_incumbent(makespan);
  }

  const Instance& instance_;
  const ExactOptions& options_;
  util::Stopwatch timer_;
  std::vector<model::Job> order_;  ///< the free jobs in LPT order
  Frame root_;
  double area_bound_ = 0.0;
  double lower_bound_ = 0.0;
  Shared shared_;
};

}  // namespace

ExactResult solve_exact(const Instance& instance, const Schedule& start,
                        const std::vector<JobId>& free_jobs,
                        const ExactOptions& options) {
  Engine engine(instance, start, free_jobs, options);
  return engine.run();
}

ExactResult solve_exact(const Instance& instance,
                        const ExactOptions& options) {
  LocalSearchOptions start_options;
  start_options.max_moves = 20000;
  std::vector<JobId> all_jobs(static_cast<std::size_t>(instance.num_jobs()));
  std::iota(all_jobs.begin(), all_jobs.end(), 0);
  return solve_exact(instance, local_search(instance, start_options),
                     all_jobs, options);
}

}  // namespace bagsched::sched
