// Adapters wrapping every legacy entry point behind the Solver interface.
//
// Each adapter maps the shared SolveOptions onto the native option struct,
// runs the algorithm, and reports the native statistics as typed telemetry.
// Instance validation has already happened in Solver::solve.
#include "api/solvers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "eptas/eptas.h"
#include "lp/model.h"
#include "milp/branch_and_bound.h"
#include "sched/bag_lpt.h"
#include "sched/exact.h"
#include "sched/greedy_bags.h"
#include "sched/local_search.h"
#include "sched/lpt.h"
#include "sched/multifit.h"
#include "util/stopwatch.h"

namespace bagsched::api {

namespace {

/// Incumbent emitter for the streaming solvers: adapts the native
/// `on_incumbent(double)` hooks onto the caller's ProgressFn. Returns an
/// empty function when no observer is installed, so the native layers skip
/// the calls entirely.
std::function<void(double)> incumbent_emitter(const SolveOptions& options,
                                              std::string solver) {
  if (!options.progress) return {};
  // The stopwatch is shared by every emission of this solve.
  auto timer = std::make_shared<util::Stopwatch>();
  return [progress = options.progress, solver = std::move(solver),
          timer](double makespan) {
    ProgressEvent event;
    event.kind = ProgressKind::Incumbent;
    event.solver = solver;
    event.incumbent_makespan = makespan;
    event.elapsed_seconds = timer->seconds();
    progress(event);
  };
}

void emit_phase(const SolveOptions& options, const std::string& solver,
                std::string phase, double elapsed_seconds = 0.0) {
  if (!options.progress) return;
  ProgressEvent event;
  event.kind = ProgressKind::Phase;
  event.solver = solver;
  event.phase = std::move(phase);
  event.elapsed_seconds = elapsed_seconds;
  options.progress(event);
}

class EptasSolver final : public Solver {
 public:
  EptasSolver()
      : Solver({.name = "eptas",
                .summary = "SPAA'19 EPTAS: dual approximation + pattern MILP",
                .guarantee = Guarantee::Eptas,
                .exact = false,
                .respects_bags = true,
                .guarantee_text = "(1+eps)*OPT when the pipeline certifies",
                .typical_scale = "n <= ~1000"}) {}

  void run(const model::Instance& instance, const SolveOptions& options,
           SolveResult& result) const override {
    eptas::EptasConfig config = options.eptas;
    if (config.cancel == nullptr) config.cancel = options.cancel;
    config.milp.time_limit_seconds = std::min(
        config.milp.time_limit_seconds, options.time_limit_seconds);
    if (config.milp.cancel == nullptr) config.milp.cancel = config.cancel;

    util::Stopwatch timer;
    emit_phase(options, name(), "pipeline");
    if (options.progress && !config.on_probe) {
      // Stream every consumed dual-approximation probe as a Phase event
      // (search order: the lower-bound guess, then the binary search;
      // emitted from the solving thread).
      config.on_probe = [&options, this,
                         &timer](const eptas::GuessProbeEvent& event) {
        std::ostringstream phase;
        phase << "guess[" << event.index << "] T="
              << event.guess << (event.success ? " ok" : " fail");
        if (event.memo_hit) phase << " memo";
        emit_phase(options, name(), phase.str(), timer.seconds());
      };
    }
    const auto native = eptas::eptas_schedule(instance, options.eps, config);
    if (native.stats.used_fallback) {
      emit_phase(options, name(), "fallback", timer.seconds());
    }
    result.schedule = native.schedule;
    // A fired token only affected this run when it forced the fallback; a
    // pipeline-certified result completed before the stop.
    result.cancelled = util::stop_requested(config.cancel) &&
                       native.stats.used_fallback;

    const auto& stats = native.stats;
    result.stats["guesses"] = static_cast<long long>(stats.guesses_tried);
    result.stats["final_guess"] = stats.final_guess;
    result.stats["greedy_upper"] = stats.greedy_upper;
    result.stats["pipeline_succeeded"] = stats.pipeline_succeeded;
    result.stats["pipeline_makespan"] = stats.pipeline_makespan;
    result.stats["used_fallback"] = stats.used_fallback;
    result.stats["columns"] = static_cast<long long>(stats.columns);
    result.stats["pricing_rounds"] =
        static_cast<long long>(stats.pricing_rounds);
    result.stats["lp_iterations"] = stats.lp_iterations;
    result.stats["milp_nodes"] = stats.milp_nodes;
    result.stats["swaps"] = static_cast<long long>(stats.swaps);
    result.stats["origin_repairs"] =
        static_cast<long long>(stats.origin_repairs);
    result.stats["lift_swaps"] = static_cast<long long>(stats.lift_swaps);
    result.stats["rescues"] = static_cast<long long>(stats.rescues);
    // Guess search telemetry.
    result.stats["probes_launched"] =
        static_cast<long long>(stats.probes_launched);
    result.stats["probes_memo_hits"] =
        static_cast<long long>(stats.probes_memo_hits);
  }
};

/// One adapter, two registry names: "exact" always searches on one
/// thread, "exact-parallel" uses SolveOptions::num_threads.
class ExactSolver final : public Solver {
 public:
  explicit ExactSolver(bool parallel)
      : Solver({.name = parallel ? "exact-parallel" : "exact",
                .summary = parallel
                               ? "work-stealing parallel branch-and-bound"
                               : "branch-and-bound over job->machine "
                                 "assignments",
                .guarantee = Guarantee::Exact,
                .exact = true,
                .respects_bags = true,
                .guarantee_text = "optimal within node/time budget",
                .typical_scale = parallel ? "n <= ~28 (threads permitting)"
                                          : "n <= ~24"}),
        parallel_(parallel) {}

  void run(const model::Instance& instance, const SolveOptions& options,
           SolveResult& result) const override {
    sched::ExactOptions native_options;
    native_options.max_nodes = options.max_nodes;
    native_options.time_limit_seconds = options.time_limit_seconds;
    native_options.cancel = options.cancel;
    native_options.on_incumbent = incumbent_emitter(options, name());
    native_options.num_threads = parallel_ ? options.num_threads : 1;

    const auto native = sched::solve_exact(instance, native_options);
    result.schedule = native.schedule;
    result.proven_optimal = native.proven_optimal;
    result.cancelled = native.cancelled;
    result.stats["nodes"] = native.nodes;
    result.stats["proven_optimal"] = native.proven_optimal;
    if (parallel_) {
      result.stats["threads"] = static_cast<long long>(
          native_options.num_threads > 0
              ? native_options.num_threads
              : static_cast<int>(std::max(
                    1u, std::thread::hardware_concurrency())));
    }
  }

 private:
  bool parallel_;
};

class MilpSolver final : public Solver {
 public:
  MilpSolver()
      : Solver({.name = "milp",
                .summary = "assignment MILP (x_ji binaries) via in-repo B&B",
                .guarantee = Guarantee::Exact,
                .exact = true,
                .respects_bags = true,
                .guarantee_text = "optimal within node/time budget",
                .typical_scale = "n*m <= ~150"}) {}

  void run(const model::Instance& instance, const SolveOptions& options,
           SolveResult& result) const override {
    const int n = instance.num_jobs();
    const int m = instance.num_machines();

    // min C  s.t.  sum_i x_ji = 1         for every job j
    //              sum_j p_j x_ji <= C    for every machine i
    //              sum_{j in B_l} x_ji <= 1  for every bag l, machine i
    lp::Model lp_model;
    const int c_var = lp_model.add_variable(1.0, 0.0, lp::kInfinity, "C");
    std::vector<int> x(static_cast<std::size_t>(n) *
                       static_cast<std::size_t>(std::max(m, 1)));
    std::vector<int> integer_variables;
    integer_variables.reserve(x.size());
    auto x_at = [&](int job, int machine) -> int& {
      return x[static_cast<std::size_t>(job) * static_cast<std::size_t>(m) +
               static_cast<std::size_t>(machine)];
    };
    for (int job = 0; job < n; ++job) {
      for (int machine = 0; machine < m; ++machine) {
        x_at(job, machine) = lp_model.add_variable(0.0, 0.0, 1.0);
        integer_variables.push_back(x_at(job, machine));
      }
    }
    for (int job = 0; job < n; ++job) {
      std::vector<std::pair<int, double>> row;
      for (int machine = 0; machine < m; ++machine) {
        row.emplace_back(x_at(job, machine), 1.0);
      }
      lp_model.add_constraint(std::move(row), lp::Sense::Equal, 1.0);
    }
    for (int machine = 0; machine < m; ++machine) {
      std::vector<std::pair<int, double>> row;
      for (int job = 0; job < n; ++job) {
        row.emplace_back(x_at(job, machine), instance.job(job).size);
      }
      row.emplace_back(c_var, -1.0);
      lp_model.add_constraint(std::move(row), lp::Sense::LessEqual, 0.0);
    }
    for (model::BagId bag = 0; bag < instance.num_bags(); ++bag) {
      if (instance.bag_size(bag) < 2) continue;
      for (int machine = 0; machine < m; ++machine) {
        std::vector<std::pair<int, double>> row;
        for (const model::JobId job : instance.bag(bag)) {
          row.emplace_back(x_at(job, machine), 1.0);
        }
        lp_model.add_constraint(std::move(row), lp::Sense::LessEqual, 1.0);
      }
    }

    milp::MilpOptions native_options;
    native_options.max_nodes = options.max_nodes;
    native_options.time_limit_seconds = options.time_limit_seconds;
    native_options.cancel = options.cancel;
    // The objective variable C is the makespan, so MILP incumbents stream
    // directly as incumbent makespans.
    native_options.on_incumbent = incumbent_emitter(options, name());

    const auto native =
        milp::solve(lp_model, integer_variables, native_options);
    result.stats["nodes"] = native.nodes_explored;
    result.stats["lp_iterations"] = native.lp_iterations;
    result.stats["milp_status"] = std::string(milp::to_string(native.status));
    // Exact attribution from the search itself: a token that fired after
    // the budget already stopped the run doesn't count as a cancellation.
    result.cancelled = native.cancelled;

    if (native.status == milp::MilpStatus::Optimal ||
        native.status == milp::MilpStatus::Feasible) {
      result.schedule = model::Schedule(n, m);
      for (int job = 0; job < n; ++job) {
        for (int machine = 0; machine < m; ++machine) {
          if (native.x[static_cast<std::size_t>(x_at(job, machine))] > 0.5) {
            result.schedule.assign(job, machine);
            break;
          }
        }
      }
      result.proven_optimal = native.status == milp::MilpStatus::Optimal;
      // best_bound is -inf when the search stopped before bounding the
      // root; infinities don't survive JSON telemetry, so only report
      // proven finite bounds.
      if (std::isfinite(native.best_bound)) {
        result.stats["best_bound"] = native.best_bound;
      }
      return;
    }
    if (result.cancelled) {
      result.status = SolveStatus::Cancelled;
      return;
    }
    // Budget ran out before any incumbent: fall back to the greedy so the
    // caller still gets a feasible schedule; the telemetry says what
    // happened.
    result.schedule = sched::greedy_bags(instance);
    result.stats["milp_fallback"] = true;
  }
};

class LocalSearchSolver final : public Solver {
 public:
  LocalSearchSolver()
      : Solver({.name = "local-search",
                .summary = "relocate+swap descent from the greedy start",
                .guarantee = Guarantee::Heuristic,
                .exact = false,
                .respects_bags = true,
                .guarantee_text = "local optimum of the move neighbourhood",
                .typical_scale = "n <= ~1e5"}) {}

  void run(const model::Instance& instance, const SolveOptions& options,
           SolveResult& result) const override {
    sched::LocalSearchOptions native_options;
    native_options.max_moves = options.max_moves;
    native_options.seed = options.seed;
    native_options.cancel = options.cancel;
    native_options.on_incumbent = incumbent_emitter(options, name());
    result.schedule = sched::greedy_bags(instance);
    const auto descent =
        sched::improve(instance, result.schedule, native_options);
    // Exact: improve() reports a cancellation only when the token stopped
    // the descent before convergence, so a token firing after the local
    // optimum was reached doesn't inflate PortfolioResult::cancelled_count.
    result.cancelled = descent.cancelled;
    result.stats["moves"] = descent.accepted_moves;
  }
};

class GreedyBagsSolver final : public Solver {
 public:
  GreedyBagsSolver()
      : Solver({.name = "greedy-bags",
                .summary = "LPT list scheduling onto feasible machines",
                .guarantee = Guarantee::Heuristic,
                .exact = false,
                .respects_bags = true,
                .guarantee_text = "feasible; no ratio bound with bags",
                .typical_scale = "n <= ~1e6"}) {}

  void run(const model::Instance& instance, const SolveOptions&,
           SolveResult& result) const override {
    result.schedule = sched::greedy_bags(instance);
  }
};

class BagLptSolver final : public Solver {
 public:
  BagLptSolver()
      : Solver({.name = "bag-lpt",
                .summary = "paper section-4 bag-LPT over whole bags",
                .guarantee = Guarantee::Heuristic,
                .exact = false,
                .respects_bags = true,
                .guarantee_text = "machine spread <= p_max (Lemma 8)",
                .typical_scale = "n <= ~1e6"}) {}

  void run(const model::Instance& instance, const SolveOptions&,
           SolveResult& result) const override {
    result.schedule = sched::bag_lpt(instance);
  }
};

class MultifitSolver final : public Solver {
 public:
  MultifitSolver()
      : Solver({.name = "multifit",
                .summary = "MULTIFIT capacity search with bag-aware FFD",
                .guarantee = Guarantee::Heuristic,
                .exact = false,
                .respects_bags = true,
                .guarantee_text = "empirical; 13/11 bound unproven with bags",
                .typical_scale = "n <= ~1e6"}) {}

  void run(const model::Instance& instance, const SolveOptions& options,
           SolveResult& result) const override {
    sched::MultifitOptions native_options;
    native_options.iterations = options.multifit_iterations;
    result.schedule = sched::multifit(instance, native_options);
    result.stats["iterations"] =
        static_cast<long long>(options.multifit_iterations);
  }
};

class LptSolver final : public Solver {
 public:
  LptSolver()
      : Solver({.name = "lpt",
                .summary = "Graham LPT ignoring bags (reference bound)",
                .guarantee = Guarantee::Reference,
                .exact = false,
                .respects_bags = false,
                .guarantee_text = "4/3-OPT of the UNconstrained problem",
                .typical_scale = "n <= ~1e6"}) {}

  void run(const model::Instance& instance, const SolveOptions&,
           SolveResult& result) const override {
    result.schedule = sched::lpt(instance);
  }
};

class GreedyStackSolver final : public Solver {
 public:
  GreedyStackSolver()
      : Solver({.name = "greedy-stack",
                .summary = "Figure-1 trap: stack large jobs first-fit",
                .guarantee = Guarantee::Heuristic,
                .exact = false,
                .respects_bags = true,
                .guarantee_text = "adversarial baseline (5/3*OPT on Fig. 1)",
                .typical_scale = "n <= ~1e6"}) {}

  void run(const model::Instance& instance, const SolveOptions& options,
           SolveResult& result) const override {
    result.schedule =
        sched::greedy_stack_large_first(instance, options.stack_threshold);
    result.stats["stack_threshold"] = options.stack_threshold;
  }
};

}  // namespace

std::vector<std::unique_ptr<Solver>> make_builtin_solvers() {
  std::vector<std::unique_ptr<Solver>> solvers;
  solvers.push_back(std::make_unique<EptasSolver>());
  solvers.push_back(std::make_unique<ExactSolver>(/*parallel=*/false));
  solvers.push_back(std::make_unique<ExactSolver>(/*parallel=*/true));
  solvers.push_back(std::make_unique<MilpSolver>());
  solvers.push_back(std::make_unique<LptSolver>());
  solvers.push_back(std::make_unique<BagLptSolver>());
  solvers.push_back(std::make_unique<GreedyBagsSolver>());
  solvers.push_back(std::make_unique<MultifitSolver>());
  solvers.push_back(std::make_unique<LocalSearchSolver>());
  solvers.push_back(std::make_unique<GreedyStackSolver>());
  return solvers;
}

}  // namespace bagsched::api
