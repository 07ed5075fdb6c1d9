// E9 (baseline table): all algorithms across all families, driven through
// the unified bagsched::api registry. Reports makespan relative to the best
// lower bound (ratio columns) and wall time. Expected ordering:
// eptas <= local_search <= greedy on quality, with the inverse on time; the
// unconstrained LPT column shows the price of the bag-constraints (it may
// be infeasible w.r.t. bags and is only a bound). The uniform-200x16
// solver cases land in BENCH_baselines.json (see harness.h).
#include <iostream>
#include <string>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;

void print_baseline_table() {
  const std::vector<std::string> solvers{"lpt", "greedy-bags", "bag-lpt",
                                         "multifit", "local-search",
                                         "eptas"};
  std::vector<std::string> header{"family", "n", "m", "LB"};
  for (const auto& name : solvers) header.push_back(name);
  header.push_back("eptas_s");
  bagsched::util::Table table(header);

  const int seeds = 3;
  for (const auto& family : api::instance_families()) {
    double lb = 0;
    std::vector<double> ratio(solvers.size(), 0.0);
    double eptas_seconds = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      api::SolveOptions options;
      options.seed = seed;
      const auto instance = api::make_instance(family, 48, 8, options);
      for (std::size_t s = 0; s < solvers.size(); ++s) {
        const auto result = api::solve(solvers[s], instance, options);
        ratio[s] += result.makespan / result.lower_bound;
        if (solvers[s] == "eptas") {
          eptas_seconds += result.wall_seconds;
          lb += result.lower_bound;
        }
      }
    }
    table.row().add(family).add(48).add(8).add(lb / seeds, 3);
    for (const double sum : ratio) table.add(sum / seeds, 4);
    table.add(eptas_seconds / seeds, 4);
  }
  std::cout << "\n=== E9: algorithm comparison (ratio vs lower bound, "
               "mean over seeds) ===\n";
  table.write_aligned(std::cout);
  std::cout << "lpt ignores bag-constraints (not generally feasible); it "
               "lower-bounds what constrained algorithms can reach.\n"
               "expected shape: eptas <= local <= greedy/bag_lpt on every "
               "family; eptas pays in time.\n\n";
}

// The cases time Solver::solve, i.e. algorithm + api wrapper (instance
// validation, lower bound, schedule validation) — the cost an api caller
// actually pays. For the cheap heuristics the wrapper is a visible
// constant; compare the cases against each other, not against pre-api
// history. Each repetition runs `solves` solves so no case is timer noise.
void run_solver_cases(bagsched::bench::Harness& harness) {
  struct Spec {
    const char* solver;
    int solves;
  };
  const int reps = harness.reps(3);
  api::SolveOptions options;
  options.seed = 1;
  const auto instance = api::make_instance("uniform", 200, 16, options);
  for (const Spec spec : {Spec{"greedy-bags", 500}, Spec{"local-search", 50},
                          Spec{"eptas", 20}}) {
    const auto& solver = api::SolverRegistry::global().resolve(spec.solver);
    auto& entry = harness.run_case(
        std::string("uniform-200x16/") + spec.solver, reps, [&] {
          for (int k = 0; k < spec.solves; ++k) solver.solve(instance);
        });
    entry.metrics.set("solves", spec.solves);
  }
  const int portfolio_solves = 10;
  api::Portfolio portfolio;
  auto& entry = harness.run_case("uniform-200x16/portfolio", reps, [&] {
    for (int k = 0; k < portfolio_solves; ++k) portfolio.solve(instance);
  });
  entry.metrics.set("solves", portfolio_solves);
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("baselines", argc, argv);
  print_baseline_table();
  run_solver_cases(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
