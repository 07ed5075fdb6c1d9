// E8 (Lemma 6): cost of the MILP stage. The paper bounds the solve time by
// a function of the number of integral variables; in the column-generated
// implementation that maps to columns (patterns) and branch-and-bound
// nodes. The table reports both across instance shapes.
//
// The harness cases (BENCH_milp.json; --bench-json / --bench-reps, see
// harness.h) time:
//  * simplex-dense/n*: cold lp::solve on random dense LPs;
//  * assignment MILPs: node throughput of the registered "milp" solver
//    (zero-copy branch-and-bound, every node re-solving one persistent
//    simplex tableau);
//  * master-planted/m*: solve_master on planted instances at a tight
//    guess (1.05 * OPT);
//  * master/*: the column-generated master on the served EPTAS workload
//    (eps 0.5, the five request families at each instance's final guess),
//    with per-master columns, pricing and MILP node counts, the pivots of
//    column generation and of branch-and-bound, and cold simplex setups.
//    The bench exits 1 when a served master sets its simplex up cold more
//    than once.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/api.h"
#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "harness.h"
#include "lp/simplex.h"
#include "milp/branch_and_bound.h"
#include "model/lower_bounds.h"
#include "oracle/master.h"
#include "util/csv.h"
#include "util/prng.h"
#include "util/stopwatch.h"

namespace {

namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
using bagsched::model::Instance;

/// A planted instance (OPT 1) on m machines, scaled to a tight guess
/// (1.05 * OPT): plenty of medium/large jobs, so the pattern machinery is
/// genuinely exercised.
Instance planted_at_tight_guess(int m) {
  const auto planted = gen::planted({.num_machines = m,
                                     .num_bags = 3 * m,
                                     .min_jobs_per_machine = 3,
                                     .max_jobs_per_machine = 6,
                                     .target = 1.0,
                                     .seed = 5});
  const double guess = 1.05;
  std::vector<double> sizes;
  std::vector<bagsched::model::BagId> bags;
  for (const auto& job : planted.instance.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  return Instance::from_vectors(sizes, bags,
                                planted.instance.num_machines());
}

void print_master_table() {
  bagsched::util::Table table({"m", "n", "prio_cap", "prio_bags",
                               "x_sizes", "columns", "pricing_rounds",
                               "milp_nodes", "seconds"});
  for (const int m : {6, 12}) {
    for (const int prio_cap : {1, 2, 4, 8}) {
      const Instance scaled = planted_at_tight_guess(m);
      eptas::EptasConfig config;
      config.max_priority_per_size = prio_cap;
      config.max_priority_total = 2 * prio_cap;
      const auto cls = eptas::classify(scaled, 0.5, config);
      if (!cls) continue;
      const auto transformed = eptas::transform(scaled, *cls);
      const auto space = eptas::build_pattern_space(transformed, *cls);
      bagsched::util::Stopwatch timer;
      const auto master =
          eptas::solve_master(space, transformed, *cls, config);
      const double seconds = timer.seconds();
      if (!master) continue;
      table.row()
          .add(m)
          .add(scaled.num_jobs())
          .add(prio_cap)
          .add(space.num_priority())
          .add(space.num_x_sizes())
          .add(master->stats.columns)
          .add(master->stats.pricing_rounds)
          .add(master->stats.milp_nodes)
          .add(seconds, 4);
    }
  }
  std::cout << "\n=== E8 / Lemma 6: pattern MILP cost ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: columns and time grow with the priority "
               "cap (the practical analogue of z integral variables)\n\n";
}

/// Random dense LP of size n x n: maximize c.x over A x <= b with a boxed
/// x, so the optimum is a real vertex, not the origin. Each repetition
/// runs `solves` cold solves so the small sizes are not timer noise.
void run_simplex_cases(bagsched::bench::Harness& harness) {
  struct Spec {
    int n;
    int solves;
  };
  for (const Spec spec : {Spec{20, 1000}, Spec{60, 200}, Spec{120, 20}}) {
    bagsched::util::Xoshiro256 rng(42);
    bagsched::lp::Model model;
    model.set_objective(bagsched::lp::Objective::Maximize);
    for (int i = 0; i < spec.n; ++i) {
      model.add_variable(rng.uniform_real(0.5, 2.0), 0.0, 5.0);
    }
    for (int r = 0; r < spec.n; ++r) {
      std::vector<std::pair<int, double>> terms;
      for (int i = 0; i < spec.n; ++i) {
        terms.emplace_back(i, rng.uniform_real(0.0, 1.0));
      }
      model.add_constraint(std::move(terms),
                           bagsched::lp::Sense::LessEqual,
                           rng.uniform_real(2.0, 8.0));
    }
    bagsched::lp::LpResult result;
    auto& entry = harness.run_case(
        "simplex-dense/n" + std::to_string(spec.n), harness.reps(5), [&] {
          for (int k = 0; k < spec.solves; ++k) {
            result = bagsched::lp::solve(model);
          }
        });
    entry.metrics.set("solves", spec.solves);
    entry.metrics.set("optimal",
                      result.status == bagsched::lp::SolveStatus::Optimal);
    entry.metrics.set("iterations", result.iterations);
    entry.metrics.set("objective", result.objective);
  }
}

/// solve_master with the default config on planted_at_tight_guess(m).
void run_planted_master_cases(bagsched::bench::Harness& harness) {
  for (const int m : {6, 12, 24}) {
    const Instance scaled = planted_at_tight_guess(m);
    const eptas::EptasConfig config;
    const auto cls = eptas::classify(scaled, 0.5, config);
    if (!cls) continue;
    const auto transformed = eptas::transform(scaled, *cls);
    const auto space = eptas::build_pattern_space(transformed, *cls);
    std::optional<eptas::MasterSolution> master;
    auto& entry = harness.run_case(
        "master-planted/m" + std::to_string(m), harness.reps(5), [&] {
          master = eptas::solve_master(space, transformed, *cls, config);
        });
    entry.metrics.set("solved", master.has_value());
    if (!master) continue;
    entry.metrics.set("columns", master->stats.columns);
    entry.metrics.set("pricing_rounds", master->stats.pricing_rounds);
    entry.metrics.set("lp_iterations", master->stats.lp_iterations);
    entry.metrics.set("milp_nodes", master->stats.milp_nodes);
  }
}

/// Assignment-MILP node throughput on the standard instance set, via the
/// registered "milp" solver (which builds the x_ji model).
void run_assignment_cases(bagsched::bench::Harness& harness) {
  namespace api = bagsched::api;
  const api::Solver& milp_solver =
      api::SolverRegistry::global().resolve("milp");
  struct Spec {
    const char* family;
    int jobs;
    int machines;
    std::uint64_t seed;
  };
  const Spec specs[] = {
      {"twopoint", 12, 3, 1},
      {"twopoint", 14, 4, 2},
      {"twopoint", 16, 4, 3},
      {"uniform", 12, 4, 1},
  };
  const int reps = harness.reps(3);
  for (const Spec& spec : specs) {
    const auto instance =
        gen::by_name(spec.family, spec.jobs, spec.machines, spec.seed);
    const std::string label = std::string(spec.family) + "-" +
                              std::to_string(spec.jobs) + "x" +
                              std::to_string(spec.machines) + "-s" +
                              std::to_string(spec.seed);
    api::SolveResult result;
    auto& entry = harness.run_case(label, reps, [&] {
      api::SolveOptions options;
      options.time_limit_seconds = 120.0;
      result = milp_solver.solve(instance, options);
    });
    const long long nodes = api::stat_int(result.stats, "nodes");
    entry.metrics.set("nodes", nodes);
    entry.metrics.set("lp_iterations",
                      api::stat_int(result.stats, "lp_iterations"));
    entry.metrics.set("makespan", result.makespan);
    entry.metrics.set("proven_optimal", result.proven_optimal);
    entry.metrics.set("nodes_per_second",
                      entry.median_seconds > 0.0
                          ? static_cast<double>(nodes) /
                                entry.median_seconds
                          : 0.0);
  }
}

/// The column-generated master at the final guess of eps-0.5 EPTAS solves
/// of the five served request families (24 jobs on 4 machines; replica 40
/// on 6), eight seeded instances per family. Each timed repetition runs
/// the eight masters; the metrics are per master solve. Returns the number
/// of masters whose simplex was set up cold more than once (or never):
/// one live tableau must carry each from its seed columns to the integral
/// answer.
int run_master_cases(bagsched::bench::Harness& harness) {
  constexpr int kInstances = 8;
  const eptas::EptasConfig config;
  const int reps = harness.reps(5);
  int rebuilt = 0;
  for (const char* family : bagsched::oracle::kServedFamilies) {
    const auto masters = bagsched::oracle::served_masters(family, kInstances);
    eptas::MasterStats total;
    int solved = 0;
    int family_rebuilt = 0;
    auto& entry = harness.run_case(
        std::string("master/") + family, reps, [&] {
          total = {};
          solved = 0;
          family_rebuilt = 0;
          for (const auto& served : masters) {
            const auto master = eptas::solve_master(
                served.space, served.transformed, served.cls, config);
            if (!master) continue;
            ++solved;
            if (master->stats.lp_cold_starts != 1) {
              ++family_rebuilt;
              std::cerr << "master/" << family << ": " << served.replay
                        << " set its simplex up cold "
                        << master->stats.lp_cold_starts << " times\n";
            }
            total.columns += master->stats.columns;
            total.pricing_rounds += master->stats.pricing_rounds;
            total.lp_iterations += master->stats.lp_iterations;
            total.pricing_nodes += master->stats.pricing_nodes;
            total.milp_nodes += master->stats.milp_nodes;
            total.milp_lp_iterations += master->stats.milp_lp_iterations;
            total.lp_cold_starts += master->stats.lp_cold_starts;
          }
        });
    rebuilt += family_rebuilt;
    const double per = solved > 0 ? 1.0 / solved : 0.0;
    entry.metrics.set("masters", solved);
    entry.metrics.set("columns", total.columns * per);
    entry.metrics.set("pricing_rounds", total.pricing_rounds * per);
    entry.metrics.set("lp_iterations",
                      static_cast<double>(total.lp_iterations) * per);
    entry.metrics.set("pricing_nodes",
                      static_cast<double>(total.pricing_nodes) * per);
    entry.metrics.set("milp_nodes",
                      static_cast<double>(total.milp_nodes) * per);
    entry.metrics.set("milp_lp_iterations",
                      static_cast<double>(total.milp_lp_iterations) * per);
    entry.metrics.set("lp_cold_starts",
                      static_cast<double>(total.lp_cold_starts) * per);
  }
  return rebuilt;
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("milp", argc, argv);
  print_master_table();
  run_simplex_cases(harness);
  run_assignment_cases(harness);
  run_planted_master_cases(harness);
  const int rebuilt = run_master_cases(harness);
  const bool finished = harness.finish(std::cout);
  if (rebuilt > 0) {
    std::cerr << "bench_milp: " << rebuilt
              << " served master solves rebuilt their simplex cold\n";
  }
  return finished && rebuilt == 0 ? 0 : 1;
}
