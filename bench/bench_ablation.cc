// Ablation bench for the implementation's design choices (DESIGN.md §3):
//  A1  priority-bag caps        — quality/time trade of the practical b'
//  A2  guess-grid granularity   — dual-approximation step size
//  A3  rescue placements        — structure-breaking escape hatch on/off
// Each section reports ratio vs the planted optimum and wall time. The
// EPTAS runs through bagsched::api; the ablation knobs are the
// SolveOptions::eptas sub-config. Each cell's seed sweep is timed through
// the harness (BENCH_ablation.json, see harness.h).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;
namespace gen = bagsched::gen;

const api::Solver& eptas() {
  return api::SolverRegistry::global().resolve("eptas");
}

struct Cell {
  double mean_ratio = 0.0;
  double mean_seconds = 0.0;  ///< median repetition / seeds
  int pipe_fail = 0;
};

/// Solves the four seeds under `options` as harness case `label`.
Cell run_cells(bagsched::bench::Harness& harness, const std::string& label,
               const api::SolveOptions& options) {
  const int seeds = 4;
  std::vector<gen::PlantedInstance> planted;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    planted.push_back(gen::planted({.num_machines = 8,
                                    .num_bags = 24,
                                    .min_jobs_per_machine = 3,
                                    .max_jobs_per_machine = 6,
                                    .target = 1.0,
                                    .seed = seed}));
  }
  Cell cell;
  auto& entry = harness.run_case(label, harness.reps(3), [&] {
    cell = Cell{};
    for (const auto& [instance, opt] : planted) {
      const auto result = eptas().solve(instance, options);
      if (api::stat_bool(result.stats, "pipeline_succeeded")) {
        cell.mean_ratio +=
            api::stat_real(result.stats, "pipeline_makespan") / opt;
      } else {
        ++cell.pipe_fail;
        cell.mean_ratio += result.makespan / opt;
      }
    }
  });
  entry.metrics.set("seeds", seeds);
  cell.mean_ratio /= seeds;
  cell.mean_seconds = entry.median_seconds / seeds;
  return cell;
}

void print_ablation_tables(bagsched::bench::Harness& harness) {
  {
    bagsched::util::Table table({"prio_per_size", "prio_total",
                                 "pipe_ratio", "seconds", "pipe_fail"});
    for (const int cap : {0, 1, 2, 3, 6, 12}) {
      api::SolveOptions options;
      options.eps = 0.5;
      options.eptas.max_priority_per_size = cap;
      options.eptas.max_priority_total = std::max(1, 2 * cap);
      const Cell cell =
          run_cells(harness, "a1-cap/" + std::to_string(cap), options);
      table.row()
          .add(cap)
          .add(options.eptas.max_priority_total)
          .add(cell.mean_ratio, 4)
          .add(cell.mean_seconds, 4)
          .add(cell.pipe_fail);
    }
    std::cout << "\n=== A1: priority-bag cap (practical b') ===\n";
    table.write_aligned(std::cout);
    std::cout << "expected shape: quality saturates at a small cap; time "
                 "grows with the cap (the Lemma 6 trade-off)\n";
  }
  {
    bagsched::util::Table table(
        {"guess_step_frac", "pipe_ratio", "seconds", "guesses~"});
    for (const double step : {0.125, 0.25, 0.5, 1.0, 2.0}) {
      api::SolveOptions options;
      options.eps = 0.5;
      options.eptas.guess_step_fraction = step;
      const Cell cell = run_cells(
          harness, "a2-step/" + std::to_string(step).substr(0, 5), options);
      table.row()
          .add(step, 3)
          .add(cell.mean_ratio, 4)
          .add(cell.mean_seconds, 4)
          .add("");
    }
    std::cout << "\n=== A2: guess-grid granularity ===\n";
    table.write_aligned(std::cout);
    std::cout << "expected shape: finer grids buy slightly better ratios "
                 "for more guesses (log-many probes)\n";
  }
  {
    bagsched::util::Table table(
        {"rescue", "pipe_ratio", "seconds", "pipe_fail"});
    for (const bool rescue : {true, false}) {
      api::SolveOptions options;
      options.eps = 0.5;
      options.eptas.enable_rescue = rescue;
      const Cell cell = run_cells(
          harness, std::string("a3-rescue/") + (rescue ? "on" : "off"),
          options);
      table.row()
          .add(rescue ? "on" : "off")
          .add(cell.mean_ratio, 4)
          .add(cell.mean_seconds, 4)
          .add(cell.pipe_fail);
    }
    std::cout << "\n=== A3: rescue placements ===\n";
    table.write_aligned(std::cout);
    std::cout << "expected shape: identical on well-behaved families "
                 "(rescues never fire there); rescue-off may fail more "
                 "guesses on adversarial ones\n\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("ablation", argc, argv);
  print_ablation_tables(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
