// E1 (Theorem 1, approximation ratio): EPTAS makespan against the planted
// optimum across eps values, machine counts and seeds. The paper proves
// ratio <= 1 + O(eps); the table's `max_ratio` column must stay below
// 1 + c*eps with a small c, and shrink as eps shrinks. The EPTAS runs
// through bagsched::api; pipeline internals come from the telemetry. Each
// (eps, m) cell's seed sweep is timed through the harness
// (BENCH_ratio.json, see harness.h).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;

const api::Solver& eptas() {
  return api::SolverRegistry::global().resolve("eptas");
}

void print_ratio_table(bagsched::bench::Harness& harness) {
  const int reps = harness.reps(3);
  bagsched::util::Table table({"eps", "m", "jobs~", "seeds", "mean_ratio",
                               "max_ratio", "pipe_max", "bound(1+2eps)",
                               "pipe_fail"});
  for (const double eps : {0.75, 0.5, 1.0 / 3.0, 0.25}) {
    for (const int m : {4, 8, 16}) {
      const int seeds = 5;
      std::vector<bagsched::gen::PlantedInstance> planted;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        planted.push_back(
            bagsched::gen::planted({.num_machines = m,
                                    .num_bags = 3 * m,
                                    .min_jobs_per_machine = 2,
                                    .max_jobs_per_machine = 5,
                                    .target = 1.0,
                                    .seed = seed}));
      }
      const int jobs = planted.back().instance.num_jobs();
      double sum_ratio = 0.0;
      double max_ratio = 0.0;
      double pipe_max = 0.0;  // ratio of the pipeline's own schedule
      int pipe_fail = 0;
      api::SolveOptions options;
      options.eps = eps;
      const std::string label =
          "eps" + std::to_string(eps).substr(0, 4) + "/m" + std::to_string(m);
      auto& entry = harness.run_case(label, reps, [&] {
        sum_ratio = max_ratio = pipe_max = 0.0;
        pipe_fail = 0;
        for (const auto& [instance, opt] : planted) {
          const auto result = eptas().solve(instance, options);
          const double ratio = result.makespan / opt;
          sum_ratio += ratio;
          max_ratio = std::max(max_ratio, ratio);
          if (api::stat_bool(result.stats, "pipeline_succeeded")) {
            pipe_max = std::max(
                pipe_max,
                api::stat_real(result.stats, "pipeline_makespan") / opt);
          } else {
            ++pipe_fail;
          }
        }
      });
      entry.metrics.set("jobs", static_cast<long long>(jobs));
      entry.metrics.set("seeds", seeds);
      table.row()
          .add(eps, 3)
          .add(m)
          .add(jobs)
          .add(seeds)
          .add(sum_ratio / seeds, 4)
          .add(max_ratio, 4)
          .add(pipe_max, 4)
          .add(1.0 + 2.0 * eps, 3)
          .add(pipe_fail);
    }
  }
  std::cout << "\n=== E1 / Theorem 1: EPTAS ratio vs planted OPT ===\n";
  table.write_aligned(std::cout);
  std::cout << "mean/max_ratio: returned schedule (pipeline or fallback, "
               "whichever is better).\npipe_max: the pipeline's own "
               "schedule — the Theorem 1 object; must stay <= bound.\n"
               "expected shape: ratios <= bound and non-increasing in eps, "
               "pipe_fail = 0\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("ratio", argc, argv);
  print_ratio_table(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
