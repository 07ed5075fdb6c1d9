// E3 (Figure 1): the paper's motivating example. Packing large jobs tightly
// (height-OPT for the large jobs alone) forces small jobs of a tight bag to
// overload a machine; a globally-informed placement achieves OPT. The table
// regenerates the figure as measured makespans: the stacking heuristic must
// sit at 5/3 * OPT while the EPTAS stays within its (1+O(eps)) band. All
// solvers are resolved through the bagsched::api registry. The EPTAS
// column is timed through the harness (BENCH_fig1.json, see harness.h),
// kSolves solves per repetition.
#include <iostream>
#include <string>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;
namespace gen = bagsched::gen;

constexpr int kSolves = 100;

void print_fig1_table(bagsched::bench::Harness& harness) {
  const int reps = harness.reps(3);
  bagsched::util::Table table({"m", "OPT", "stack_greedy", "greedy",
                               "bag_lpt", "local_search", "eptas(.4)",
                               "stack/OPT", "eptas/OPT"});
  for (const int m : {4, 8, 16, 32}) {
    const auto planted =
        gen::figure1({.num_machines = m, .scale = 1.0, .seed = 1});
    const auto& instance = planted.instance;
    api::SolveOptions options;
    options.eps = 0.4;
    options.stack_threshold = 0.5;
    const double stack =
        api::solve("greedy-stack", instance, options).makespan;
    const double greedy =
        api::solve("greedy-bags", instance, options).makespan;
    const double baglpt = api::solve("bag-lpt", instance, options).makespan;
    const double local =
        api::solve("local-search", instance, options).makespan;
    double eptas = 0.0;
    auto& entry = harness.run_case("eptas/m" + std::to_string(m), reps, [&] {
      for (int k = 0; k < kSolves; ++k) {
        eptas = api::solve("eptas", instance, options).makespan;
      }
    });
    entry.metrics.set("jobs", static_cast<long long>(instance.num_jobs()));
    entry.metrics.set("solves", kSolves);
    table.row()
        .add(m)
        .add(planted.opt, 4)
        .add(stack, 4)
        .add(greedy, 4)
        .add(baglpt, 4)
        .add(local, 4)
        .add(eptas, 4)
        .add(stack / planted.opt, 4)
        .add(eptas / planted.opt, 4);
  }
  std::cout << "\n=== E3 / Figure 1: large-job placement matters ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: stack/OPT == 5/3 (the trap), "
               "eptas/OPT <= 1 + O(eps)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("fig1", argc, argv);
  print_fig1_table(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
