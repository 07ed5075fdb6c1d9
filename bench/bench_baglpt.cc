// E7 (Lemma 8): bag-LPT invariants, measured. Starting from equal machine
// heights, (a) any two machines end within p_max of each other and (b) the
// highest machine is at most h + A/m' + p_max. Both bounds are hard
// invariants — the `viol` columns must stay 0 across the sweep. The
// bag-lpt cases time Solver::solve (algorithm + api validation wrapper,
// the cost an api caller pays) into BENCH_baglpt.json (see harness.h).
#include <algorithm>
#include <iostream>
#include <string>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;
namespace gen = bagsched::gen;

/// m bags of m jobs each: dense.
bagsched::model::Instance dense_instance(int m, std::uint64_t seed) {
  gen::BagHeavyParams params;
  params.num_machines = m;
  params.num_bags = m;
  params.fill = 1.0;
  params.seed = seed;
  return gen::bag_heavy(params);
}

void print_baglpt_table() {
  bagsched::util::Table table({"m", "bags", "seed", "spread", "pmax",
                               "makespan", "bound(x+pmax)", "viol"});
  for (const int m : {4, 8, 16, 32}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto instance = dense_instance(m, seed);
      const auto schedule =
          api::solve("bag-lpt", instance).schedule;
      const auto loads = schedule.loads(instance);
      const double lo = *std::min_element(loads.begin(), loads.end());
      const double hi = *std::max_element(loads.begin(), loads.end());
      const double x = instance.total_area() / m;
      const double bound = x + instance.max_size();
      const int violations =
          (hi - lo > instance.max_size() + 1e-9 ? 1 : 0) +
          (hi > bound + 1e-9 ? 1 : 0);
      table.row()
          .add(m)
          .add(instance.num_bags())
          .add(static_cast<long long>(seed))
          .add(hi - lo, 4)
          .add(instance.max_size(), 4)
          .add(hi, 4)
          .add(bound, 4)
          .add(violations);
    }
  }
  std::cout << "\n=== E7 / Lemma 8: bag-LPT spread and height bounds ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: spread <= pmax, makespan <= bound, "
               "viol = 0 everywhere\n\n";
}

/// Each repetition runs `solves` solves so the small sizes are not timer
/// noise.
void run_baglpt_cases(bagsched::bench::Harness& harness) {
  struct Spec {
    int m;
    int solves;
  };
  const auto& solver = api::SolverRegistry::global().resolve("bag-lpt");
  for (const Spec spec : {Spec{8, 2000}, Spec{32, 40}, Spec{128, 2}}) {
    const auto instance = dense_instance(spec.m, 1);
    auto& entry = harness.run_case(
        "bag-lpt/m" + std::to_string(spec.m), harness.reps(3), [&] {
          for (int k = 0; k < spec.solves; ++k) solver.solve(instance);
        });
    entry.metrics.set("jobs", static_cast<long long>(instance.num_jobs()));
    entry.metrics.set("solves", spec.solves);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("baglpt", argc, argv);
  print_baglpt_table();
  run_baglpt_cases(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
