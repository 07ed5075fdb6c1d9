// E6 (Lemmas 7 and 11): conflict repair. On conflict-dense families the
// placement stage must repair B_x slot collisions by swapping (Lemma 7) and
// the small-job stage must undo the interactions of those swaps via the
// origin chain (Lemma 11). The table counts repairs (read back from the
// api telemetry) and verifies the final schedule never needs more than the
// rescue-free structure on these families (rescues = structure breaks,
// ideally 0). Each row's solve is timed through the harness, kSolves
// solves per repetition (BENCH_repair.json, see harness.h).
#include <iostream>
#include <string>
#include <utility>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"

namespace {

namespace api = bagsched::api;

constexpr int kSolves = 20;

void print_repair_table(bagsched::bench::Harness& harness) {
  const int reps = harness.reps(3);
  bagsched::util::Table table({"family", "seed", "n", "swaps",
                               "origin_repairs", "lift_swaps", "rescues",
                               "fallback", "makespan/LB"});
  const std::pair<const char*, int> shapes[] = {
      {"replica", 48}, {"replica", 96}, {"bagheavy", 48}, {"figure1", 48},
      {"mixed", 48}};
  for (const auto& [family, n] : shapes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      api::SolveOptions options;
      options.eps = 0.5;
      options.seed = seed;
      const auto instance = api::make_instance(family, n, 8, options);
      const std::string label = std::string(family) + "-" +
                                std::to_string(n) + "x8/s" +
                                std::to_string(seed);
      api::SolveResult result;
      auto& entry = harness.run_case(label, reps, [&] {
        for (int k = 0; k < kSolves; ++k) {
          result = api::solve("eptas", instance, options);
        }
      });
      entry.metrics.set("solves", kSolves);
      table.row()
          .add(family)
          .add(static_cast<long long>(seed))
          .add(instance.num_jobs())
          .add(api::stat_int(result.stats, "swaps"))
          .add(api::stat_int(result.stats, "origin_repairs"))
          .add(api::stat_int(result.stats, "lift_swaps"))
          .add(api::stat_int(result.stats, "rescues"))
          .add(api::stat_bool(result.stats, "used_fallback") ? "yes" : "no")
          .add(result.makespan / result.lower_bound, 4);
    }
  }
  std::cout << "\n=== E6 / Lemmas 7+11: conflict repair counts ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: repairs bounded and cheap; makespan/LB "
               "<= 1 + O(eps) even on conflict-dense families\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("repair", argc, argv);
  print_repair_table(harness);
  return harness.finish(std::cout) ? 0 : 1;
}
