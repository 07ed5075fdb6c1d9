// Speedup curve of the exact branch-and-bound engine over its one-thread
// search on the standard hard-instance set (twopoint and uniform shapes
// sized so the one-thread search runs 10^5..10^7 nodes). Each instance is
// solved on one thread (the /seq row: the DFS on the calling thread, no
// pool), then at 1/2/4/8 pool threads (/tN: for N > 1 a work-stealing
// frontier, for N = 1 the same search as /seq); makespans must agree
// bit-identically and the per-thread-count speedups land in
// BENCH_exact.json for regression tracking.
//
// Flags: --bench-json[=path] --bench-reps=N (see harness.h).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "harness.h"
#include "sched/exact.h"

namespace {

namespace bench = bagsched::bench;
namespace gen = bagsched::gen;
namespace sched = bagsched::sched;

struct Spec {
  const char* family;
  int jobs;
  int machines;
  std::uint64_t seed;
};

std::string label_of(const Spec& spec) {
  return std::string(spec.family) + "-" + std::to_string(spec.jobs) + "x" +
         std::to_string(spec.machines) + "-s" + std::to_string(spec.seed);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("exact", argc, argv);
  const int reps = harness.reps(3);

  const std::vector<Spec> specs = {
      {"twopoint", 24, 4, 1},
      {"twopoint", 26, 4, 2},
      {"twopoint", 26, 4, 3},
      {"uniform", 24, 5, 2},
  };
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  bool consistent = true;
  std::vector<double> speedup_sum(thread_counts.size(), 0.0);
  for (const Spec& spec : specs) {
    const auto instance =
        gen::by_name(spec.family, spec.jobs, spec.machines, spec.seed);
    const std::string label = label_of(spec);

    sched::ExactResult seq;
    auto& seq_case =
        harness.run_case(label + "/seq", reps, [&] {
          sched::ExactOptions options;
          options.time_limit_seconds = 120.0;
          seq = sched::solve_exact(instance, options);
        });
    seq_case.metrics.set("nodes", seq.nodes);
    seq_case.metrics.set("makespan", seq.makespan);
    seq_case.metrics.set("proven_optimal", seq.proven_optimal);

    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      const int threads = thread_counts[t];
      sched::ExactResult par;
      auto& par_case = harness.run_case(
          label + "/t" + std::to_string(threads), reps, [&] {
            sched::ExactOptions options;
            options.time_limit_seconds = 120.0;
            options.num_threads = threads;
            par = sched::solve_exact(instance, options);
          });
      const double speedup =
          par_case.median_seconds > 0.0
              ? seq_case.median_seconds / par_case.median_seconds
              : 0.0;
      par_case.metrics.set("threads", static_cast<long long>(threads));
      par_case.metrics.set("nodes", par.nodes);
      par_case.metrics.set("makespan", par.makespan);
      par_case.metrics.set("proven_optimal", par.proven_optimal);
      par_case.metrics.set("speedup_vs_seq", speedup);
      speedup_sum[t] += speedup;
      if (std::abs(par.makespan - seq.makespan) > 0.0 ||
          par.proven_optimal != seq.proven_optimal) {
        std::cerr << "MISMATCH on " << label << " at " << threads
                  << " threads: seq " << seq.makespan << "/"
                  << seq.proven_optimal << " vs par " << par.makespan << "/"
                  << par.proven_optimal << "\n";
        consistent = false;
      }
    }
  }

  std::cout << "\n=== exact-parallel speedup vs sequential ===\n";
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const double mean = speedup_sum[t] / static_cast<double>(specs.size());
    std::cout << "  " << thread_counts[t] << " threads: mean speedup "
              << mean << "x\n";
    auto& summary = harness.run_case(
        "summary/t" + std::to_string(thread_counts[t]), 1, [] {});
    summary.metrics.set("threads",
                        static_cast<long long>(thread_counts[t]));
    summary.metrics.set("mean_speedup", mean);
  }
  std::cout << "(speedups depend on available cores; this machine reports "
            << std::thread::hardware_concurrency() << ")\n";

  const bool wrote = harness.finish(std::cout);
  return wrote && consistent ? 0 : 1;
}
