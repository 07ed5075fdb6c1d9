// Service throughput: requests/sec through the SchedulingService queue at
// varying queue depths (batch sizes) and thread counts, plus the
// regression-tracked solve-cache benchmark (BENCH_service.json).
//
// The overhead table uses a fast solver (greedy-bags) over small
// instances, so it measures the service itself — queueing, dispatch,
// handle resolution, progress plumbing. The `sat` column (solver-seconds
// per wall-second) shows how well the bounded pool stays busy: ideal is
// the thread count.
//
// The harness-tracked cache cases replay a duplicate-heavy request stream
// (50% exact duplicates, plus uniformly rescaled near-duplicates that
// only the eps-rounded fingerprint catches) with the cache off and on;
// the `speedup` metric is the acceptance gate for the canonicalizing
// cache (>= 2x reqs/sec with 50% duplicates). The submit-wait and batch
// cases time greedy-bags round trips through the queue, 1000 round trips
// or 100 batches per repetition.
//
// Flags: --bench-json[=path] --bench-reps=N (see harness.h).
#include <algorithm>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "harness.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace {

namespace api = bagsched::api;
namespace bench = bagsched::bench;
namespace gen = bagsched::gen;

/// One shared workload per depth: `depth` small uniform instances.
std::vector<std::shared_ptr<const bagsched::model::Instance>> make_workload(
    int depth, int num_jobs) {
  std::vector<std::shared_ptr<const bagsched::model::Instance>> instances;
  instances.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    instances.push_back(std::make_shared<const bagsched::model::Instance>(
        gen::by_name("uniform", num_jobs, 8,
                     static_cast<std::uint64_t>(i + 1))));
  }
  return instances;
}

/// Submits the whole workload as one batch and waits for every handle;
/// returns (wall seconds, summed solver wall seconds).
std::pair<double, double> run_batch(
    api::SchedulingService& service,
    const std::vector<std::shared_ptr<const bagsched::model::Instance>>&
        instances,
    const char* solver) {
  std::vector<api::SolveRequest> requests;
  requests.reserve(instances.size());
  for (const auto& instance : instances) {
    requests.push_back(api::make_request(instance, {}, {solver}));
  }
  bagsched::util::Stopwatch timer;
  auto handles = service.submit_batch(std::move(requests));
  double solver_seconds = 0.0;
  for (auto& handle : handles) {
    solver_seconds += handle.wait().wall_seconds;
  }
  return {timer.seconds(), solver_seconds};
}

void print_throughput_table() {
  bagsched::util::Table table({"threads", "depth", "jobs", "reqs_per_s",
                               "mean_ms", "sat"});
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const int depth : {8, 32, 128}) {
      api::SchedulingService service(
          {.num_threads = threads, .max_concurrent = threads});
      const int num_jobs = 120;
      const auto instances = make_workload(depth, num_jobs);
      // Warm-up pass populates allocator caches; measured pass follows.
      run_batch(service, instances, "greedy-bags");
      const auto [wall, solver_seconds] =
          run_batch(service, instances, "greedy-bags");
      table.row()
          .add(static_cast<long long>(threads))
          .add(depth)
          .add(num_jobs)
          .add(depth / wall, 1)
          .add(1e3 * wall / depth, 3)
          .add(solver_seconds / wall, 2);
    }
  }
  std::cout << "\n=== service throughput: requests/sec by queue depth and "
               "thread count ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: with a ~20us solver the queue dominates, so "
               "mean_ms is the per-request service overhead (tens of us) "
               "and reqs_per_s stays in the tens of thousands across "
               "depths and thread counts\n\n";
}

// --- Canonicalizing-cache throughput (harness-tracked) ----------------------

/// `factor`-rescaled copy of an instance: a near-duplicate that collides
/// with the original under the eps-rounded fingerprint but not the exact
/// one (every lower bound scales with the sizes, so the rounded grid
/// indices are unchanged).
bagsched::model::Instance rescaled(const bagsched::model::Instance& instance,
                                   double factor) {
  std::vector<bagsched::model::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(instance.num_jobs()));
  for (const auto& job : instance.jobs()) {
    jobs.push_back({.id = 0, .size = job.size * factor, .bag = job.bag});
  }
  return bagsched::model::Instance(std::move(jobs), instance.num_machines(),
                                   instance.num_bags());
}

/// Duplicate-heavy stream over `bases` base instances: every base once,
/// one rescaled near-duplicate per base, and two exact duplicates per base
/// — so 50% of the 4*bases requests are exact duplicates. Shuffled
/// deterministically so duplicates interleave like real traffic.
std::vector<std::shared_ptr<const bagsched::model::Instance>>
make_duplicate_stream(int bases, int num_jobs) {
  std::vector<std::shared_ptr<const bagsched::model::Instance>> stream;
  stream.reserve(static_cast<std::size_t>(4 * bases));
  for (int i = 0; i < bases; ++i) {
    auto base = std::make_shared<const bagsched::model::Instance>(
        gen::by_name("uniform", num_jobs, 8,
                     static_cast<std::uint64_t>(1000 + i)));
    stream.push_back(base);
    stream.push_back(std::make_shared<const bagsched::model::Instance>(
        rescaled(*base, 1.1 + 0.01 * i)));
    stream.push_back(base);
    stream.push_back(base);
  }
  std::mt19937_64 rng(12345);
  std::shuffle(stream.begin(), stream.end(), rng);
  return stream;
}

struct CacheRunStats {
  double wall_seconds = 0.0;
  api::ServiceStats service;
  bagsched::cache::CacheStats cache;
};

/// One cold service, one batch of the whole stream, wait for every handle.
CacheRunStats run_duplicate_stream(
    const std::vector<std::shared_ptr<const bagsched::model::Instance>>&
        stream,
    api::CacheMode mode) {
  api::SchedulingService service({.num_threads = 2, .max_concurrent = 2});
  std::vector<api::SolveRequest> requests;
  requests.reserve(stream.size());
  for (const auto& instance : stream) {
    api::SolveOptions options;
    options.eps = 0.5;
    options.cache_mode = mode;
    requests.push_back(api::make_request(instance, options, {"eptas"}));
  }
  bagsched::util::Stopwatch timer;
  auto handles = service.submit_batch(std::move(requests));
  for (auto& handle : handles) handle.wait();
  CacheRunStats stats;
  stats.wall_seconds = timer.seconds();
  stats.service = service.stats();
  stats.cache = service.cache_stats();
  return stats;
}

/// The harness-tracked cache cases; returns the cache-on speedup.
void run_cache_cases(bench::Harness& harness, int reps) {
  const int bases = 24;
  const auto stream = make_duplicate_stream(bases, 100);
  const auto n = static_cast<double>(stream.size());

  CacheRunStats off;
  auto& off_case =
      harness.run_case("dup50/eptas/cache-off", reps,
                       [&] { off = run_duplicate_stream(
                                 stream, api::CacheMode::Off); });
  off_case.metrics.set("requests", static_cast<long long>(stream.size()));
  off_case.metrics.set("reqs_per_s", n / off.wall_seconds);

  CacheRunStats on;
  auto& on_case =
      harness.run_case("dup50/eptas/cache-rw", reps,
                       [&] { on = run_duplicate_stream(
                                 stream, api::CacheMode::ReadWrite); });
  on_case.metrics.set("requests", static_cast<long long>(stream.size()));
  on_case.metrics.set("reqs_per_s", n / on.wall_seconds);
  on_case.metrics.set("cache_hits",
                      static_cast<long long>(on.service.cache_hits));
  on_case.metrics.set(
      "cache_rounded_hits",
      static_cast<long long>(on.service.cache_rounded_hits));
  on_case.metrics.set("dedup_shared",
                      static_cast<long long>(on.service.dedup_shared));
  on_case.metrics.set("cache_entries",
                      static_cast<long long>(on.cache.entries));
  const double speedup = off_case.median_seconds / on_case.median_seconds;
  on_case.metrics.set("speedup_vs_off", speedup);

  std::cout << "\n=== solve cache: duplicate-heavy stream ("
            << stream.size() << " requests, 50% exact duplicates) ===\n"
            << "cache off: " << n / off.wall_seconds << " reqs/s\n"
            << "cache on:  " << n / on.wall_seconds << " reqs/s ("
            << on.service.cache_hits << " hits, "
            << on.service.cache_rounded_hits << " rounded, "
            << on.service.dedup_shared << " single-flight shared)\n"
            << "speedup:   " << speedup << "x (acceptance: >= 2x)\n";
}

/// One submit+wait round trip through the service (queue, dispatch,
/// solve, resolve) at 1 and 4 threads; a repetition times kRoundTrips.
void run_round_trip_cases(bench::Harness& harness, int reps) {
  constexpr int kRoundTrips = 1000;
  const auto instance = std::make_shared<const bagsched::model::Instance>(
      gen::by_name("uniform", 60, 8, 1));
  for (const std::size_t threads : {1u, 4u}) {
    api::SchedulingService service({.num_threads = threads});
    auto& entry = harness.run_case(
        "submit-wait/t" + std::to_string(threads), reps, [&] {
          for (int k = 0; k < kRoundTrips; ++k) {
            auto handle = service.submit(
                api::make_request(instance, {}, {"greedy-bags"}));
            handle.wait();
          }
        });
    entry.metrics.set("threads", static_cast<long long>(threads));
    entry.metrics.set("round_trips", kRoundTrips);
  }
}

/// Batched fan-out of `depth` requests over 4 threads; a repetition times
/// kBatches batches.
void run_batch_cases(bench::Harness& harness, int reps) {
  constexpr int kBatches = 100;
  for (const int depth : {8, 64}) {
    api::SchedulingService service({.num_threads = 4});
    const auto instances = make_workload(depth, 60);
    auto& entry = harness.run_case(
        "batch/depth" + std::to_string(depth), reps, [&] {
          for (int k = 0; k < kBatches; ++k) {
            run_batch(service, instances, "greedy-bags");
          }
        });
    entry.metrics.set("depth", depth);
    entry.metrics.set("batches", kBatches);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("service", argc, argv);
  print_throughput_table();
  const int reps = harness.reps(3);
  run_cache_cases(harness, reps);
  run_round_trip_cases(harness, reps);
  run_batch_cases(harness, reps);
  return harness.finish(std::cout) ? 0 : 1;
}
