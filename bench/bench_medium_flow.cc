// E5 (Lemma 3): removed medium jobs are re-inserted via a flow network;
// the lemma bounds the per-machine height increase by 2*eps (scaled units).
// We run the pipeline to the insertion step and measure the worst added
// medium load per machine against that bound. Each seed's insertion is
// timed through the harness, kInsertions per repetition
// (BENCH_medium_flow.json, see harness.h); the bench exits non-zero when
// a seed's pipeline fails or its transform removes no medium job, since
// such a case would time an empty insertion.
#include <iostream>
#include <string>

#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/placement.h"
#include "eptas/small_jobs.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "harness.h"
#include "model/lower_bounds.h"
#include "util/csv.h"

namespace {

namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
using bagsched::model::Instance;

struct Pipeline {
  Instance scaled;
  eptas::Classification cls;
  eptas::Transformed transformed;
  eptas::PlacementResult placement;
};

std::optional<Pipeline> run_pipeline(const Instance& raw, double eps,
                                     double guess_factor) {
  const double guess =
      guess_factor * bagsched::model::combined_lower_bound(raw);
  std::vector<double> sizes;
  std::vector<bagsched::model::BagId> bags;
  for (const auto& job : raw.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  Instance scaled =
      Instance::from_vectors(sizes, bags, raw.num_machines());
  const auto cls = eptas::classify(scaled, eps, eptas::EptasConfig{});
  if (!cls) return std::nullopt;
  auto transformed = eptas::transform(scaled, *cls);
  auto space = eptas::build_pattern_space(transformed, *cls);
  auto master =
      eptas::solve_master(space, transformed, *cls, eptas::EptasConfig{});
  if (!master) return std::nullopt;
  auto placement = eptas::place_ml_jobs(transformed, space, *master,
                                        eptas::EptasConfig{});
  if (!placement) return std::nullopt;
  eptas::SmallJobStats stats;
  if (!eptas::schedule_small_jobs(transformed, *cls, space, *master,
                                  *placement, eptas::EptasConfig{}, stats)) {
    return std::nullopt;
  }
  return Pipeline{std::move(scaled), *cls, std::move(transformed),
                  std::move(*placement)};
}

constexpr int kInsertions = 1000;

/// Prints the E5 table and records one case per seed; false when a seed
/// timed no real work.
bool run_medium_table(bagsched::bench::Harness& harness) {
  const int reps = harness.reps(3);
  bool timed_work = true;
  bagsched::util::Table table({"seed", "eps", "mediums", "machines",
                               "max_added_height", "bound(2eps)",
                               "violations"});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const double eps = 0.5;
    gen::MixedParams params;
    params.num_machines = 8;
    params.num_bags = 24;
    params.large_jobs = 8;
    params.medium_jobs = 32;  // medium-heavy on purpose
    params.small_jobs = 40;
    params.seed = seed;
    const Instance raw = gen::mixed(params);
    const std::string label = "insert/seed" + std::to_string(seed);
    auto pipeline = run_pipeline(raw, eps, 1.3);
    if (!pipeline) {
      std::cerr << "E5: " << label << ": pipeline failed\n";
      timed_work = false;
      continue;
    }
    const std::size_t removed = pipeline->transformed.removed_medium.size();
    std::optional<std::vector<int>> mediums;
    auto& entry = harness.run_case(label, reps, [&] {
      for (int k = 0; k < kInsertions; ++k) {
        mediums = eptas::insert_medium_jobs(
            pipeline->scaled, pipeline->transformed, pipeline->placement);
      }
    });
    entry.metrics.set("removed_medium", static_cast<long long>(removed));
    entry.metrics.set("insertions", kInsertions);
    if (removed == 0) {
      std::cerr << "E5: " << label << " removes no medium job\n";
      timed_work = false;
    }
    if (!mediums) continue;
    std::vector<double> added(
        static_cast<std::size_t>(raw.num_machines()), 0.0);
    for (std::size_t i = 0; i < mediums->size(); ++i) {
      added[static_cast<std::size_t>((*mediums)[i])] +=
          pipeline->cls.size_of(pipeline->transformed.removed_medium[i]);
    }
    double worst = 0.0;
    int violations = 0;
    for (double a : added) {
      worst = std::max(worst, a);
      if (a > 2.0 * eps + 1e-9) ++violations;
    }
    table.row()
        .add(static_cast<long long>(seed))
        .add(eps, 3)
        .add(static_cast<long long>(mediums->size()))
        .add(raw.num_machines())
        .add(worst, 4)
        .add(2.0 * eps, 3)
        .add(violations);
  }
  std::cout << "\n=== E5 / Lemma 3: medium insertion height ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: max_added_height <= bound, violations = 0\n\n";
  return timed_work;
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("medium_flow", argc, argv);
  const bool timed_work = run_medium_table(harness);
  return harness.finish(std::cout) && timed_work ? 0 : 1;
}
