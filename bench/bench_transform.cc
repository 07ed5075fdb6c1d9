// E4 (Lemma 2 / Figure 2): the instance transformation splits non-priority
// bags and adds filler jobs. Lemma 2 bounds the loss: a makespan-C solution
// of I yields a makespan-(1+eps)C solution of I'. We measure the area
// inflation (the global version of that bound) and the structural effect
// (bags split, fillers added, mediums removed). Each row's transform is
// timed through the harness, kTransforms per repetition, plus a 320-job
// mixed case (BENCH_transform.json, see harness.h).
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "eptas/classify.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "harness.h"
#include "model/lower_bounds.h"
#include "util/csv.h"

namespace {

namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
using bagsched::model::Instance;

constexpr int kTransforms = 1000;

/// Classifies `raw` scaled to 1.2x its lower bound and times its
/// transform as case `label`; nullopt when classification fails.
std::optional<std::pair<eptas::Classification, eptas::Transformed>>
timed_transform(bagsched::bench::Harness& harness, const std::string& label,
                const Instance& raw, double eps) {
  const double guess = 1.2 * bagsched::model::combined_lower_bound(raw);
  std::vector<double> sizes;
  std::vector<bagsched::model::BagId> bags;
  for (const auto& job : raw.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  const Instance scaled =
      Instance::from_vectors(sizes, bags, raw.num_machines());
  auto cls = eptas::classify(scaled, eps, eptas::EptasConfig{});
  if (!cls) return std::nullopt;
  eptas::Transformed transformed;
  auto& entry = harness.run_case(label, harness.reps(3), [&] {
    for (int k = 0; k < kTransforms; ++k) {
      transformed = eptas::transform(scaled, *cls);
    }
  });
  entry.metrics.set("n", static_cast<long long>(raw.num_jobs()));
  entry.metrics.set("transforms", kTransforms);
  return std::make_pair(std::move(*cls), std::move(transformed));
}

void print_transform_table(bagsched::bench::Harness& harness) {
  bagsched::util::Table table({"family", "eps", "n", "bags", "split_bags",
                               "fillers", "mediums_out", "area_ratio",
                               "bound(1+eps)"});
  for (const auto* family : {"mixed", "uniform", "twopoint", "smallbags"}) {
    for (const double eps : {0.5, 1.0 / 3.0}) {
      const Instance raw = gen::by_name(family, 80, 8, 3);
      const auto timed = timed_transform(
          harness,
          std::string(family) + "/eps" + std::to_string(eps).substr(0, 4),
          raw, eps);
      if (!timed) continue;
      const auto& [cls, transformed] = *timed;

      int split_bags = 0;
      for (std::size_t l = 0; l < transformed.is_large_part.size(); ++l) {
        if (transformed.is_large_part[l]) ++split_bags;
      }
      int fillers = 0;
      for (std::size_t j = 0; j < transformed.is_filler.size(); ++j) {
        if (transformed.is_filler[j]) ++fillers;
      }
      double original_area = 0.0;
      for (int j = 0; j < raw.num_jobs(); ++j) {
        original_area += cls.size_of(j);
      }
      double new_area = transformed.instance.total_area();
      for (const auto medium : transformed.removed_medium) {
        new_area += cls.size_of(medium);
      }
      table.row()
          .add(family)
          .add(eps, 3)
          .add(raw.num_jobs())
          .add(raw.num_bags())
          .add(split_bags)
          .add(fillers)
          .add(static_cast<long long>(transformed.removed_medium.size()))
          .add(new_area / original_area, 4)
          .add(1.0 + eps, 3);
    }
  }
  std::cout << "\n=== E4 / Lemma 2, Figure 2: transformation loss ===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: area_ratio <= bound for every family\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("transform", argc, argv);
  print_transform_table(harness);
  timed_transform(harness, "mixed-320/eps0.50",
                  gen::by_name("mixed", 320, 8, 3), 0.5);
  return harness.finish(std::cout) ? 0 : 1;
}
