// E10 (fidelity check): the paper's literal MILP (full Definition-3
// enumeration + per-pattern y variables, the tests/oracle library) against
// the column-generated master. Quantifies the blow-up the priority caps
// avoid — patterns and y variables explode with instance size while column
// generation stays flat — and checks that both agree on feasibility where
// both run: the bench exits 1 when any row's agree column reads NO. Both
// solves are timed through the harness, kSolves per repetition
// (BENCH_enumerated.json, see harness.h).
#include <iostream>
#include <string>

#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "harness.h"
#include "oracle/enumerate.h"
#include "util/csv.h"

namespace {

namespace eptas = bagsched::eptas;
namespace gen = bagsched::gen;
namespace oracle = bagsched::oracle;
using bagsched::model::Instance;

constexpr int kSolves = 100;
constexpr int kMaxPatterns = 20000;

/// Prints the table; returns false when a row's masters disagree.
bool print_enumerated_table(bagsched::bench::Harness& harness) {
  const int reps = harness.reps(3);
  bool all_agree = true;
  bagsched::util::Table table({"m", "n", "enum_patterns", "enum_y_vars",
                               "enum_rows", "enum_s", "colgen_cols",
                               "colgen_s", "agree"});
  for (const int m : {3, 4, 5, 6}) {
    const auto planted = gen::planted({.num_machines = m,
                                       .num_bags = 2 * m,
                                       .min_jobs_per_machine = 2,
                                       .max_jobs_per_machine = 3,
                                       .target = 1.0,
                                       .seed = 3});
    const double guess = 1.05;
    std::vector<double> sizes;
    std::vector<bagsched::model::BagId> bags;
    for (const auto& job : planted.instance.jobs()) {
      sizes.push_back(job.size / guess);
      bags.push_back(job.bag);
    }
    const Instance scaled = Instance::from_vectors(
        sizes, bags, planted.instance.num_machines());
    const eptas::EptasConfig config;
    const auto cls = eptas::classify(scaled, 0.5, config);
    if (!cls) continue;
    const auto transformed = eptas::transform(scaled, *cls);
    const auto space = eptas::build_pattern_space(transformed, *cls);

    const std::string suffix = "/m" + std::to_string(m);
    oracle::EnumeratedStats stats;
    std::optional<eptas::MasterSolution> literal;
    auto& enum_case = harness.run_case("enumerated" + suffix, reps, [&] {
      for (int k = 0; k < kSolves; ++k) {
        literal = oracle::solve_enumerated_master(
            space, transformed, *cls, config, kMaxPatterns, false, &stats);
      }
    });
    enum_case.metrics.set("solves", kSolves);

    std::optional<eptas::MasterSolution> colgen;
    auto& colgen_case = harness.run_case("colgen" + suffix, reps, [&] {
      for (int k = 0; k < kSolves; ++k) {
        colgen = eptas::solve_master(space, transformed, *cls, config);
      }
    });
    colgen_case.metrics.set("solves", kSolves);

    const bool agree = literal.has_value() == colgen.has_value();
    all_agree = all_agree && agree;
    table.row()
        .add(m)
        .add(planted.instance.num_jobs())
        .add(stats.patterns)
        .add(stats.y_variables)
        .add(stats.constraints)
        .add(enum_case.median_seconds / kSolves, 4)
        .add(colgen ? colgen->stats.columns : 0)
        .add(colgen_case.median_seconds / kSolves, 4)
        .add(agree ? "yes" : "NO");
  }
  std::cout << "\n=== E10: literal MILP (paper §3) vs column generation "
               "===\n";
  table.write_aligned(std::cout);
  std::cout << "expected shape: enum_patterns/enum_y_vars explode with m "
               "while colgen_cols stays flat; agree = yes on every row\n\n";
  return all_agree;
}

}  // namespace

int main(int argc, char** argv) {
  bagsched::bench::Harness harness("enumerated", argc, argv);
  const bool all_agree = print_enumerated_table(harness);
  if (!all_agree) {
    std::cerr << "E10: the literal and the column-generated master disagree "
                 "on feasibility\n";
  }
  return harness.finish(std::cout) && all_agree ? 0 : 1;
}
