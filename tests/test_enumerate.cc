// Tests for the literal (fully enumerated) MILP of paper section 3, the
// tests/oracle library, and its agreement with the column-generated master.
#include <gtest/gtest.h>

#include <set>

#include "eptas/classify.h"
#include "eptas/milp_model.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "oracle/enumerate.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using eptas::Pattern;
using eptas::PatternSpace;
using model::Instance;

constexpr int kMaxPatterns = 20000;

struct Prepared {
  Instance scaled;
  eptas::Classification cls;
  eptas::Transformed transformed;
  PatternSpace space;
};

std::optional<Prepared> prepare(const Instance& instance, double eps,
                                double guess) {
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  for (const auto& job : instance.jobs()) {
    sizes.push_back(job.size / guess);
    bags.push_back(job.bag);
  }
  Instance scaled =
      Instance::from_vectors(sizes, bags, instance.num_machines());
  const auto cls = eptas::classify(scaled, eps, EptasConfig{});
  if (!cls) return std::nullopt;
  auto transformed = eptas::transform(scaled, *cls);
  auto space = eptas::build_pattern_space(transformed, *cls);
  return Prepared{std::move(scaled), *cls, std::move(transformed),
                  std::move(space)};
}

TEST(EnumerateTest, HandCraftedSpaceCountsMatch) {
  // A space with one priority bag (two sizes) and one x size, generous
  // height: patterns = (none | s0 | s1) x (0..max_x). Count by hand.
  PatternSpace space;
  space.max_height = 2.0;
  PatternSpace::PriorityBag pbag;
  pbag.bag = 0;
  pbag.sizes = {0.9, 0.6};
  pbag.counts = {1, 1};
  space.priority_bags.push_back(pbag);
  space.x_sizes = {0.5};
  space.x_avail = {3};
  const auto patterns = oracle::enumerate_all_patterns(space, 1000);
  ASSERT_TRUE(patterns.has_value());
  // none: x in 0..3 -> 4; s0 (0.9): x in 0..2 -> 3; s1 (0.6): x in 0..2
  // (0.6 + 3*0.5 = 2.1 > 2) -> 3. Total 10.
  EXPECT_EQ(patterns->size(), 10u);
  // All distinct, all within height.
  std::set<std::vector<int>> signatures;
  for (const Pattern& pattern : *patterns) {
    EXPECT_LE(pattern.height, space.max_height + 1e-12);
    EXPECT_TRUE(signatures.insert(pattern.signature()).second);
  }
}

TEST(EnumerateTest, OverflowReturnsNullopt) {
  PatternSpace space;
  space.max_height = 10.0;
  space.x_sizes = {0.1};
  space.x_avail = {100};
  EXPECT_FALSE(oracle::enumerate_all_patterns(space, 50).has_value());
}

TEST(EnumerateTest, EmptySpaceHasOnePattern) {
  PatternSpace space;
  space.max_height = 1.0;
  const auto patterns = oracle::enumerate_all_patterns(space, 10);
  ASSERT_TRUE(patterns.has_value());
  EXPECT_EQ(patterns->size(), 1u);  // the empty pattern
}

TEST(EnumerateTest, LiteralMilpFeasibleAtOpt) {
  const auto planted = gen::planted({.num_machines = 4,
                                     .num_bags = 8,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 3,
                                     .target = 1.0,
                                     .seed = 2});
  const auto prep = prepare(planted.instance, 0.5, 1.05);
  ASSERT_TRUE(prep.has_value());
  oracle::EnumeratedStats stats;
  const auto master = oracle::solve_enumerated_master(
      prep->space, prep->transformed, prep->cls, EptasConfig{}, kMaxPatterns,
      /*integral_y=*/false, &stats);
  ASSERT_TRUE(master.has_value());
  EXPECT_GT(stats.patterns, 0);
  EXPECT_GT(stats.constraints, 0);
  // Coverage invariant (paper constraint (2)).
  int total = 0;
  for (int count : master->multiplicity) total += count;
  EXPECT_LE(total, prep->transformed.instance.num_machines());
}

TEST(EnumerateTest, AgreesWithColumnGenerationOnFeasibility) {
  // On instances where both solvers run, feasibility verdicts at a given
  // guess must broadly agree: enumerated-feasible implies colgen-feasible
  // (colgen's rows are aggregates of the literal ones, hence weaker).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto planted = gen::planted({.num_machines = 4,
                                       .num_bags = 8,
                                       .min_jobs_per_machine = 2,
                                       .max_jobs_per_machine = 3,
                                       .target = 1.0,
                                       .seed = seed});
    for (const double guess : {1.05, 1.3}) {
      const auto prep = prepare(planted.instance, 0.5, guess);
      if (!prep) continue;
      const auto literal = oracle::solve_enumerated_master(
          prep->space, prep->transformed, prep->cls, EptasConfig{},
          kMaxPatterns);
      const auto colgen = eptas::solve_master(
          prep->space, prep->transformed, prep->cls, EptasConfig{});
      if (literal) {
        EXPECT_TRUE(colgen.has_value())
            << "literal feasible but aggregated master infeasible (seed "
            << seed << ", guess " << guess << ")";
      }
    }
  }
}

TEST(EnumerateTest, IntegralYAlsoSolvable) {
  const auto planted = gen::planted({.num_machines = 3,
                                     .num_bags = 6,
                                     .min_jobs_per_machine = 2,
                                     .max_jobs_per_machine = 3,
                                     .target = 1.0,
                                     .seed = 5});
  const auto prep = prepare(planted.instance, 0.5, 1.1);
  ASSERT_TRUE(prep.has_value());
  EptasConfig config;
  config.milp.max_nodes = 20000;
  const auto master = oracle::solve_enumerated_master(
      prep->space, prep->transformed, prep->cls, config, kMaxPatterns,
      /*integral_y=*/true);
  EXPECT_TRUE(master.has_value());
}

}  // namespace
}  // namespace bagsched
