// Tests for pattern-space construction, machine->pattern extraction, and
// the pricing branch-and-bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "eptas/classify.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"
#include "gen/generators.h"
#include "oracle/enumerate.h"
#include "sched/greedy_bags.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using eptas::EptasConfig;
using eptas::Pattern;
using eptas::PatternSpace;
using eptas::PricingDuals;
using model::Instance;

struct Prepared {
  Instance scaled;
  eptas::Classification cls;
  eptas::Transformed transformed;
  PatternSpace space;
};

Prepared prepare(const Instance& instance, double eps) {
  const auto cls = eptas::classify(instance, eps, EptasConfig{});
  EXPECT_TRUE(cls.has_value());
  auto transformed = eptas::transform(instance, *cls);
  auto space = eptas::build_pattern_space(transformed, *cls);
  return Prepared{instance, *cls, std::move(transformed), std::move(space)};
}

Instance normalized(const Instance& raw) {
  std::vector<double> sizes;
  std::vector<model::BagId> bags;
  const double shrink = 0.8 * raw.num_machines() / raw.total_area();
  for (const auto& job : raw.jobs()) {
    sizes.push_back(job.size * std::min(1.0, shrink));
    bags.push_back(job.bag);
  }
  return Instance::from_vectors(sizes, bags, raw.num_machines());
}

PricingDuals zero_duals(const PatternSpace& space) {
  PricingDuals duals;
  duals.machine = 0.0;
  duals.priority.resize(static_cast<std::size_t>(space.num_priority()));
  for (int i = 0; i < space.num_priority(); ++i) {
    duals.priority[static_cast<std::size_t>(i)].assign(
        space.priority_bags[static_cast<std::size_t>(i)].sizes.size(), 0.0);
  }
  duals.x_size.assign(static_cast<std::size_t>(space.num_x_sizes()), 0.0);
  duals.area = 0.0;
  duals.small_block.assign(
      static_cast<std::size_t>(space.num_priority()), 0.0);
  return duals;
}

TEST(PatternSpaceTest, CountsMatchInstance) {
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 60, 8, 1)), 0.5);
  const auto& inst = prep.transformed.instance;
  // Sum of priority counts + x avail = number of ml jobs in I'.
  int space_total = 0;
  for (const auto& pbag : prep.space.priority_bags) {
    for (int count : pbag.counts) space_total += count;
  }
  for (int avail : prep.space.x_avail) space_total += avail;
  int inst_total = 0;
  for (model::JobId j = 0; j < inst.num_jobs(); ++j) {
    if (prep.transformed.class_of(j) != eptas::JobClass::Small) {
      ++inst_total;
    }
  }
  EXPECT_EQ(space_total, inst_total);
}

TEST(PatternSpaceTest, XSizesAreLargeOnly) {
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 60, 8, 2)), 0.5);
  for (double size : prep.space.x_sizes) {
    EXPECT_GE(size, prep.cls.large_threshold - 1e-12);
  }
}

TEST(PatternTest, EmptyPatternShape) {
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 50, 6, 3)), 0.5);
  const Pattern empty = eptas::empty_pattern(prep.space);
  EXPECT_EQ(empty.height, 0.0);
  EXPECT_EQ(empty.jobs_in_pattern(), 0);
  for (int choice : empty.pchoice) EXPECT_EQ(choice, -1);
  for (int count : empty.xcount) EXPECT_EQ(count, 0);
}

TEST(PatternTest, FromMachineRoundTrip) {
  const Prepared prep =
      prepare(normalized(gen::by_name("twopoint", 40, 6, 4)), 0.5);
  const auto greedy = sched::greedy_bags(prep.transformed.instance);
  int patterns_extracted = 0;
  for (const auto& machine_jobs : greedy.machine_jobs()) {
    const auto pattern = eptas::pattern_from_machine(
        prep.space, prep.transformed, machine_jobs);
    if (!pattern) continue;
    ++patterns_extracted;
    // Height equals the ml load of that machine.
    double ml_load = 0.0;
    for (model::JobId j : machine_jobs) {
      if (prep.transformed.class_of(j) != eptas::JobClass::Small) {
        ml_load += prep.transformed.instance.job(j).size;
      }
    }
    EXPECT_NEAR(pattern->height, ml_load, 1e-9);
    EXPECT_LE(pattern->height, prep.space.max_height + 1e-9);
  }
  EXPECT_GT(patterns_extracted, 0);
}

TEST(PatternTest, SignatureDistinguishesPatterns) {
  const Prepared prep =
      prepare(normalized(gen::by_name("twopoint", 40, 6, 5)), 0.5);
  Pattern a = eptas::empty_pattern(prep.space);
  Pattern b = a;
  if (prep.space.num_x_sizes() > 0) {
    b.xcount[0] = 1;
    EXPECT_NE(a.signature(), b.signature());
  }
  EXPECT_EQ(a.signature(), eptas::empty_pattern(prep.space).signature());
}

TEST(PricingTest, ZeroDualsFindNothing) {
  // With all-zero duals every pattern has score -height^2 <= 0: no column.
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 50, 6, 6)), 0.5);
  const auto column = eptas::price_pattern(prep.space, zero_duals(prep.space));
  EXPECT_FALSE(column.has_value());
}

TEST(PricingTest, CoverageDualAttractsEntry) {
  const Prepared prep =
      prepare(normalized(gen::by_name("twopoint", 40, 6, 7)), 0.5);
  if (prep.space.num_x_sizes() == 0) GTEST_SKIP();
  PricingDuals duals = zero_duals(prep.space);
  duals.x_size[0] = 100.0;  // huge reward for covering x size 0
  const auto column = eptas::price_pattern(prep.space, duals);
  ASSERT_TRUE(column.has_value());
  EXPECT_GT(column->xcount[0], 0);
  // It should take as many as fit (reward dwarfs the quadratic cost).
  const int fit = static_cast<int>(prep.space.max_height /
                                   prep.space.x_sizes[0]);
  EXPECT_EQ(column->xcount[0],
            std::min(fit, prep.space.x_avail[0]));
}

TEST(PricingTest, RespectsHeightBudget) {
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 60, 8, 8)), 0.5);
  PricingDuals duals = zero_duals(prep.space);
  for (auto& row : duals.priority) {
    for (auto& value : row) value = 50.0;
  }
  for (auto& value : duals.x_size) value = 50.0;
  const auto column = eptas::price_pattern(prep.space, duals);
  ASSERT_TRUE(column.has_value());
  EXPECT_LE(column->height, prep.space.max_height + 1e-9);
  // At most one entry per priority bag by construction: each pchoice is a
  // single size index.
  EXPECT_EQ(static_cast<int>(column->pchoice.size()),
            prep.space.num_priority());
}

TEST(PricingTest, SmallBlockDualDiscouragesBag) {
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 60, 8, 9)), 0.5);
  if (prep.space.num_priority() == 0) GTEST_SKIP();
  PricingDuals duals = zero_duals(prep.space);
  // Reward bag 0's coverage but punish it with a stronger block dual: the
  // pricer must not take it.
  duals.priority[0].assign(duals.priority[0].size(), 5.0);
  duals.small_block[0] = -10.0;
  const auto column = eptas::price_pattern(prep.space, duals);
  if (column) {
    EXPECT_FALSE(column->contains_priority(0));
  }
}

/// A random entry universe: up to four priority bags with one to three
/// descending sizes, up to three x sizes, heights around T' at eps 0.5.
PatternSpace random_space(util::Xoshiro256& rng) {
  PatternSpace space;
  space.max_height = rng.uniform_real(1.0, 2.25);
  const auto descending_sizes = [&](int count) {
    std::vector<double> sizes;
    for (int k = 0; k < count; ++k) sizes.push_back(rng.uniform_real(0.1, 1.2));
    std::sort(sizes.rbegin(), sizes.rend());
    return sizes;
  };
  const int priority = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < priority; ++i) {
    PatternSpace::PriorityBag pbag;
    pbag.bag = i;
    pbag.sizes = descending_sizes(static_cast<int>(rng.uniform_int(1, 3)));
    for (std::size_t k = 0; k < pbag.sizes.size(); ++k) {
      pbag.counts.push_back(static_cast<int>(rng.uniform_int(1, 3)));
    }
    space.priority_bags.push_back(std::move(pbag));
  }
  space.x_sizes = descending_sizes(static_cast<int>(rng.uniform_int(0, 3)));
  for (std::size_t k = 0; k < space.x_sizes.size(); ++k) {
    space.x_avail.push_back(static_cast<int>(rng.uniform_int(1, 4)));
  }
  return space;
}

PricingDuals random_duals(util::Xoshiro256& rng, const PatternSpace& space) {
  PricingDuals duals = zero_duals(space);
  duals.machine = rng.uniform_real(-1.0, 1.0);
  for (auto& row : duals.priority) {
    for (auto& value : row) value = rng.uniform_real(-0.5, 2.0);
  }
  for (auto& value : duals.x_size) value = rng.uniform_real(-0.5, 2.0);
  duals.area = rng.uniform_real(-1.0, 1.0);
  for (auto& value : duals.small_block) value = rng.uniform_real(-1.0, 0.2);
  return duals;
}

TEST(PricingTest, MatchesBruteForceOnRandomSpaces) {
  // The pruning bounds (remaining-gain suffix and the height-aware
  // r*h - 2Hh - h^2) must never cut off the optimum: the priced score
  // equals the best score over every enumerated pattern.
  const eptas::PricingOptions options;
  int priced = 0;
  for (int seed = 1; seed <= 400; ++seed) {
    util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
    const PatternSpace space = random_space(rng);
    const PricingDuals duals = random_duals(rng, space);
    const auto all = oracle::enumerate_all_patterns(space, 1 << 20);
    ASSERT_TRUE(all.has_value()) << "seed " << seed;
    double best = -std::numeric_limits<double>::infinity();
    for (const Pattern& pattern : *all) {
      best = std::max(best, eptas::pattern_score(space, duals, pattern));
    }
    eptas::PricingStats stats;
    const auto column = eptas::price_pattern(space, duals, options, &stats);
    EXPECT_FALSE(stats.truncated) << "seed " << seed;
    EXPECT_GT(stats.nodes, 0) << "seed " << seed;
    // Scores within 1e-9 of the acceptance threshold may go either way.
    if (std::abs(best - options.improvement_tolerance) < 1e-9) continue;
    if (best > options.improvement_tolerance) {
      ASSERT_TRUE(column.has_value()) << "seed " << seed;
      EXPECT_NEAR(eptas::pattern_score(space, duals, *column), best, 1e-9)
          << "seed " << seed;
      EXPECT_LE(column->height, space.max_height + 1e-9) << "seed " << seed;
      ++priced;
    } else {
      EXPECT_FALSE(column.has_value()) << "seed " << seed;
    }
  }
  EXPECT_GT(priced, 100);  // the sample exercises both outcomes
  EXPECT_LT(priced, 400);
}

TEST(PricingTest, ReportsTruncation) {
  const Prepared prep =
      prepare(normalized(gen::by_name("mixed", 60, 8, 8)), 0.5);
  PricingDuals duals = zero_duals(prep.space);
  for (auto& row : duals.priority) {
    for (auto& value : row) value = 1.0;
  }
  for (auto& value : duals.x_size) value = 1.0;
  eptas::PricingOptions options;
  options.max_nodes = 1;
  eptas::PricingStats stats;
  eptas::price_pattern(prep.space, duals, options, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.nodes, 1);
  options.max_nodes = 1 << 30;
  eptas::price_pattern(prep.space, duals, options, &stats);
  EXPECT_FALSE(stats.truncated);
}

}  // namespace
}  // namespace bagsched
