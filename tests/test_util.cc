// Unit tests for the util module: PRNG determinism, epsilon-grid
// rounding, tables, flat bitsets and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "util/bitset64.h"
#include "util/csv.h"
#include "util/grid.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace bagsched {
namespace {

using util::EpsGrid;
using util::Table;
using util::ThreadPool;
using util::Xoshiro256;

TEST(Prng, DeterministicForFixedSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Prng, UniformIntInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto value = rng.uniform_int(-5, 9);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 9);
  }
}

TEST(Prng, UniformIntCoversRange) {
  Xoshiro256 rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Prng, UniformRealInRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.uniform_real(0.25, 0.75);
    EXPECT_GE(value, 0.25);
    EXPECT_LT(value, 0.75);
  }
}

TEST(Prng, ShuffleIsPermutation) {
  Xoshiro256 rng(5);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  auto copy = values;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(EpsGridTest, RoundUpIsOnGridAndAbove) {
  const EpsGrid grid(0.5);
  for (double p : {0.05, 0.31, 0.5, 0.9, 1.0, 1.49}) {
    const double rounded = grid.round_up(p);
    EXPECT_GE(rounded, p * (1 - 1e-12));
    EXPECT_LE(rounded, p * 1.5 + 1e-12);  // at most one factor above
    // Idempotent: rounding a grid value returns itself.
    EXPECT_NEAR(grid.round_up(rounded), rounded, 1e-12);
  }
}

TEST(EpsGridTest, IndexAboveMatchesValue) {
  const EpsGrid grid(0.25);
  EXPECT_EQ(grid.index_above(1.0), 0);
  EXPECT_EQ(grid.index_above(1.25), 1);
  EXPECT_EQ(grid.index_above(1.2), 1);
  EXPECT_EQ(grid.index_above(0.9), 0);
}

TEST(EpsGridTest, RoundUpToMultiple) {
  EXPECT_DOUBLE_EQ(util::round_up_to_multiple(0.31, 0.1), 0.4);
  EXPECT_NEAR(util::round_up_to_multiple(0.4, 0.1), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(util::round_up_to_multiple(0.0, 0.1), 0.0);
}

TEST(TableTest, CsvRoundTrip) {
  Table table({"a", "b"});
  table.row().add(1).add(2.5, 1);
  table.row().add("x").add("y");
  std::ostringstream os;
  table.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\nx,y\n");
}

TEST(TableTest, AlignedHasHeader) {
  Table table({"col", "value"});
  table.row().add("hello").add(3LL);
  std::ostringstream os;
  table.write_aligned(os);
  EXPECT_NE(os.str().find("col"), std::string::npos);
  EXPECT_NE(os.str().find("hello"), std::string::npos);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmitReturnsTypedFutures) {
  ThreadPool pool(2);
  std::future<int> answer = pool.submit([] { return 6 * 7; });
  std::future<std::string> text =
      pool.submit([] { return std::string("hello"); });
  // Move-only callables are accepted too.
  auto owned = std::make_unique<int>(5);
  std::future<int> moved =
      pool.submit([owned = std::move(owned)] { return *owned; });
  EXPECT_EQ(answer.get(), 42);
  EXPECT_EQ(text.get(), "hello");
  EXPECT_EQ(moved.get(), 5);
}

TEST(ThreadPoolTest, TypedSubmitPropagatesExceptions) {
  ThreadPool pool(1);
  std::future<int> future =
      pool.submit([]() -> int { throw std::runtime_error("typed boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Bitset64, SetTestResetAcrossWordBoundaries) {
  util::Bitset64 bits(130);
  EXPECT_EQ(bits.bits(), 130);
  for (const int b : {0, 1, 63, 64, 65, 127, 128, 129}) {
    EXPECT_FALSE(bits.test(b));
    bits.set(b);
    EXPECT_TRUE(bits.test(b));
  }
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(65));
  util::Bitset64 other(130);
  EXPECT_FALSE(bits == other);
  bits.clear();
  EXPECT_TRUE(bits == other);
}

TEST(BitMatrix64, RowsAreIndependentAndComparable) {
  util::BitMatrix64 matrix(3, 70);
  matrix.set(0, 5);
  matrix.set(0, 69);
  matrix.set(2, 5);
  matrix.set(2, 69);
  EXPECT_TRUE(matrix.test(0, 5));
  EXPECT_FALSE(matrix.test(1, 5));
  EXPECT_TRUE(matrix.rows_equal(0, 2));
  EXPECT_FALSE(matrix.rows_equal(0, 1));
  matrix.reset(2, 69);
  EXPECT_FALSE(matrix.rows_equal(0, 2));
  matrix.clear();
  EXPECT_TRUE(matrix.rows_equal(0, 2));
  EXPECT_FALSE(matrix.test(0, 5));
}

}  // namespace
}  // namespace bagsched
