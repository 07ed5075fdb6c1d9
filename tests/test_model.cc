// Unit tests for the model module: Instance invariants, Schedule
// validation, lower bounds, text I/O round-trips and JSON range checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/instance.h"
#include "model/io.h"
#include "model/lower_bounds.h"
#include "model/schedule.h"
#include "util/json.h"
#include "util/prng.h"

namespace bagsched {
namespace {

using model::Instance;
using model::Schedule;

Instance tiny() {
  // 4 jobs, 2 machines, 2 bags: bag 0 = {0, 1}, bag 1 = {2, 3}.
  return Instance::from_vectors({1.0, 2.0, 3.0, 4.0}, {0, 0, 1, 1}, 2);
}

TEST(InstanceTest, BasicAccessors) {
  const Instance instance = tiny();
  EXPECT_EQ(instance.num_jobs(), 4);
  EXPECT_EQ(instance.num_machines(), 2);
  EXPECT_EQ(instance.num_bags(), 2);
  EXPECT_DOUBLE_EQ(instance.total_area(), 10.0);
  EXPECT_DOUBLE_EQ(instance.max_size(), 4.0);
  EXPECT_EQ(instance.bag_size(0), 2);
  EXPECT_EQ(instance.max_bag_size(), 2);
  EXPECT_TRUE(instance.is_feasible());
}

TEST(InstanceTest, InfeasibleWhenBagExceedsMachines) {
  const Instance instance =
      Instance::from_vectors({1, 1, 1}, {0, 0, 0}, 2);
  EXPECT_FALSE(instance.is_feasible());
}

TEST(InstanceTest, WithoutBagsGivesSingletons) {
  const Instance instance = Instance::without_bags({1, 2, 3}, 2);
  EXPECT_EQ(instance.num_bags(), 3);
  EXPECT_EQ(instance.max_bag_size(), 1);
}

TEST(InstanceTest, RejectsNonPositiveSizes) {
  EXPECT_THROW(Instance::from_vectors({0.0}, {0}, 1),
               std::invalid_argument);
  EXPECT_THROW(Instance::from_vectors({-1.0}, {0}, 1),
               std::invalid_argument);
}

TEST(InstanceTest, RejectsBadBagIds) {
  std::vector<model::Job> jobs(1);
  jobs[0].size = 1.0;
  jobs[0].bag = 5;
  EXPECT_THROW(Instance(jobs, 2, 2), std::invalid_argument);
}

TEST(InstanceTest, RejectsZeroMachines) {
  EXPECT_THROW(Instance({}, 0, 0), std::invalid_argument);
}

TEST(ScheduleTest, LoadsAndMakespan) {
  const Instance instance = tiny();
  Schedule schedule(4, 2);
  schedule.assign(0, 0);
  schedule.assign(1, 1);
  schedule.assign(2, 0);
  schedule.assign(3, 1);
  const auto loads = schedule.loads(instance);
  EXPECT_DOUBLE_EQ(loads[0], 4.0);  // 1 + 3
  EXPECT_DOUBLE_EQ(loads[1], 6.0);  // 2 + 4
  EXPECT_DOUBLE_EQ(schedule.makespan(instance), 6.0);
}

TEST(ScheduleTest, ValidDetectsComplete) {
  const Instance instance = tiny();
  Schedule schedule(4, 2);
  schedule.assign(0, 0);
  schedule.assign(1, 1);
  schedule.assign(2, 1);
  schedule.assign(3, 0);
  const auto result = model::validate(instance, schedule);
  EXPECT_TRUE(result.ok()) << result.message;
}

TEST(ScheduleTest, ValidateDetectsUnassigned) {
  const Instance instance = tiny();
  Schedule schedule(4, 2);
  schedule.assign(0, 0);
  const auto result = model::validate(instance, schedule);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.unassigned_jobs, 3);
}

TEST(ScheduleTest, ValidateDetectsBagConflict) {
  const Instance instance = tiny();
  Schedule schedule(4, 2);
  schedule.assign(0, 0);
  schedule.assign(1, 0);  // bag 0 twice on machine 0
  schedule.assign(2, 1);
  schedule.assign(3, 0);
  const auto result = model::validate(instance, schedule);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.bag_feasible);
  EXPECT_EQ(result.bag_conflicts, 1);
}

TEST(ScheduleTest, SwapJobs) {
  Schedule schedule(2, 2);
  schedule.assign(0, 0);
  schedule.assign(1, 1);
  schedule.swap_jobs(0, 1);
  EXPECT_EQ(schedule.machine_of(0), 1);
  EXPECT_EQ(schedule.machine_of(1), 0);
}

TEST(ScheduleTest, RequireValidThrows) {
  const Instance instance = tiny();
  Schedule schedule(4, 2);
  EXPECT_THROW(model::require_valid(instance, schedule, "test"),
               std::logic_error);
}

TEST(LowerBoundsTest, AreaAndPmax) {
  const Instance instance = tiny();
  EXPECT_DOUBLE_EQ(model::area_lower_bound(instance), 5.0);
  EXPECT_DOUBLE_EQ(model::pmax_lower_bound(instance), 4.0);
}

TEST(LowerBoundsTest, PairingBoundWhenMoreJobsThanMachines) {
  // Sizes sorted desc: 4 3 2 1, m = 2 -> bound = 3 + 2 = 5.
  const Instance instance = tiny();
  EXPECT_DOUBLE_EQ(model::pairing_lower_bound(instance), 5.0);
}

TEST(LowerBoundsTest, PairingZeroWhenFewJobs) {
  const Instance instance = Instance::from_vectors({5.0}, {0}, 2);
  EXPECT_DOUBLE_EQ(model::pairing_lower_bound(instance), 0.0);
}

TEST(LowerBoundsTest, PairingMatchesSortedReferenceOnRandomInstances) {
  // The selection-based bound must equal the textbook sort-based value
  // bit for bit, including ties (sizes drawn from a few values) and the
  // tightest case n = m + 1.
  util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 12));
    const int n = trial % 4 == 0
                      ? m + 1
                      : static_cast<int>(rng.uniform_int(m + 1, 4 * m + 8));
    const bool ties = trial % 3 == 0;
    std::vector<double> sizes;
    std::vector<model::BagId> bags;
    for (int j = 0; j < n; ++j) {
      sizes.push_back(ties ? static_cast<double>(rng.uniform_int(1, 3))
                           : rng.uniform_real(0.1, 10.0));
      bags.push_back(j);
    }
    const Instance instance = Instance::from_vectors(sizes, bags, m);
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    const double reference = sizes[static_cast<std::size_t>(m) - 1] +
                             sizes[static_cast<std::size_t>(m)];
    ASSERT_EQ(model::pairing_lower_bound(instance), reference)
        << "trial " << trial << " (n = " << n << ", m = " << m << ")";
  }
}

TEST(LowerBoundsTest, CombinedIsMax) {
  const Instance instance = tiny();
  EXPECT_DOUBLE_EQ(model::combined_lower_bound(instance), 5.0);
}

TEST(LowerBoundsTest, BoundsNeverExceedOptOnKnownInstance) {
  // Perfect split exists: {4,1} and {3,2} -> OPT = 5.
  const Instance instance = tiny();
  EXPECT_LE(model::combined_lower_bound(instance), 5.0 + 1e-12);
}

TEST(IoTest, InstanceRoundTrip) {
  const Instance instance = tiny();
  std::stringstream stream;
  model::write_instance(stream, instance);
  const Instance loaded = model::read_instance(stream);
  EXPECT_EQ(loaded.num_jobs(), instance.num_jobs());
  EXPECT_EQ(loaded.num_machines(), instance.num_machines());
  EXPECT_EQ(loaded.num_bags(), instance.num_bags());
  for (int j = 0; j < instance.num_jobs(); ++j) {
    EXPECT_DOUBLE_EQ(loaded.job(j).size, instance.job(j).size);
    EXPECT_EQ(loaded.job(j).bag, instance.job(j).bag);
  }
}

TEST(IoTest, ScheduleRoundTrip) {
  Schedule schedule(3, 2);
  schedule.assign(0, 1);
  schedule.assign(1, 0);
  // job 2 left unassigned
  std::stringstream stream;
  model::write_schedule(stream, schedule);
  const Schedule loaded = model::read_schedule(stream);
  EXPECT_EQ(loaded.machine_of(0), 1);
  EXPECT_EQ(loaded.machine_of(1), 0);
  EXPECT_EQ(loaded.machine_of(2), model::kUnassigned);
}

TEST(IoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream stream;
  stream << "# a comment\nbagsched 1\n\nmachines 2\nbags 1\njobs 1\n"
         << "1.5 0  # trailing comment\n";
  const Instance loaded = model::read_instance(stream);
  EXPECT_EQ(loaded.num_jobs(), 1);
  EXPECT_DOUBLE_EQ(loaded.job(0).size, 1.5);
}

TEST(IoTest, BadHeaderThrows) {
  std::stringstream stream("nonsense 1\n");
  EXPECT_THROW(model::read_instance(stream), std::runtime_error);
}

TEST(IoTest, JsonCountsOutsideIntRangeAreRejected) {
  // 4294967298 = 2^32 + 2 used to narrow to 2 machines.
  const auto instance = [](const std::string& machines,
                           const std::string& bags, const std::string& bag) {
    return model::instance_from_json(util::Json::parse(
        "{\"machines\": " + machines + ", \"bags\": " + bags +
        ", \"jobs\": [{\"size\": 1, \"bag\": " + bag + "}]}"));
  };
  EXPECT_EQ(instance("2", "1", "0").num_machines(), 2);
  EXPECT_THROW(instance("4294967298", "1", "0"), std::invalid_argument);
  EXPECT_THROW(instance("-1", "1", "0"), std::invalid_argument);
  EXPECT_THROW(instance("2", "4294967297", "0"), std::invalid_argument);
  EXPECT_THROW(instance("2", "-4294967295", "0"), std::invalid_argument);
  EXPECT_THROW(instance("2", "1", "4294967296"), std::invalid_argument);
  EXPECT_THROW(instance("2", "1", "-1"), std::invalid_argument);
  EXPECT_THROW(instance("2147483648", "1", "0"), std::invalid_argument);
}

TEST(IoTest, JsonScheduleEntriesOutsideIntRangeAreRejected) {
  const auto schedule = [](const std::string& machines,
                           const std::string& machine) {
    return model::schedule_from_json(util::Json::parse(
        "{\"machines\": " + machines + ", \"assignment\": [" + machine +
        ", 0]}"));
  };
  EXPECT_EQ(schedule("2", "1").machine_of(0), 1);
  EXPECT_FALSE(schedule("2", "-1").is_assigned(0));  // kUnassigned
  EXPECT_THROW(schedule("4294967298", "0"), std::invalid_argument);
  EXPECT_THROW(schedule("-2", "0"), std::invalid_argument);
  // 2^32 and 2^32 - 1 used to narrow to machines 0 and -1 (unassigned).
  EXPECT_THROW(schedule("2", "4294967296"), std::runtime_error);
  EXPECT_THROW(schedule("2", "4294967295"), std::runtime_error);
  EXPECT_THROW(schedule("2", "-4294967297"), std::runtime_error);
}

}  // namespace
}  // namespace bagsched
