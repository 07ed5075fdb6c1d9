// Tests for the canonicalizing solve cache: fingerprint invariance under
// job permutation and bag relabeling, eps-rounded collisions, schedule
// remapping across fingerprint-equal twins, sharded-LRU byte-budget
// eviction, concurrent hit/miss hammering, and the SchedulingService
// integration (submit-time hits, cache_mode semantics, single-flight
// deduplication observable through service telemetry).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/options_digest.h"
#include "hog_request.h"

namespace bagsched {
namespace {

using api::CacheMode;
using api::SchedulingService;
using api::SolveRequest;
using api::SolveStatus;
using cache::CacheKey;
using cache::Canonicalizer;
using cache::Fingerprint;
using cache::SolveCache;

model::Instance base_instance(int num_jobs = 60, int num_machines = 6,
                              std::uint64_t seed = 7) {
  return gen::by_name("uniform", num_jobs, num_machines, seed);
}

/// The same problem with jobs re-ordered by `job_perm` and bag l renamed
/// to bag_perm[l] — the symmetries the canonicalizer must erase.
model::Instance permuted_twin(const model::Instance& instance,
                              std::uint64_t seed) {
  std::vector<int> job_perm(static_cast<std::size_t>(instance.num_jobs()));
  std::iota(job_perm.begin(), job_perm.end(), 0);
  std::vector<model::BagId> bag_perm(
      static_cast<std::size_t>(instance.num_bags()));
  std::iota(bag_perm.begin(), bag_perm.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(job_perm.begin(), job_perm.end(), rng);
  std::shuffle(bag_perm.begin(), bag_perm.end(), rng);
  std::vector<model::Job> jobs;
  jobs.reserve(job_perm.size());
  for (const int old_id : job_perm) {
    const model::Job& job = instance.job(old_id);
    jobs.push_back(model::Job{
        .id = 0,  // re-numbered by the Instance constructor
        .size = job.size,
        .bag = bag_perm[static_cast<std::size_t>(job.bag)]});
  }
  return model::Instance(std::move(jobs), instance.num_machines(),
                         instance.num_bags());
}

/// All sizes multiplied by `factor`: the exact fingerprint changes, but
/// every lower bound scales by the same factor, so the eps-rounded
/// (size / lower_bound) grid indices — and the rounded fingerprint — are
/// unchanged.
model::Instance rescaled_twin(const model::Instance& instance,
                              double factor) {
  std::vector<model::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(instance.num_jobs()));
  for (const model::Job& job : instance.jobs()) {
    jobs.push_back(
        model::Job{.id = 0, .size = job.size * factor, .bag = job.bag});
  }
  return model::Instance(std::move(jobs), instance.num_machines(),
                         instance.num_bags());
}

SolveRequest cached_request(const model::Instance& instance,
                            const char* solver,
                            CacheMode mode = CacheMode::ReadWrite) {
  api::SolveOptions options;
  options.cache_mode = mode;
  return api::make_request(instance, options, {solver});
}

// --- Canonical fingerprints -------------------------------------------------

TEST(CanonicalizerTest, InvariantUnderJobPermutationAndBagRelabeling) {
  const auto instance = base_instance();
  const auto form = Canonicalizer::exact(instance);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto twin = permuted_twin(instance, seed);
    EXPECT_EQ(form.fingerprint, Canonicalizer::exact(twin).fingerprint)
        << "permutation seed " << seed;
  }
}

TEST(CanonicalizerTest, SensitiveToSizesMachinesAndBagStructure) {
  const auto instance = base_instance();
  const auto fingerprint = Canonicalizer::exact(instance).fingerprint;

  // One size nudged.
  std::vector<model::Job> jobs(instance.jobs());
  jobs.front().size += 0.5;
  const model::Instance resized(jobs, instance.num_machines(),
                                instance.num_bags());
  EXPECT_NE(fingerprint, Canonicalizer::exact(resized).fingerprint);

  // Same jobs, one machine more.
  const model::Instance more_machines(instance.jobs(),
                                      instance.num_machines() + 1,
                                      instance.num_bags());
  EXPECT_NE(fingerprint, Canonicalizer::exact(more_machines).fingerprint);

  // Two jobs' bags swapped (different partition, same sizes) — only
  // meaningful when they sit in different bags.
  jobs = instance.jobs();
  auto other =
      std::find_if(jobs.begin() + 1, jobs.end(), [&](const model::Job& job) {
        return job.bag != jobs.front().bag;
      });
  ASSERT_NE(other, jobs.end());
  std::swap(jobs.front().bag, other->bag);
  // Swapping bags of equal-size jobs is itself a symmetry; make them
  // distinguishable first.
  if (jobs.front().size == other->size) jobs.front().size += 0.25;
  const model::Instance rebagged(jobs, instance.num_machines(),
                                 instance.num_bags());
  EXPECT_NE(fingerprint, Canonicalizer::exact(rebagged).fingerprint);
}

TEST(CanonicalizerTest, EmptyBagsDoNotAffectTheFingerprint) {
  const auto instance = base_instance(30, 5, 11);
  // Same jobs, but declared over twice as many bag ids (upper half empty).
  const model::Instance padded(instance.jobs(), instance.num_machines(),
                               instance.num_bags() * 2);
  EXPECT_EQ(Canonicalizer::exact(instance).fingerprint,
            Canonicalizer::exact(padded).fingerprint);
}

TEST(CanonicalizerTest, RoundedCollapsesUniformRescaling) {
  const auto instance = base_instance();
  const auto twin = rescaled_twin(instance, 1.37);
  EXPECT_NE(Canonicalizer::exact(instance).fingerprint,
            Canonicalizer::exact(twin).fingerprint);
  EXPECT_EQ(Canonicalizer::rounded(instance, 0.5).fingerprint,
            Canonicalizer::rounded(twin, 0.5).fingerprint);
  // Different eps = different grid = different key space.
  EXPECT_NE(Canonicalizer::rounded(instance, 0.5).fingerprint,
            Canonicalizer::rounded(instance, 0.25).fingerprint);
}

TEST(CanonicalizerTest, RemapCarriesScheduleAcrossTwins) {
  const auto instance = base_instance(40, 5, 3);
  const auto twin = permuted_twin(instance, 99);
  const auto result = api::solve("greedy-bags", instance);
  ASSERT_TRUE(result.schedule_feasible);

  const auto from = Canonicalizer::exact(instance);
  const auto to = Canonicalizer::exact(twin);
  ASSERT_EQ(from.fingerprint, to.fingerprint);
  const auto remapped = cache::remap_schedule(result.schedule, from, to);
  EXPECT_TRUE(model::validate(twin, remapped).ok());
  EXPECT_DOUBLE_EQ(remapped.makespan(twin), result.makespan);
}

TEST(CanonicalizerTest, RemapJobsRejectsShapeMismatch) {
  const auto instance = base_instance(10, 3, 1);
  const auto result = api::solve("greedy-bags", instance);
  std::vector<model::JobId> order(10);
  std::iota(order.begin(), order.end(), 0);
  std::vector<model::JobId> shorter(order.begin(), order.end() - 1);
  EXPECT_THROW(model::remap_jobs(result.schedule, order, shorter),
               std::invalid_argument);
}

// --- Sharded LRU ------------------------------------------------------------

CacheKey key_of(std::uint64_t tag) {
  return CacheKey{Fingerprint{tag * 0x9e3779b9ULL + 1, tag}, "test", 0,
                  false};
}

api::SolveResult small_result(double makespan) {
  api::SolveResult result;
  result.solver = "test";
  result.status = SolveStatus::Feasible;
  result.makespan = makespan;
  result.schedule_feasible = true;
  return result;
}

/// What an insert of `result` under `key` charges: the bytes of a scratch
/// cache holding that entry alone.
std::size_t charged_bytes(const CacheKey& key,
                          const api::SolveResult& result) {
  SolveCache scratch({.num_shards = 1, .byte_budget = 1 << 20});
  scratch.insert(key, result);
  return scratch.stats().bytes;
}

TEST(SolveCacheTest, EvictsLeastRecentlyUsedAtByteBudget) {
  const std::size_t entry_bytes =
      charged_bytes(key_of(1), small_result(1.0));
  // Room for exactly two entries in a single shard.
  SolveCache cache({.num_shards = 1, .byte_budget = 2 * entry_bytes + 8});
  cache.insert(key_of(1), small_result(1.0));
  cache.insert(key_of(2), small_result(2.0));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  cache.insert(key_of(3), small_result(3.0));

  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

TEST(SolveCacheTest, ReplacingAKeyKeepsTheByteAccountingTight) {
  SolveCache cache({.num_shards = 1, .byte_budget = 1 << 20});
  for (int i = 0; i < 10; ++i) {
    cache.insert(key_of(42), small_result(static_cast<double>(i)));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, charged_bytes(key_of(42), small_result(9.0)));
  const auto hit = cache.lookup(key_of(42));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->makespan, 9.0);
}

/// A result carrying every telemetry type and a 6-job schedule whose job
/// j sits on machine (j + shift) % 3.
api::SolveResult rich_result(int shift) {
  api::SolveResult result = small_result(3.0);
  result.schedule = model::Schedule(6, 3);
  for (model::JobId j = 0; j < 6; ++j) {
    result.schedule.assign(j, (j + shift) % 3);
  }
  result.stats["columns"] = 42LL;
  result.stats["final_guess"] = 1.25;
  result.stats["pipeline_succeeded"] = true;
  result.stats["note"] =
      std::string("a string value past the small-string size");
  return result;
}

TEST(SolveCacheTest, AliasSharesThePayloadAndPaysForItsScheduleOnly) {
  SolveCache cache({.num_shards = 1, .byte_budget = 1 << 20});
  const api::SolveResult exact = rich_result(0);
  const api::SolveResult rounded = rich_result(1);  // other canonical order
  const auto payload = cache.insert(key_of(1), exact);
  const std::size_t exact_bytes = charged_bytes(key_of(1), exact);
  EXPECT_EQ(cache.stats().bytes, exact_bytes);
  cache.insert_alias(key_of(2), payload, rounded.schedule);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.insertions, 2u);
  // The alias pays its index element and its 6-job packed schedule only.
  const std::size_t alias_bytes = stats.bytes - exact_bytes;
  EXPECT_GT(alias_bytes, 0u);
  EXPECT_LT(alias_bytes, exact_bytes / 2);

  // Both keys return the full result, each in its own canonical order.
  const auto hit_exact = cache.lookup(key_of(1));
  const auto hit_rounded = cache.lookup(key_of(2));
  ASSERT_TRUE(hit_exact.has_value());
  ASSERT_TRUE(hit_rounded.has_value());
  EXPECT_EQ(hit_exact->schedule.assignment(), exact.schedule.assignment());
  EXPECT_EQ(hit_rounded->schedule.assignment(),
            rounded.schedule.assignment());
  for (const auto* hit : {&*hit_exact, &*hit_rounded}) {
    EXPECT_EQ(hit->stats, exact.stats);
    EXPECT_EQ(hit->solver, exact.solver);
    EXPECT_DOUBLE_EQ(hit->makespan, exact.makespan);
    EXPECT_EQ(hit->status, exact.status);
  }
}

TEST(SolveCacheTest, AliasOfAnUnstoredPayloadPaysForTheSharedPart) {
  // The first insert did not land (here: cleared right away; in service a
  // dropped or oversized insert): the alias alone holds the payload.
  SolveCache cache({.num_shards = 1, .byte_budget = 1 << 20});
  const auto payload = cache.insert(key_of(1), rich_result(0));
  cache.clear();
  cache.insert_alias(key_of(2), payload, rich_result(1).schedule);
  // Alone, the alias is charged exactly what the full insert would be.
  EXPECT_EQ(cache.stats().bytes,
            charged_bytes(key_of(2), rich_result(0)));
  const auto hit = cache.lookup(key_of(2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stats, rich_result(0).stats);
  EXPECT_EQ(hit->schedule.assignment(), rich_result(1).schedule.assignment());
}

TEST(SolveCacheTest, OversizedEntriesAreSkippedNotLooped) {
  api::SolveResult big = small_result(1.0);
  big.error.assign(4096, 'x');
  SolveCache cache({.num_shards = 1, .byte_budget = 256});
  cache.insert(key_of(1), big);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.oversized, 1u);
}

TEST(SolveCacheTest, SchedulesAreChargedTheirPackedWidth) {
  // The budget charges the packed form: 1, 2 or 4 bytes per job by the
  // largest machine id, not the 4-byte ids of the unpacked schedule.
  const auto with_jobs = [](int jobs, int machines) {
    api::SolveResult result = small_result(1.0);
    result.schedule = model::Schedule(jobs, machines);
    for (model::JobId j = 0; j < jobs; ++j) {
      result.schedule.assign(j, machines - 1 - j % 2);
    }
    return result;
  };
  const std::size_t base = charged_bytes(key_of(1), with_jobs(0, 3));
  EXPECT_EQ(charged_bytes(key_of(1), with_jobs(1000, 3)) - base, 1000u);
  EXPECT_EQ(charged_bytes(key_of(1), with_jobs(1000, 300)) - base, 2000u);
  EXPECT_EQ(charged_bytes(key_of(1), with_jobs(1000, 70000)) - base, 4000u);
}

TEST(SolveCacheTest, LruOrderSurvivesTouchesOfEveryPosition) {
  // Room for exactly three entries: touching the oldest, the middle and
  // the newest entry must each reorder the eviction queue.
  const std::size_t entry_bytes =
      charged_bytes(key_of(1), small_result(1.0));
  SolveCache cache({.num_shards = 1, .byte_budget = 3 * entry_bytes});
  for (std::uint64_t tag = 1; tag <= 3; ++tag) {
    cache.insert(key_of(tag), small_result(static_cast<double>(tag)));
  }
  // Order newest..oldest: 3 2 1. Touch 1 (oldest), then 3 (middle),
  // then 3 again (newest): 3 1 2.
  ASSERT_TRUE(cache.lookup(key_of(1)).has_value());
  ASSERT_TRUE(cache.lookup(key_of(3)).has_value());
  ASSERT_TRUE(cache.lookup(key_of(3)).has_value());
  cache.insert(key_of(4), small_result(4.0));  // evicts 2
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  cache.insert(key_of(5), small_result(5.0));  // order was 4 3 1: evicts 1
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  // Replacing the oldest key (3) makes it the newest: 3 5 4.
  cache.insert(key_of(3), small_result(30.0));
  cache.insert(key_of(6), small_result(6.0));  // evicts 4
  EXPECT_FALSE(cache.lookup(key_of(4)).has_value());
  for (const std::uint64_t tag : {3, 5, 6}) {
    EXPECT_TRUE(cache.lookup(key_of(tag)).has_value()) << tag;
  }
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(3))->makespan, 30.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.bytes, 3 * entry_bytes);
}

TEST(SolveCacheTest, LookupsReturnExactlyWhatWasInserted) {
  // Every SolveResult field, telemetry of every type under differing key
  // sets (the key lists are interned per cache), and schedules whose
  // machine ids need 1, 2 and 4 bytes, unassigned and negative ids
  // included. Compared through to_json, which spells out every field.
  const auto result_with = [](int machines, std::vector<int> ids,
                              api::Telemetry stats) {
    api::SolveResult result;
    result.solver = "a solver name past the small-string size";
    result.status = SolveStatus::Optimal;
    result.schedule = model::Schedule(static_cast<int>(ids.size()), machines);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      result.schedule.assign(static_cast<model::JobId>(j), ids[j]);
    }
    result.makespan = 12.5;
    result.lower_bound = 11.75;
    result.optimality_gap = 0.0625;
    result.proven_optimal = true;
    result.schedule_feasible = true;
    result.cancelled = true;
    result.moved_jobs = 7;
    result.migration_ratio = 0.125;
    result.wall_seconds = 0.25;
    result.error = "diagnostics";
    result.stats = std::move(stats);
    return result;
  };
  const api::Telemetry base = {{"columns", 42LL},
                               {"final_guess", 1.25},
                               {"pipeline_succeeded", true},
                               {"note", std::string(40, 'n')}};
  api::Telemetry other = base;
  other.erase("note");
  other["zeta"] = -3LL;
  api::Telemetry retyped = base;
  retyped["columns"] = 4.5;
  const std::vector<api::SolveResult> results = {
      result_with(3, {0, 2, model::kUnassigned, 1}, base),
      result_with(300, {299, 0, 255, 256}, other),
      result_with(70000, {69999, model::kUnassigned, 65535, 3}, base),
      result_with(2, {-7, 1, std::numeric_limits<int>::max()}, retyped),
      result_with(5, {}, {}),
  };
  SolveCache cache({.num_shards = 2, .byte_budget = 1 << 20});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto payload = cache.insert(key_of(i), results[i]);
    // The alias shares the payload under its own (here: reversed) order.
    model::Schedule reversed = results[i].schedule;
    for (model::JobId j = 0; j < reversed.num_jobs(); ++j) {
      reversed.assign(j, results[i].schedule.machine_of(
                             reversed.num_jobs() - 1 - j));
    }
    cache.insert_alias(key_of(100 + i), payload, reversed);
    api::SolveResult alias = results[i];
    alias.schedule = reversed;
    const auto hit = cache.lookup(key_of(i));
    const auto alias_hit = cache.lookup(key_of(100 + i));
    ASSERT_TRUE(hit.has_value());
    ASSERT_TRUE(alias_hit.has_value());
    EXPECT_EQ(api::to_json(*hit).dump(), api::to_json(results[i]).dump())
        << i;
    EXPECT_EQ(hit->stats, results[i].stats) << i;
    EXPECT_EQ(hit->schedule.assignment(), results[i].schedule.assignment());
    EXPECT_EQ(hit->schedule.num_machines(),
              results[i].schedule.num_machines());
    EXPECT_EQ(api::to_json(*alias_hit).dump(), api::to_json(alias).dump())
        << i;
    EXPECT_EQ(alias_hit->schedule.assignment(), reversed.assignment());
  }
}

TEST(SolveCacheTest, ConcurrentHammeringKeepsInvariants) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint64_t kKeySpace = 64;
  SolveCache cache({.num_shards = 8, .byte_budget = 1 << 18});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t tag = rng() % kKeySpace;
        if (rng() % 2 == 0) {
          cache.insert(key_of(tag),
                       small_result(static_cast<double>(tag)));
        } else if (const auto hit = cache.lookup(key_of(tag))) {
          // Entries are immutable once stored: a hit is always coherent.
          EXPECT_DOUBLE_EQ(hit->makespan, static_cast<double>(tag));
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread -
                stats.insertions);
  EXPECT_LE(stats.bytes, cache.byte_budget());
  EXPECT_LE(stats.entries, kKeySpace);
}

// --- Options digest ---------------------------------------------------------

TEST(OptionsDigestTest, EveryHashedFieldSeparatesKeys) {
  // A result-relevant knob left out of the digest would give stale cache
  // hits: perturb each hashed field in turn and require a new digest.
  using Perturb = void (*)(api::SolveOptions&);
  const std::vector<std::pair<const char*, Perturb>> hashed = {
      {"eps", [](api::SolveOptions& o) { o.eps = 0.25; }},
      {"time_limit_seconds",
       [](api::SolveOptions& o) { o.time_limit_seconds = 7.0; }},
      {"max_nodes", [](api::SolveOptions& o) { o.max_nodes = 1234; }},
      {"max_moves", [](api::SolveOptions& o) { o.max_moves = 1234; }},
      {"multifit_iterations",
       [](api::SolveOptions& o) { o.multifit_iterations = 3; }},
      {"seed", [](api::SolveOptions& o) { o.seed = 99; }},
      {"stack_threshold",
       [](api::SolveOptions& o) { o.stack_threshold = 0.75; }},
      {"eptas.max_priority_per_size",
       [](api::SolveOptions& o) { o.eptas.max_priority_per_size = 7; }},
      {"eptas.max_priority_total",
       [](api::SolveOptions& o) { o.eptas.max_priority_total = 7; }},
      {"eptas.max_milp_patterns",
       [](api::SolveOptions& o) { o.eptas.max_milp_patterns = 7; }},
      {"eptas.enable_rescue",
       [](api::SolveOptions& o) { o.eptas.enable_rescue = false; }},
      {"eptas.guess_step_fraction",
       [](api::SolveOptions& o) { o.eptas.guess_step_fraction = 0.25; }},
      {"eptas.milp.max_nodes",
       [](api::SolveOptions& o) { o.eptas.milp.max_nodes = 7; }},
      {"eptas.milp.time_limit_seconds",
       [](api::SolveOptions& o) { o.eptas.milp.time_limit_seconds = 7.0; }},
  };
  const std::uint64_t base = api::options_digest(api::SolveOptions{});
  std::set<std::uint64_t> digests = {base};
  for (const auto& [name, perturb] : hashed) {
    api::SolveOptions options;
    perturb(options);
    const std::uint64_t digest = api::options_digest(options);
    EXPECT_NE(digest, base) << name;
    EXPECT_TRUE(digests.insert(digest).second) << name;
  }

  // Deliberately excluded: how a result is computed or stored, not what it
  // is.
  const util::CancellationToken token;
  api::SolveOptions excluded;
  excluded.num_threads = 3;
  excluded.cache_mode = CacheMode::ReadWrite;
  excluded.cancel = &token;
  excluded.progress = [](const api::ProgressEvent&) {};
  excluded.eptas.on_probe = [](const eptas::GuessProbeEvent&) {};
  excluded.eptas.cancel = &token;
  EXPECT_EQ(api::options_digest(excluded), base);
}

// --- Service integration ----------------------------------------------------

TEST(ServiceCacheTest, RepeatRequestIsServedFromTheCache) {
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance();
  const auto first =
      service.submit(cached_request(instance, "greedy-bags")).wait();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(api::stat_bool(first.stats, "cache_stored"));
  EXPECT_FALSE(api::stat_bool(first.stats, "cache_hit"));

  const auto second =
      service.submit(cached_request(instance, "greedy-bags")).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(api::stat_bool(second.stats, "cache_hit"));
  EXPECT_DOUBLE_EQ(second.makespan, first.makespan);
  EXPECT_EQ(second.schedule.assignment(), first.schedule.assignment());

  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.dedup_shared, 0u);
  EXPECT_GE(service.cache_stats().entries, 1u);
}

TEST(ServiceCacheTest, ServiceConfigSizesTheCache) {
  // A 64-byte budget holds no result: the insert is skipped as oversized
  // and the repeat solves again.
  SchedulingService service(
      {.num_threads = 1, .cache = {.num_shards = 1, .byte_budget = 64}});
  const auto instance = base_instance();
  for (int i = 0; i < 2; ++i) {
    const auto result =
        service.submit(cached_request(instance, "greedy-bags")).wait();
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(api::stat_bool(result.stats, "cache_hit"));
  }
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.oversized, 2u);
}

TEST(ServiceCacheTest, PermutedTwinHitsAndRemapsFeasibly) {
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance(50, 5, 21);
  const auto twin = permuted_twin(instance, 5);
  const auto first =
      service.submit(cached_request(instance, "greedy-bags")).wait();
  ASSERT_TRUE(first.ok());
  const auto second =
      service.submit(cached_request(twin, "greedy-bags")).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(api::stat_bool(second.stats, "cache_hit"));
  // Exact twins: the remapped schedule is feasible FOR THE TWIN and has
  // the identical makespan.
  EXPECT_TRUE(model::validate(twin, second.schedule).ok());
  EXPECT_DOUBLE_EQ(second.makespan, first.makespan);
}

TEST(ServiceCacheTest, CacheModeOffAndReadNeverStore) {
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance();
  // Off: no participation at all.
  service.submit(cached_request(instance, "greedy-bags", CacheMode::Off))
      .wait();
  EXPECT_EQ(service.cache_stats().entries, 0u);
  // Read: lookups happen, stores don't.
  const auto read_only =
      service.submit(cached_request(instance, "greedy-bags", CacheMode::Read))
          .wait();
  EXPECT_FALSE(api::stat_bool(read_only.stats, "cache_hit"));
  EXPECT_FALSE(api::stat_bool(read_only.stats, "cache_stored"));
  EXPECT_EQ(service.cache_stats().entries, 0u);
  // ReadWrite populates; a later Read request is served.
  service.submit(cached_request(instance, "greedy-bags")).wait();
  const auto served =
      service.submit(cached_request(instance, "greedy-bags", CacheMode::Read))
          .wait();
  EXPECT_TRUE(api::stat_bool(served.stats, "cache_hit"));
}

TEST(ServiceCacheTest, DifferentSeedsDoNotShareLocalSearchResults) {
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance(80, 8, 3);
  api::SolveOptions options;
  options.cache_mode = CacheMode::ReadWrite;
  options.seed = 1;
  service.submit(api::make_request(instance, options, {"local-search"}))
      .wait();
  options.seed = 2;
  const auto other =
      service.submit(api::make_request(instance, options, {"local-search"}))
          .wait();
  // The options digest separates the keys: no hit across seeds.
  EXPECT_FALSE(api::stat_bool(other.stats, "cache_hit"));
}

TEST(ServiceCacheTest, RoundedHitServesRescaledTwinForEptas) {
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance(60, 6, 17);
  const auto twin = rescaled_twin(instance, 1.61);
  api::SolveOptions options;
  options.cache_mode = CacheMode::ReadWrite;
  options.eps = 0.5;
  const auto first =
      service.submit(api::make_request(instance, options, {"eptas"})).wait();
  ASSERT_TRUE(first.ok());
  const auto second =
      service.submit(api::make_request(twin, options, {"eptas"})).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(api::stat_bool(second.stats, "cache_hit_rounded"));
  EXPECT_EQ(second.status, SolveStatus::Feasible);
  EXPECT_FALSE(second.proven_optimal);
  // The schedule is re-evaluated against the twin: feasible, and the
  // reported makespan is the twin's true makespan of that schedule.
  EXPECT_TRUE(model::validate(twin, second.schedule).ok());
  EXPECT_DOUBLE_EQ(second.makespan, second.schedule.makespan(twin));
  EXPECT_EQ(service.stats().cache_rounded_hits, 1u);
}

TEST(ServiceCacheTest, ExactSolversNeverTakeRoundedHits) {
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance(14, 4, 29);
  const auto twin = rescaled_twin(instance, 1.61);
  api::SolveOptions options;
  options.cache_mode = CacheMode::ReadWrite;
  const auto first =
      service.submit(api::make_request(instance, options, {"exact"})).wait();
  ASSERT_TRUE(first.ok());
  const auto second =
      service.submit(api::make_request(twin, options, {"exact"})).wait();
  ASSERT_TRUE(second.ok());
  // Different exact fingerprint, rounded keys disabled for exact solvers:
  // the twin is solved on its own — and proves its own optimum.
  EXPECT_FALSE(api::stat_bool(second.stats, "cache_hit"));
  EXPECT_EQ(service.stats().cache_rounded_hits, 0u);
  EXPECT_TRUE(second.proven_optimal);
}

TEST(ServiceCacheTest, SingleFlightSharesOneSolveAcrossABatch) {
  // One slot, one batch of 8 identical requests: the batch is admitted
  // atomically before anything dispatches, so exactly one leader solves
  // and 7 followers share its result.
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  const auto instance =
      std::make_shared<const model::Instance>(base_instance(80, 8, 41));
  std::vector<SolveRequest> batch;
  for (int i = 0; i < 8; ++i) {
    api::SolveOptions options;
    options.cache_mode = CacheMode::ReadWrite;
    batch.push_back(api::make_request(instance, options, {"local-search"}));
  }
  auto handles = service.submit_batch(std::move(batch));
  int shared_count = 0;
  double makespan = -1.0;
  for (auto& handle : handles) {
    const auto& result = handle.wait();
    ASSERT_TRUE(result.ok());
    if (makespan < 0.0) makespan = result.makespan;
    EXPECT_DOUBLE_EQ(result.makespan, makespan);
    if (api::stat_bool(result.stats, "single_flight")) ++shared_count;
  }
  EXPECT_EQ(shared_count, 7);
  service.wait_idle();  // handles resolve just before the counters settle
  const auto stats = service.stats();
  EXPECT_EQ(stats.dedup_shared, 7u);
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.finished, 8u);
  // Only the leader ran a solver; one store per key space (exact+rounded).
  EXPECT_EQ(service.cache_stats().insertions, 2u);
}

TEST(ServiceCacheTest, SingleFlightHoldsWithFreeSlots) {
  // Four slots, one batch of 8 identical requests: the dispatch gate, not a
  // lack of slots, keeps the twins from solving side by side. One solves
  // and 7 share its result.
  SchedulingService service({.num_threads = 4, .max_concurrent = 4});
  const auto instance =
      std::make_shared<const model::Instance>(base_instance(80, 8, 41));
  std::vector<SolveRequest> batch;
  for (int i = 0; i < 8; ++i) {
    api::SolveOptions options;
    options.cache_mode = CacheMode::ReadWrite;
    batch.push_back(api::make_request(instance, options, {"local-search"}));
  }
  int shared_count = 0;
  for (auto& handle : service.submit_batch(std::move(batch))) {
    const auto& result = handle.wait();
    ASSERT_TRUE(result.ok());
    if (api::stat_bool(result.stats, "single_flight")) ++shared_count;
  }
  EXPECT_EQ(shared_count, 7);
  service.wait_idle();
  EXPECT_EQ(service.stats().dedup_shared, 7u);
  EXPECT_EQ(service.cache_stats().insertions, 2u);
}

TEST(ServiceCacheTest, WaitingTwinCountsAgainstTheQueueCap) {
  // A twin of a running solve waits in the queue like any other op: it
  // shows in queue_depth and fills max_queue_depth, so the next twin is
  // rejected.
  SchedulingService service(
      {.num_threads = 1, .max_concurrent = 1, .max_queue_depth = 1});
  SolveRequest hog = hog_request();
  hog.options.cache_mode = CacheMode::ReadWrite;
  api::SolveHandle leader = service.submit(hog);
  api::SolveHandle waiting = service.submit(hog);
  EXPECT_EQ(service.stats().active, 1u);
  EXPECT_EQ(service.stats().queue_depth, 1u);
  api::SolveHandle rejected = service.submit(hog);
  const auto& bounced = rejected.wait();
  EXPECT_EQ(bounced.status, SolveStatus::Cancelled);
  EXPECT_EQ(bounced.error.rfind("rejected", 0), 0u) << bounced.error;
  EXPECT_EQ(service.stats().rejected, 1u);
  // A cancelled leader shares nothing, so the waiting twin runs next;
  // cancelled too, it stops as soon as it starts.
  waiting.cancel();
  leader.cancel();
  EXPECT_EQ(leader.wait().status, SolveStatus::Cancelled);
  EXPECT_EQ(waiting.wait().status, SolveStatus::Cancelled);
  service.wait_idle();
  EXPECT_EQ(service.stats().dedup_shared, 0u);
}

TEST(ServiceCacheTest, FollowerDeadlineFiresWhileParkedOnALeader) {
  // A follower's deadline is a latency bound even while it waits on a
  // leader: the watchdog must resolve it out of the leader's follower
  // list, long before the (budgetless) leader finishes.
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  const auto instance = std::make_shared<const model::Instance>(
      base_instance(60, 8, 3));  // exact B&B: far beyond any test budget
  api::SolveOptions options;
  options.cache_mode = CacheMode::ReadWrite;
  std::vector<SolveRequest> batch;
  batch.push_back(api::make_request(instance, options, {"exact"}));
  batch.push_back(api::make_request(instance, options, {"exact"}));
  batch.back().deadline = api::deadline_in(0.1);
  auto handles = service.submit_batch(std::move(batch));
  // The follower must resolve on its own deadline while the leader runs.
  ASSERT_TRUE(handles[1].wait_for(10.0));
  const auto follower = *handles[1].try_get();
  EXPECT_EQ(follower.status, SolveStatus::Cancelled);
  EXPECT_TRUE(api::stat_bool(follower.stats, "deadline_expired"));
  EXPECT_FALSE(handles[0].done());
  handles[0].cancel();
  handles[0].wait();
  EXPECT_EQ(service.stats().dedup_shared, 0u);
}

TEST(ServiceCacheTest, CancelledLeaderDoesNotPoisonFollowers) {
  // A leader cancelled through its handle must not hand its Cancelled
  // result to the followers — they re-enter the queue and lead their own
  // (here: also cancelled) solves.
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  const auto instance = std::make_shared<const model::Instance>(
      base_instance(60, 8, 3));
  api::SolveOptions options;
  options.cache_mode = CacheMode::ReadWrite;
  std::vector<SolveRequest> batch;
  batch.push_back(api::make_request(instance, options, {"exact"}));
  batch.push_back(api::make_request(instance, options, {"exact"}));
  auto handles = service.submit_batch(std::move(batch));
  handles[0].cancel();
  const auto& leader = handles[0].wait();
  EXPECT_EQ(leader.status, SolveStatus::Cancelled);
  // The follower is now running its own solve, not sharing the leader's
  // cancellation.
  handles[1].cancel();
  const auto& follower = handles[1].wait();
  EXPECT_EQ(follower.status, SolveStatus::Cancelled);
  EXPECT_FALSE(api::stat_bool(follower.stats, "single_flight"));
  service.wait_idle();
  EXPECT_EQ(service.stats().dedup_shared, 0u);
  EXPECT_EQ(service.stats().finished, 2u);
}

TEST(ServiceCacheTest, DeadlineClampedResultsAreNotCached) {
  // The deadline clamp shrinks the solver's time budget below what the
  // options key promises; whatever comes back (a truncated Feasible or a
  // Cancelled incumbent) must not serve budget-unconstrained twins.
  SchedulingService service({.num_threads = 1});
  const auto instance = base_instance(60, 8, 3);
  api::SolveOptions options;
  options.cache_mode = CacheMode::ReadWrite;
  options.time_limit_seconds = 0.5;
  auto clamped = api::make_request(instance, options, {"exact"});
  clamped.deadline = api::deadline_in(0.05);  // clamps 0.5 -> ~0.05
  service.submit(std::move(clamped)).wait();
  const auto fresh =
      service.submit(api::make_request(instance, options, {"exact"})).wait();
  EXPECT_FALSE(api::stat_bool(fresh.stats, "cache_hit"));
}

TEST(ServiceCacheTest, ReadWriteFollowerStoresThroughAReadLeader) {
  // Single-flight merges requests with different cache modes; the result
  // is stored when ANY of them asked for writes, not just the leader.
  SchedulingService service({.num_threads = 1, .max_concurrent = 1});
  const auto instance = std::make_shared<const model::Instance>(
      base_instance(60, 6, 13));
  api::SolveOptions read_options;
  read_options.cache_mode = CacheMode::Read;
  api::SolveOptions write_options;
  write_options.cache_mode = CacheMode::ReadWrite;
  std::vector<SolveRequest> batch;
  batch.push_back(api::make_request(instance, read_options,
                                    {"greedy-bags"}));  // leader: Read
  batch.push_back(api::make_request(instance, write_options,
                                    {"greedy-bags"}));  // follower: RW
  for (auto& handle : service.submit_batch(std::move(batch))) {
    EXPECT_TRUE(handle.wait().ok());
  }
  service.wait_idle();
  EXPECT_GE(service.cache_stats().insertions, 1u);
  const auto replay =
      service.submit(api::make_request(instance, read_options,
                                       {"greedy-bags"}))
          .wait();
  EXPECT_TRUE(api::stat_bool(replay.stats, "cache_hit"));
}

TEST(ServiceCacheTest, ConcurrentMixedTrafficResolvesEverything) {
  // Hammer the service from several submitter threads with a mix of hot
  // duplicates and unique instances; every handle must resolve with a
  // feasible result and the counters must balance. (Run under ASan/TSan
  // flags by the sanitize CI job.)
  SchedulingService service({.num_threads = 4, .max_concurrent = 4});
  const auto hot =
      std::make_shared<const model::Instance>(base_instance(60, 6, 1));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::vector<std::thread> submitters;
  std::mutex mutex;
  std::vector<api::SolveHandle> handles;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        api::SolveOptions options;
        options.cache_mode = CacheMode::ReadWrite;
        SolveRequest request =
            (i % 2 == 0)
                ? api::make_request(hot, options, {"greedy-bags"})
                : api::make_request(
                      base_instance(40, 5,
                                    static_cast<std::uint64_t>(
                                        100 + t * kPerThread + i)),
                      options, {"greedy-bags"});
        auto handle = service.submit(std::move(request));
        std::lock_guard<std::mutex> lock(mutex);
        handles.push_back(std::move(handle));
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (auto& handle : handles) {
    EXPECT_TRUE(handle.wait().ok());
  }
  service.wait_idle();  // handles resolve just before the counters settle
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(handles.size()));
  EXPECT_EQ(stats.finished, stats.submitted);
  // The hot instance repeats 24x: all but the leaders came back via the
  // cache or a single-flight share.
  EXPECT_GE(stats.cache_hits + stats.dedup_shared, 1u);
}

}  // namespace
}  // namespace bagsched
