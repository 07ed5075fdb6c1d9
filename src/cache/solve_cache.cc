#include "cache/solve_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/fault.h"
#include "util/hash.h"

namespace bagsched::cache {

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::size_t seed = static_cast<std::size_t>(
      key.fingerprint.hi ^ util::mix64(key.fingerprint.lo));
  seed = util::hash_combine(seed, std::hash<std::string>{}(key.solver));
  seed = util::hash_combine(seed, static_cast<std::size_t>(key.options));
  seed = util::hash_combine(seed, key.rounded ? 0x5eedULL : 0ULL);
  return seed;
}

namespace {

/// The most a heap allocation of 9 bytes or more costs beyond the bytes
/// it asks for: glibc's 8-byte chunk header plus rounding up to 16 bytes.
/// Charged once per allocation, so the budget bounds the heap entries
/// hold rather than the bytes they asked for.
constexpr std::size_t kAllocationOverhead = 24;

/// Heap a string owns beyond its object: none while it fits the
/// small-string buffer inside the object.
std::size_t heap_bytes(const std::string& text) {
  const auto* object = reinterpret_cast<const char*>(&text);
  const bool inline_buffer =
      text.data() >= object && text.data() < object + sizeof text;
  return inline_buffer ? 0 : text.capacity() + 1 + kAllocationOverhead;
}

static_assert(std::is_same_v<api::TelemetryValue,
                             std::variant<long long, double, bool,
                                          std::string>>,
              "pack_values/unpack_telemetry mirror this alternative order");

/// Telemetry values in map order, in one buffer; the key names live in the
/// cache's interned key list. Per key: u8 variant index, then the value
/// (u32 length + bytes for strings).
std::string pack_values(const api::Telemetry& stats) {
  std::string out;
  const auto put = [&out](const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  };
  for (const auto& [key, value] : stats) {
    const auto index = static_cast<std::uint8_t>(value.index());
    put(&index, sizeof index);
    std::visit(
        [&](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                       std::string>) {
            const auto size = static_cast<std::uint32_t>(v.size());
            put(&size, sizeof size);
            put(v.data(), v.size());
          } else {
            put(&v, sizeof v);
          }
        },
        value);
  }
  out.shrink_to_fit();
  return out;
}

api::Telemetry unpack_telemetry(const std::vector<std::string>& keys,
                                std::string_view packed) {
  api::Telemetry stats;
  std::size_t at = 0;
  const auto take = [&](void* data, std::size_t size) {
    std::memcpy(data, packed.data() + at, size);
    at += size;
  };
  const auto take_value = [&](auto value) {
    take(&value, sizeof value);
    return api::TelemetryValue(value);
  };
  for (const std::string& key : keys) {
    std::uint8_t index = 0;
    take(&index, sizeof index);
    api::TelemetryValue value;
    switch (index) {
      case 0: value = take_value(0LL); break;
      case 1: value = take_value(0.0); break;
      case 2: value = take_value(false); break;
      default: {
        std::uint32_t size = 0;
        take(&size, sizeof size);
        value = std::string(packed.substr(at, size));
        at += size;
        break;
      }
    }
    stats.emplace_hint(stats.end(), key, std::move(value));
  }
  return stats;
}

/// A schedule in one allocation: u8 width, i32 machine count, u32 job
/// count, then per job machine id + 1 (so kUnassigned is 0) as a
/// little-endian unsigned of `width` bytes — the narrowest of 1, 2 or 4
/// that holds every id. Any int id round-trips.
constexpr std::size_t kScheduleHeader = 9;

std::size_t packed_width(const model::Schedule& schedule) {
  std::uint32_t top = 0;
  for (const model::MachineId machine : schedule.assignment()) {
    top = std::max(top, static_cast<std::uint32_t>(machine) + 1u);
  }
  return top <= 0xFF ? 1 : top <= 0xFFFF ? 2 : 4;
}

std::size_t packed_schedule_bytes(const model::Schedule& schedule) {
  return kScheduleHeader +
         packed_width(schedule) * schedule.assignment().size();
}

std::unique_ptr<std::uint8_t[]> pack_schedule(
    const model::Schedule& schedule) {
  const auto& assignment = schedule.assignment();
  const std::size_t width = packed_width(schedule);
  auto out = std::make_unique_for_overwrite<std::uint8_t[]>(
      kScheduleHeader + width * assignment.size());
  const auto put = [&](std::size_t at, std::uint32_t value,
                       std::size_t bytes) {
    for (std::size_t b = 0; b < bytes; ++b) {
      out[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
  };
  put(0, static_cast<std::uint32_t>(width), 1);
  put(1, static_cast<std::uint32_t>(schedule.num_machines()), 4);
  put(5, static_cast<std::uint32_t>(assignment.size()), 4);
  for (std::size_t j = 0; j < assignment.size(); ++j) {
    put(kScheduleHeader + width * j,
        static_cast<std::uint32_t>(assignment[j]) + 1u, width);
  }
  return out;
}

model::Schedule unpack_schedule(const std::uint8_t* packed) {
  const auto get = [packed](std::size_t at, std::size_t bytes) {
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < bytes; ++b) {
      value |= static_cast<std::uint32_t>(packed[at + b]) << (8 * b);
    }
    return value;
  };
  const std::size_t width = get(0, 1);
  const auto jobs = static_cast<int>(get(5, 4));
  model::Schedule schedule(jobs, static_cast<int>(get(1, 4)));
  for (int j = 0; j < jobs; ++j) {
    schedule.assign(j, static_cast<model::MachineId>(
                           get(kScheduleHeader + width * j, width) - 1u));
  }
  return schedule;
}

}  // namespace

/// The shared payload: every SolveResult field but the schedule (each
/// entry keeps its own), with the telemetry split into interned keys and
/// packed values. A field added to SolveResult must be carried here too;
/// test_cache's round trip compares whole results through api::to_json.
struct SolveCache::StoredResult {
  StoredResult(api::SolveResult&& result, const TelemetryKeys* keys)
      : keys(keys),
        values(pack_values(result.stats)),
        solver(std::move(result.solver)),
        error(std::move(result.error)),
        makespan(result.makespan),
        lower_bound(result.lower_bound),
        optimality_gap(result.optimality_gap),
        migration_ratio(result.migration_ratio),
        wall_seconds(result.wall_seconds),
        moved_jobs(result.moved_jobs),
        status(result.status),
        proven_optimal(result.proven_optimal),
        schedule_feasible(result.schedule_feasible),
        cancelled(result.cancelled) {
    // One make_shared allocation (the object, two counts and a vtable
    // pointer), and the heap its strings own.
    bytes = sizeof(StoredResult) + 2 * sizeof(long) + sizeof(void*) +
            kAllocationOverhead + heap_bytes(values) + heap_bytes(solver) +
            heap_bytes(error);
  }

  /// The stored result around `schedule`.
  api::SolveResult unpack(model::Schedule schedule) const {
    api::SolveResult result;
    result.solver = solver;
    result.status = status;
    result.schedule = std::move(schedule);
    result.makespan = makespan;
    result.lower_bound = lower_bound;
    result.optimality_gap = optimality_gap;
    result.proven_optimal = proven_optimal;
    result.schedule_feasible = schedule_feasible;
    result.cancelled = cancelled;
    result.moved_jobs = moved_jobs;
    result.migration_ratio = migration_ratio;
    result.wall_seconds = wall_seconds;
    result.error = error;
    result.stats = unpack_telemetry(*keys, values);
    return result;
  }

  std::size_t bytes = 0;  ///< charged footprint, see the constructor
  const TelemetryKeys* keys;
  std::string values;  ///< pack_values(stats)
  std::string solver;
  std::string error;
  double makespan;
  double lower_bound;
  double optimality_gap;
  double migration_ratio;
  double wall_seconds;
  int moved_jobs;
  api::SolveStatus status;
  bool proven_optimal;
  bool schedule_feasible;
  bool cancelled;
};

std::size_t SolveCache::slot_bytes(const CacheKey& key,
                                   const model::Schedule& schedule) {
  // The unordered_map node (the next pointer and cached hash around the
  // key/entry pair), its share of the bucket array (at most two buckets
  // per element: load factor 1, capacity doubling), the heap of the key's
  // solver name, and the packed schedule.
  return sizeof(Slot) + 2 * sizeof(void*) + kAllocationOverhead +
         2 * sizeof(void*) + heap_bytes(key.solver) +
         packed_schedule_bytes(schedule) + kAllocationOverhead;
}

SolveCache::SolveCache(CacheConfig config) : config_(config) {
  std::size_t shards = std::bit_ceil(std::max<std::size_t>(
      1, config_.num_shards));
  config_.num_shards = shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = std::max<std::size_t>(1, config_.byte_budget / shards);
}

SolveCache::Shard& SolveCache::shard_for(const CacheKey& key) {
  // The fingerprint is already well-mixed; stripe on its low bits.
  return *shards_[static_cast<std::size_t>(key.fingerprint.lo) &
                  (shards_.size() - 1)];
}

void SolveCache::Shard::unlink(Slot& slot) {
  Entry& entry = slot.second;
  (entry.newer ? entry.newer->second.older : newest) = entry.older;
  (entry.older ? entry.older->second.newer : oldest) = entry.newer;
  entry.newer = entry.older = nullptr;
}

void SolveCache::Shard::push_newest(Slot& slot) {
  slot.second.older = newest;
  (newest ? newest->second.newer : oldest) = &slot;
  newest = &slot;
}

const SolveCache::TelemetryKeys* SolveCache::intern_keys(
    const api::Telemetry& stats) {
  const auto same_keys = [&stats](const TelemetryKeys& keys) {
    return keys.size() == stats.size() &&
           std::equal(keys.begin(), keys.end(), stats.begin(),
                      [](const std::string& key, const auto& stat) {
                        return key == stat.first;
                      });
  };
  std::lock_guard<std::mutex> lock(keys_mutex_);
  for (const auto& keys : telemetry_keys_) {
    if (same_keys(*keys)) return keys.get();
  }
  auto keys = std::make_unique<TelemetryKeys>();
  keys->reserve(stats.size());
  for (const auto& stat : stats) keys->push_back(stat.first);
  telemetry_keys_.push_back(std::move(keys));
  return telemetry_keys_.back().get();
}

std::optional<api::SolveResult> SolveCache::lookup(const CacheKey& key) {
  Payload payload;
  model::Schedule schedule;
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    shard.unlink(*it);
    shard.push_newest(*it);
    payload = it->second.payload;
    schedule = unpack_schedule(it->second.schedule.get());
  }
  // The payload is immutable: unpack outside the shard lock.
  return payload->unpack(std::move(schedule));
}

SolveCache::Payload SolveCache::insert(const CacheKey& key,
                                       api::SolveResult result) {
  const std::size_t slot = slot_bytes(key, result.schedule);
  auto schedule = pack_schedule(result.schedule);
  const TelemetryKeys* keys = intern_keys(result.stats);
  Payload payload =
      std::make_shared<const StoredResult>(std::move(result), keys);
  // Injected memory pressure: the insert is silently dropped, as if the
  // entry were immediately evicted. Correctness never depends on an insert
  // landing — lookups just miss and the solve re-runs.
  if (BAGSCHED_FAULT("cache.insert")) return payload;
  store(key, payload, std::move(schedule), slot + payload->bytes);
  return payload;
}

void SolveCache::insert_alias(const CacheKey& key, const Payload& payload,
                              model::Schedule schedule) {
  if (BAGSCHED_FAULT("cache.insert")) return;
  // Held only by the caller: no entry pays for the shared part yet.
  const std::size_t shared = payload.use_count() <= 1 ? payload->bytes : 0;
  const std::size_t bytes = slot_bytes(key, schedule) + shared;
  store(key, payload, pack_schedule(schedule), bytes);
}

void SolveCache::store(const CacheKey& key, const Payload& payload,
                       std::unique_ptr<std::uint8_t[]> schedule,
                       std::size_t bytes) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (bytes > shard_budget_) {
    ++shard.stats.oversized;
    return;
  }
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    shard.stats.bytes -= it->second.bytes;
    shard.unlink(*it);
    shard.index.erase(it);
  }
  while (shard.stats.bytes + bytes > shard_budget_ &&
         shard.oldest != nullptr) {
    Slot& victim = *shard.oldest;
    shard.stats.bytes -= victim.second.bytes;
    shard.unlink(victim);
    shard.index.erase(shard.index.find(victim.first));
    ++shard.stats.evictions;
  }
  const auto it =
      shard.index.try_emplace(key, Entry{payload, std::move(schedule), bytes})
          .first;
  shard.push_newest(*it);
  shard.stats.bytes += bytes;
  ++shard.stats.insertions;
}

CacheStats SolveCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    const CacheStats& part = shard->stats;
    total.hits += part.hits;
    total.misses += part.misses;
    total.insertions += part.insertions;
    total.evictions += part.evictions;
    total.oversized += part.oversized;
    total.entries += shard->index.size();
    total.bytes += part.bytes;
  }
  return total;
}

void SolveCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->index.clear();
    shard->newest = shard->oldest = nullptr;
    shard->stats.bytes = 0;
  }
}

}  // namespace bagsched::cache
