#include "cache/solve_cache.h"

#include <bit>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "api/options_digest.h"
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

std::uint64_t options_digest(const api::SolveOptions& options) {
  return api::options_digest(options);
}

namespace {

std::size_t schedule_heap_bytes(const model::Schedule& schedule) {
  return schedule.assignment().capacity() * sizeof(model::MachineId);
}

static_assert(std::is_same_v<api::TelemetryValue,
                             std::variant<long long, double, bool,
                                          std::string>>,
              "pack_telemetry/unpack_telemetry mirror this alternative order");

/// Telemetry flattened into one buffer. A std::map spends a node
/// allocation per key — several times the data — and a cached result is
/// only ever read whole. Per key: u32 key length, key bytes, u8 variant
/// index, then the value (u32 length + bytes for strings).
std::string pack_telemetry(const api::Telemetry& stats) {
  std::string out;
  const auto put = [&out](const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  };
  const auto put_text = [&put](const std::string& text) {
    const auto size = static_cast<std::uint32_t>(text.size());
    put(&size, sizeof size);
    put(text.data(), text.size());
  };
  for (const auto& [key, value] : stats) {
    put_text(key);
    const auto index = static_cast<std::uint8_t>(value.index());
    put(&index, sizeof index);
    std::visit(
        [&](const auto& v) {
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                       std::string>) {
            put_text(v);
          } else {
            put(&v, sizeof v);
          }
        },
        value);
  }
  out.shrink_to_fit();
  return out;
}

api::Telemetry unpack_telemetry(std::string_view packed) {
  api::Telemetry stats;
  std::size_t at = 0;
  const auto take = [&](void* data, std::size_t size) {
    std::memcpy(data, packed.data() + at, size);
    at += size;
  };
  const auto take_text = [&] {
    std::uint32_t size = 0;
    take(&size, sizeof size);
    std::string text(packed.substr(at, size));
    at += size;
    return text;
  };
  const auto take_value = [&](auto value) {
    take(&value, sizeof value);
    return api::TelemetryValue(value);
  };
  while (at < packed.size()) {
    std::string key = take_text();
    std::uint8_t index = 0;
    take(&index, sizeof index);
    api::TelemetryValue value;
    switch (index) {
      case 0: value = take_value(0LL); break;
      case 1: value = take_value(0.0); break;
      case 2: value = take_value(false); break;
      default: value = take_text(); break;
    }
    stats.emplace_hint(stats.end(), std::move(key), std::move(value));
  }
  return stats;
}

}  // namespace

/// The shared payload: the result with its telemetry packed.
struct SolveCache::StoredResult {
  api::SolveResult head;  ///< every field but `stats`
  std::string telemetry;  ///< pack_telemetry(stats)
  std::size_t bytes = 0;  ///< approx_result_bytes of the unpacked result
};

std::size_t approx_result_bytes(const api::SolveResult& result) {
  std::size_t bytes = sizeof(api::SolveResult);
  bytes += schedule_heap_bytes(result.schedule);
  bytes += result.solver.capacity() + result.error.capacity();
  for (const auto& [key, value] : result.stats) {
    bytes += sizeof(value) + key.capacity() + 48;  // node overhead
    if (const auto* text = std::get_if<std::string>(&value)) {
      bytes += text->capacity();
    }
  }
  return bytes;
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

std::optional<api::SolveResult> SolveCache::lookup(const CacheKey& key) {
  Payload payload;
  std::optional<model::Schedule> schedule;
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    payload = it->second->payload;
    schedule = it->second->schedule;
  }
  // The payload is immutable: unpack outside the shard lock.
  api::SolveResult result = payload->head;
  result.stats = unpack_telemetry(payload->telemetry);
  if (schedule) result.schedule = std::move(*schedule);
  return result;
}

SolveCache::Payload SolveCache::insert(const CacheKey& key,
                                       api::SolveResult result) {
  auto stored = std::make_shared<StoredResult>();
  stored->bytes = approx_result_bytes(result);
  stored->telemetry = pack_telemetry(result.stats);
  result.stats.clear();
  stored->head = std::move(result);
  Payload payload = std::move(stored);
  // Injected memory pressure: the insert is silently dropped, as if the
  // entry were immediately evicted. Correctness never depends on an insert
  // landing — lookups just miss and the solve re-runs.
  if (BAGSCHED_FAULT("cache.insert")) return payload;
  store(key, Entry{key, payload, std::nullopt, payload->bytes});
  return payload;
}

void SolveCache::insert_alias(const CacheKey& key, const Payload& payload,
                              model::Schedule schedule) {
  if (BAGSCHED_FAULT("cache.insert")) return;
  // Held only by the caller: no entry pays for the shared part yet.
  const std::size_t shared = payload.use_count() <= 1 ? payload->bytes : 0;
  const std::size_t bytes =
      shared + sizeof(model::Schedule) + schedule_heap_bytes(schedule);
  store(key, Entry{key, payload, std::move(schedule), bytes});
}

void SolveCache::store(const CacheKey& key, Entry entry) {
  const std::size_t bytes = entry.bytes;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (bytes > shard_budget_) {
    ++shard.oversized;
    return;
  }
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;
}

CacheStats SolveCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.oversized += shard->oversized;
    total.entries += shard->index.size();
    total.bytes += shard->bytes;
  }
  return total;
}

void SolveCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace bagsched::cache
