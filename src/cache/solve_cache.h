// Sharded, thread-safe LRU cache of SolveResults keyed by canonical
// instance fingerprints.
//
// The key is (fingerprint, solver selection, options digest, rounded?):
// two requests share an entry only when their instances collide under the
// Canonicalizer AND they ask the same solver(s) with the same
// result-relevant options (eps, budgets, seed — see api::options_digest). The
// stored result keeps its schedule in *canonical job order*; callers remap
// it into their own instance's order on the way in and out
// (cache::remap_schedule), which is what makes one entry serve every
// permuted/relabeled twin.
//
// Concurrency: keys hash onto N mutex-striped shards (N rounded up to a
// power of two), each shard an LRU list with its own byte budget
// (byte_budget / N). Eviction is by entry footprint, so a flood of large
// instances cannot grow the cache beyond its budget.
// Hit/miss/insert/evict counters are per-shard and aggregated by stats().
//
// One fresh solve is stored under two keys (exact and eps-rounded) whose
// results differ only in the canonical-order schedule. The second key is
// an alias: it shares the first key's immutable payload and keeps only
// its own schedule, so the budget charges the shared part once.
//
// Entries are compact, and the budget charges the heap they hold in that
// packed form, allocator overhead included. Each key is stored once, in its index element, which also
// carries the shard's LRU links. Telemetry key names are interned per
// cache: a payload keeps a pointer to its interned key list plus the
// packed tags and values. Each entry keeps its schedule packed at 1, 2 or
// 4 bytes per job, the narrowest width that holds its machine ids.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "cache/canonicalize.h"

namespace bagsched::cache {

struct CacheKey {
  Fingerprint fingerprint;
  /// Solver selection: a registry name, or a portfolio signature.
  std::string solver;
  /// Digest of the result-relevant SolveOptions (api/options_digest.h).
  std::uint64_t options = 0;
  /// True when fingerprint came from Canonicalizer::rounded.
  bool rounded = false;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.fingerprint == b.fingerprint && a.options == b.options &&
           a.rounded == b.rounded && a.solver == b.solver;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

struct CacheConfig {
  /// Mutex-striped shards; rounded up to a power of two, min 1.
  std::size_t num_shards = 8;
  /// Total byte budget across shards (heap the packed entries hold).
  std::size_t byte_budget = 64 * 1024 * 1024;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;   ///< entries evicted to fit the budget
  std::uint64_t oversized = 0;   ///< inserts skipped: entry alone > budget
  std::size_t entries = 0;
  std::size_t bytes = 0;         ///< charged footprint of the entries
};

class SolveCache {
 public:
  struct StoredResult;
  /// A stored canonical-order result, shared by every key filed under it.
  using Payload = std::shared_ptr<const StoredResult>;

  explicit SolveCache(CacheConfig config = {});

  /// The stored canonical-order result, or nullopt. A hit refreshes the
  /// entry's LRU position.
  std::optional<api::SolveResult> lookup(const CacheKey& key);

  /// Inserts (or replaces) the canonical-order result under `key`,
  /// evicting least-recently-used entries until the shard fits its budget.
  /// Entries larger than a whole shard budget are skipped (and counted).
  /// Returns the payload for insert_alias — also when the insert itself
  /// was skipped.
  Payload insert(const CacheKey& key, api::SolveResult result);

  /// Files `payload` under a second key whose canonical order differs:
  /// lookups return the payload with `schedule` in its place. The entry is
  /// charged its own schedule, plus the shared part when no other entry
  /// holds the payload (the first insert was dropped or skipped). Counted,
  /// budgeted, evicted and fault-injected like insert().
  void insert_alias(const CacheKey& key, const Payload& payload,
                    model::Schedule schedule);

  /// Aggregated over all shards; counters are monotone, entries/bytes are
  /// a live snapshot.
  CacheStats stats() const;

  void clear();

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t byte_budget() const { return config_.byte_budget; }

 private:
  struct Entry;
  /// An index element: the key, stored once, and its entry.
  using Slot = std::pair<const CacheKey, Entry>;
  struct Entry {
    Payload payload;
    /// This key's canonical-order schedule (see pack_schedule).
    std::unique_ptr<std::uint8_t[]> schedule;
    std::size_t bytes = 0;
    Slot* newer = nullptr;  ///< LRU neighbours within the shard
    Slot* older = nullptr;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> index;
    Slot* newest = nullptr;  ///< most recently used
    Slot* oldest = nullptr;  ///< next eviction victim
    /// Counters and the bytes gauge; entries stays zero (stats() reads
    /// index.size()).
    CacheStats stats;

    void unlink(Slot& slot);
    void push_newest(Slot& slot);
  };
  using TelemetryKeys = std::vector<std::string>;

  Shard& shard_for(const CacheKey& key);
  /// Bytes an entry under `key` holding `schedule` is charged beyond the
  /// shared payload.
  static std::size_t slot_bytes(const CacheKey& key,
                                const model::Schedule& schedule);
  void store(const CacheKey& key, const Payload& payload,
             std::unique_ptr<std::uint8_t[]> schedule, std::size_t bytes);
  /// The interned key list of `stats` (keys in map order).
  const TelemetryKeys* intern_keys(const api::Telemetry& stats);

  CacheConfig config_;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// One key list per distinct telemetry layout the solvers produce (a
  /// handful), kept for the cache's lifetime: payloads point into it.
  std::mutex keys_mutex_;
  std::vector<std::unique_ptr<const TelemetryKeys>> telemetry_keys_;
};

}  // namespace bagsched::cache
