#pragma once

/// \file cache.hpp
/// The solved-front memo cache: a sharded, LRU-bounded map from canonical
/// request keys to solved `FrontReport`s.
///
/// Keys are (FNV-1a hash, full key bytes) pairs: lookups go hash-first and
/// resolve collisions by full byte equality, so a hash collision can never
/// return the wrong front. Entries are handed out as shared_ptr-to-const —
/// a hit never copies the front and eviction cannot invalidate a reply that
/// is still being denormalized.
///
/// Sharding: the key space is split over `shards` independently locked
/// LRU lists selected by the top hash bits, so concurrent broker batches
/// contend per shard, not globally. Each shard holds capacity/shards
/// entries; hit/miss/eviction counters aggregate across shards.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relap/algorithms/solve.hpp"

namespace relap::service {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class FrontCache {
 public:
  struct Options {
    /// Total entry bound across all shards (LRU-evicted per shard).
    std::size_t capacity = 4096;
    /// Number of independently locked shards; rounded up to a power of two.
    std::size_t shards = 16;
  };

  FrontCache() : FrontCache(Options{}) {}
  explicit FrontCache(Options options);

  FrontCache(const FrontCache&) = delete;
  FrontCache& operator=(const FrontCache&) = delete;

  /// Looks up `key` (pre-hashed as `hash`); bumps the entry to
  /// most-recently-used and counts a hit, or returns null and counts a miss
  /// unless `count_miss` is false (a probe the caller repeats on its miss
  /// path, so each request counts one hit or one miss).
  [[nodiscard]] std::shared_ptr<const algorithms::FrontReport> find(std::uint64_t hash,
                                                                    std::string_view key,
                                                                    bool count_miss = true);

  /// Inserts a solved front, evicting the shard's least-recently-used entry
  /// beyond capacity. Re-inserting an existing key refreshes recency and
  /// keeps the first value (both solves are bit-identical by contract).
  void insert(std::uint64_t hash, std::string key,
              std::shared_ptr<const algorithms::FrontReport> value);

  [[nodiscard]] CacheStats stats() const;

  /// Drops every entry (counters retained — they describe traffic, not
  /// contents).
  void clear();

  /// A copied-out cache entry, the unit the snapshot codec
  /// (service/snapshot.hpp) serializes. Copies are shallow: `value` shares
  /// ownership of the cached front.
  struct ExportedEntry {
    std::uint64_t hash = 0;
    std::string key;
    std::shared_ptr<const algorithms::FrontReport> value;
  };

  /// Every live entry, in a deterministic order for a given cache state:
  /// shards in index order, within a shard least- to most-recently-used —
  /// so `insert`ing the result back in order reproduces contents *and*
  /// per-shard recency, which is what makes snapshot round-trips exact
  /// even under later eviction pressure.
  [[nodiscard]] std::vector<ExportedEntry> export_entries() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string key;
    std::shared_ptr<const algorithms::FrontReport> value;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(std::uint64_t hash) {
    return *shards_[(hash >> shard_shift_) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_;
  int shard_shift_;
};

}  // namespace relap::service
