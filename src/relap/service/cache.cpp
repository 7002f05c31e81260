#include "relap/service/cache.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace relap::service {

FrontCache::FrontCache(Options options) {
  const std::size_t shard_count = std::bit_ceil(std::max<std::size_t>(1, options.shards));
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) shards_.push_back(std::make_unique<Shard>());
  per_shard_capacity_ =
      std::max<std::size_t>(1, (std::max<std::size_t>(1, options.capacity) + shard_count - 1) /
                                   shard_count);
  // Select shards by the top hash bits: FNV-1a mixes high bits well, and the
  // low bits keep feeding the per-shard unordered index. (Clamped to 63 for
  // the single-shard case, where the mask already pins the index to 0.)
  shard_shift_ = std::min(63, 64 - std::countr_zero(shard_count));
}

std::shared_ptr<const algorithms::FrontReport> FrontCache::find(std::uint64_t hash,
                                                                std::string_view key,
                                                                bool count_miss) {
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [first, last] = shard.index.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second->key == key) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      return it->second->value;
    }
  }
  if (count_miss) ++shard.misses;
  return nullptr;
}

void FrontCache::insert(std::uint64_t hash, std::string key,
                        std::shared_ptr<const algorithms::FrontReport> value) {
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [first, last] = shard.index.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second->key == key) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
  }
  shard.lru.push_front(Entry{hash, std::move(key), std::move(value)});
  shard.index.emplace(hash, shard.lru.begin());
  while (shard.lru.size() > per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    auto [vfirst, vlast] = shard.index.equal_range(victim.hash);
    for (auto it = vfirst; it != vlast; ++it) {
      if (it->second == std::prev(shard.lru.end())) {
        shard.index.erase(it);
        break;
      }
    }
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

CacheStats FrontCache::stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.entries += shard->lru.size();
  }
  return stats;
}

std::vector<FrontCache::ExportedEntry> FrontCache::export_entries() const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      out.push_back(ExportedEntry{it->hash, it->key, it->value});
    }
  }
  return out;
}

void FrontCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace relap::service
