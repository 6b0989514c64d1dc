// LRU page cache shared by all stores on one simulated machine.
//
// The cache is the mechanism behind several of the paper's results: the
// cold/warm search gap (Table IV/V), the super-linear cluster scaling once
// per-node index shares fit in RAM (Section V-C), and the partition-size
// sensitivity (Fig. 2).  Pages are identified by (store id, page number).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

namespace propeller::sim {

struct PageId {
  uint64_t store = 0;
  uint64_t page = 0;

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.store == b.store && a.page == b.page;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    uint64_t x = id.store * 0x9e3779b97f4a7c15ULL ^ id.page;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // Admissions of pages that did not exist on disk yet (see
  // IoContext's allocation rule): they read nothing, so they are neither
  // hits nor misses.
  uint64_t allocations = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PageCache {
 public:
  // capacity_pages == 0 disables caching (every access misses).
  explicit PageCache(uint64_t capacity_pages) : capacity_(capacity_pages) {}

  // Touches a page; returns true on hit.  Otherwise the page is admitted
  // (the LRU victim evicted if the cache is full) and counted as a miss,
  // or as an allocation when `allocate` says the page is new.
  bool Touch(PageId id, bool allocate = false) {
    if (capacity_ == 0) {
      ++(allocate ? stats_.allocations : stats_.misses);
      return false;
    }
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return true;
    }
    ++(allocate ? stats_.allocations : stats_.misses);
    if (lru_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(id);
    map_[id] = lru_.begin();
    return false;
  }

  // Drops every cached page belonging to `store` (e.g. the store was
  // deleted or migrated off this machine).
  void InvalidateStore(uint64_t store) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->store == store) {
        map_.erase(*it);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Drops everything (models `echo 3 > drop_caches` before cold runs).
  void Clear() {
    lru_.clear();
    map_.clear();
  }

  // Residency probe: no LRU movement, no stats.
  bool Contains(PageId id) const { return map_.count(id) != 0u; }

  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return lru_.size(); }
  const PageCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  uint64_t capacity_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator, PageIdHash> map_;
  PageCacheStats stats_;
};

}  // namespace propeller::sim
