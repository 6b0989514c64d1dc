// Per-machine simulated storage stack: one disk + one shared page cache.
//
// Every index structure on a machine allocates a `PageStore` handle from
// the machine's IoContext and performs page-granular accesses through it;
// the IoContext consults the shared LRU cache and charges disk cost on
// misses.  Thread-safe: bench drivers hit one IoContext from many threads.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "sim/cost.h"
#include "sim/disk_model.h"
#include "sim/page_cache.h"

namespace propeller::sim {

struct IoParams {
  DiskParams disk;
  // Default models ~256 MiB of page cache (4 KiB pages).  Benches override
  // this to reproduce the paper's per-node memory effects.
  uint64_t cache_pages = 64 * 1024;
  // Cost of serving a page from RAM (cache hit): memory latency plus the
  // CPU work of walking the in-page structure.
  double cache_hit_us = 2.0;
};

class IoContext;

// Handle for one on-disk object (an index file, a WAL, a serialized ACG).
// Copyable value type; identity is the store id.
class PageStore {
 public:
  PageStore() = default;
  PageStore(IoContext* ctx, uint64_t id) : ctx_(ctx), id_(id) {}

  bool valid() const { return ctx_ != nullptr; }
  uint64_t id() const { return id_; }

  // Random page read/write through the cache.
  Cost Read(uint64_t page) const;
  Cost Write(uint64_t page) const;
  // Batched read of `pages` (ascending, no duplicates); see
  // IoContext::ReadPages.
  Cost ReadPages(const std::vector<uint64_t>& pages) const;
  // Sequential scan of pages [0, pages); admits them all into the cache.
  Cost SequentialLoad(uint64_t pages) const;
  // Log append (no seek), not cached.
  Cost Append(uint64_t bytes) const;
  // Removes this store's pages from the cache (deletion / migration away).
  void Invalidate() const;

 private:
  IoContext* ctx_ = nullptr;
  uint64_t id_ = 0;
};

class IoContext {
 public:
  explicit IoContext(IoParams params = {})
      : params_(params), disk_(params.disk), cache_(params.cache_pages) {}

  PageStore CreateStore() { return PageStore(this, next_store_id_.fetch_add(1)); }

  const DiskModel& disk() const { return disk_; }
  const IoParams& params() const { return params_; }

  Cost TouchPage(PageId id) {
    MutexLock lock(mu_);
    if (cache_.Touch(id)) return Cost(params_.cache_hit_us / 1e6);
    return disk_.RandomPageAccess();
  }

  // Batched read of `pages` of one store (ascending, no duplicates).  Each
  // page goes through the LRU exactly as TouchPage would, in the given
  // order; a cached page costs `cache_hit_us`.  The cold ones are read in
  // ascending sweeps: the next cold page joins the current sweep while
  // transferring the gap is cheaper than repositioning the head, and each
  // sweep costs SequentialPages(last - first + 1).  Gap pages pass under
  // the head but are not admitted to the cache.  A lone cold page costs
  // exactly RandomPageAccess(), so the batch never costs more than the
  // same pages touched one by one.
  Cost ReadPages(uint64_t store, const std::vector<uint64_t>& pages) {
    MutexLock lock(mu_);
    uint64_t hits = 0;
    Cost sweeps;
    bool open = false;
    uint64_t first = 0;
    uint64_t last = 0;
    for (uint64_t p : pages) {
      assert(!open || p > last);
      if (cache_.Touch(PageId{store, p})) {
        ++hits;
        continue;
      }
      if (open && disk_.SweepAbsorbsGap(p - last - 1)) {
        last = p;
        continue;
      }
      if (open) sweeps += disk_.SequentialPages(last - first + 1);
      open = true;
      first = last = p;
    }
    if (open) sweeps += disk_.SequentialPages(last - first + 1);
    Cost hit_cost(params_.cache_hit_us / 1e6 * static_cast<double>(hits));
    return hit_cost + sweeps;
  }

  Cost SequentialLoad(uint64_t store, uint64_t pages) {
    MutexLock lock(mu_);
    // Count cold pages first so a fully warm scan is RAM-speed.
    uint64_t cold = 0;
    for (uint64_t p = 0; p < pages; ++p) {
      if (!cache_.Touch(PageId{store, p})) ++cold;
    }
    Cost c = Cost(params_.cache_hit_us / 1e6 * static_cast<double>(pages - cold));
    if (cold > 0) c += disk_.SequentialPages(cold);
    return c;
  }

  Cost Append(uint64_t bytes) { return disk_.AppendBytes(bytes); }

  void InvalidateStore(uint64_t store) {
    MutexLock lock(mu_);
    cache_.InvalidateStore(store);
  }

  // Drops the whole cache: models rebooting / drop_caches before cold runs.
  void DropCaches() {
    MutexLock lock(mu_);
    cache_.Clear();
  }

  PageCacheStats CacheStats() const {
    MutexLock lock(mu_);
    return cache_.stats();
  }
  uint64_t CachedPages() const {
    MutexLock lock(mu_);
    return cache_.size();
  }
  bool IsCached(PageId id) const {
    MutexLock lock(mu_);
    return cache_.Contains(id);
  }

 private:
  IoParams params_;
  DiskModel disk_;
  mutable Mutex mu_{LockRank::kIoContext, "IoContext::mu_"};
  PageCache cache_ GUARDED_BY(mu_);
  std::atomic<uint64_t> next_store_id_{1};
};

inline Cost PageStore::Read(uint64_t page) const {
  return ctx_->TouchPage(PageId{id_, page});
}
inline Cost PageStore::Write(uint64_t page) const {
  return ctx_->TouchPage(PageId{id_, page});
}
inline Cost PageStore::ReadPages(const std::vector<uint64_t>& pages) const {
  return ctx_->ReadPages(id_, pages);
}
inline Cost PageStore::SequentialLoad(uint64_t pages) const {
  return ctx_->SequentialLoad(id_, pages);
}
inline Cost PageStore::Append(uint64_t bytes) const { return ctx_->Append(bytes); }
inline void PageStore::Invalidate() const { ctx_->InvalidateStore(id_); }

}  // namespace propeller::sim
