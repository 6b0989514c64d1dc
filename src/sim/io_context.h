// Per-machine simulated storage stack: one disk + one shared page cache.
//
// Every index structure on a machine allocates a `PageStore` handle from
// the machine's IoContext and performs page-granular accesses through it;
// the IoContext consults the shared LRU cache and charges disk cost on
// misses.  Thread-safe: bench drivers hit one IoContext from many threads.
//
// Write-back allocation: the IoContext keeps each store's extent, the
// number of its pages that exist on disk.  A Read, Write or ReadPages
// touch of a page at or past the extent *allocates* it: the page is new,
// so nothing is read; it enters the cache at `cache_hit_us` and extends
// the extent.  Pages below the extent are charged as cache hits or disk
// reads.  SequentialLoad extends the extent to the pages it loads, and
// Rewrite sets it to the new image's size.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_set>
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

// The pages one exclusive operation has already charged.  A group commit
// holds its group's lock exclusively, so no other operation touches the
// group's stores while it runs and the pages it has touched stay in its
// hands: only the first touch of each page in the scope goes through the
// cache and the allocation rule; later touches are free.  Owned by one
// thread; not thread-safe.
class PinScope {
 public:
  // Distinct pages charged in this scope.
  uint64_t pages() const { return pinned_.size(); }
  // Of those, the pages that were allocated rather than read.
  uint64_t allocated() const { return allocated_; }

 private:
  friend class IoContext;
  // True the first time `id` is seen in this scope.
  bool Pin(PageId id) { return pinned_.insert(id).second; }

  std::unordered_set<PageId, PageIdHash> pinned_;
  uint64_t allocated_ = 0;
};

// Handle for one on-disk object (an index file, a WAL, a serialized ACG).
// Copyable value type; identity is the store id.
class PageStore {
 public:
  PageStore() = default;
  PageStore(IoContext* ctx, uint64_t id) : ctx_(ctx), id_(id) {}

  bool valid() const { return ctx_ != nullptr; }
  uint64_t id() const { return id_; }

  // Random page read/write through the cache.  A non-null `scope`
  // charges each page once per scope (see PinScope).
  Cost Read(uint64_t page, PinScope* scope = nullptr) const;
  Cost Write(uint64_t page, PinScope* scope = nullptr) const;
  // Batched read of `pages` (ascending, no duplicates); see
  // IoContext::ReadPages.
  Cost ReadPages(const std::vector<uint64_t>& pages) const;
  // Sequential scan of pages [0, pages); admits them all into the cache.
  Cost SequentialLoad(uint64_t pages, PinScope* scope = nullptr) const;
  // Replaces the store's on-disk image: drops its cached pages, charges a
  // sequential pass over `io_pages` pages (reading the old image, writing
  // the new one) and leaves an image of `image_pages` pages.
  Cost Rewrite(uint64_t io_pages, uint64_t image_pages,
               PinScope* scope = nullptr) const;
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

  // `existing_pages` declares data that is on disk before the simulation
  // starts (read, never written through this model).
  PageStore CreateStore(uint64_t existing_pages = 0) {
    const uint64_t id = next_store_id_.fetch_add(1);
    if (existing_pages > 0) {
      MutexLock lock(mu_);
      ExtentLocked(id) = existing_pages;
    }
    return PageStore(this, id);
  }

  const DiskModel& disk() const { return disk_; }
  const IoParams& params() const { return params_; }

  Cost TouchPage(PageId id, PinScope* scope = nullptr) {
    if (scope != nullptr && !scope->Pin(id)) return Cost::Zero();
    MutexLock lock(mu_);
    switch (AccessLocked(id)) {
      case Access::kHit:
        break;
      case Access::kAllocated:
        if (scope != nullptr) ++scope->allocated_;
        break;
      case Access::kMiss:
        return disk_.RandomPageAccess();
    }
    return HitCost(1);
  }

  // Batched read of `pages` of one store (ascending, no duplicates).  Each
  // page goes through the LRU exactly as TouchPage would, in the given
  // order; a cached or allocated page costs `cache_hit_us`.  The cold ones
  // are read in ascending sweeps: the next cold page joins the current
  // sweep while transferring the gap is cheaper than repositioning the
  // head, and each sweep costs SequentialPages(last - first + 1).  Gap
  // pages pass under the head but are not admitted to the cache.  A lone
  // cold page costs exactly RandomPageAccess(), so the batch never costs
  // more than the same pages touched one by one.
  Cost ReadPages(uint64_t store, const std::vector<uint64_t>& pages) {
    MutexLock lock(mu_);
    uint64_t hits = 0;
    Cost sweeps;
    bool open = false;
    uint64_t first = 0;
    uint64_t last = 0;
    for (uint64_t p : pages) {
      assert(!open || p > last);
      if (AccessLocked(PageId{store, p}) != Access::kMiss) {
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
    return HitCost(hits) + sweeps;
  }

  Cost SequentialLoad(uint64_t store, uint64_t pages,
                      PinScope* scope = nullptr) {
    MutexLock lock(mu_);
    return SequentialLoadLocked(store, pages, scope);
  }

  Cost Rewrite(uint64_t store, uint64_t io_pages, uint64_t image_pages,
               PinScope* scope = nullptr) {
    MutexLock lock(mu_);
    cache_.InvalidateStore(store);
    // Every page is cold now, so the pass is charged in full even where
    // the scope had already pinned a page of the old image.
    Cost c = SequentialLoadLocked(store, io_pages, nullptr);
    if (scope != nullptr) {
      for (uint64_t p = 0; p < io_pages; ++p) scope->Pin(PageId{store, p});
    }
    ExtentLocked(store) = image_pages;
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
  enum class Access { kHit, kMiss, kAllocated };

  Cost HitCost(uint64_t pages) const {
    return Cost(params_.cache_hit_us / 1e6 * static_cast<double>(pages));
  }

  uint64_t& ExtentLocked(uint64_t store) REQUIRES(mu_) {
    if (store >= extents_.size()) extents_.resize(store + 1, 0);
    return extents_[store];
  }

  // One page touch through the cache and the allocation rule.
  Access AccessLocked(PageId id) REQUIRES(mu_) {
    uint64_t& extent = ExtentLocked(id.store);
    const bool fresh = id.page >= extent;
    if (fresh) extent = id.page + 1;
    if (cache_.Touch(id, fresh)) return Access::kHit;
    return fresh ? Access::kAllocated : Access::kMiss;
  }

  Cost SequentialLoadLocked(uint64_t store, uint64_t pages, PinScope* scope)
      REQUIRES(mu_) {
    // Count cold pages first so a fully warm scan is RAM-speed.
    uint64_t charged = 0;
    uint64_t cold = 0;
    for (uint64_t p = 0; p < pages; ++p) {
      const PageId id{store, p};
      if (scope != nullptr && !scope->Pin(id)) continue;
      ++charged;
      if (!cache_.Touch(id)) ++cold;
    }
    uint64_t& extent = ExtentLocked(store);
    extent = std::max(extent, pages);
    Cost c = HitCost(charged - cold);
    if (cold > 0) c += disk_.SequentialPages(cold);
    return c;
  }

  IoParams params_;
  DiskModel disk_;
  mutable Mutex mu_{LockRank::kIoContext, "IoContext::mu_"};
  PageCache cache_ GUARDED_BY(mu_);
  // Pages on disk per store id (ids are dense from 1).
  std::vector<uint64_t> extents_ GUARDED_BY(mu_);
  std::atomic<uint64_t> next_store_id_{1};
};

inline Cost PageStore::Read(uint64_t page, PinScope* scope) const {
  return ctx_->TouchPage(PageId{id_, page}, scope);
}
inline Cost PageStore::Write(uint64_t page, PinScope* scope) const {
  return ctx_->TouchPage(PageId{id_, page}, scope);
}
inline Cost PageStore::ReadPages(const std::vector<uint64_t>& pages) const {
  return ctx_->ReadPages(id_, pages);
}
inline Cost PageStore::SequentialLoad(uint64_t pages, PinScope* scope) const {
  return ctx_->SequentialLoad(id_, pages, scope);
}
inline Cost PageStore::Rewrite(uint64_t io_pages, uint64_t image_pages,
                               PinScope* scope) const {
  return ctx_->Rewrite(id_, io_pages, image_pages, scope);
}
inline Cost PageStore::Append(uint64_t bytes) const { return ctx_->Append(bytes); }
inline void PageStore::Invalidate() const { ctx_->InvalidateStore(id_); }

}  // namespace propeller::sim
