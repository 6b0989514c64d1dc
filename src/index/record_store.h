// Per-group record store: FileId -> AttrSet.
//
// Serves two purposes: (a) verifying residual predicate terms against
// candidates an index returned, and (b) supplying a file's previous
// attribute values so index updates can remove stale postings.  Modelled
// as a paged heap file addressed by FileId hash.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/attr.h"
#include "sim/io_context.h"

namespace propeller::index {

class RecordStore {
 public:
  explicit RecordStore(sim::PageStore store);

  struct GetResult {
    std::optional<AttrSet> attrs;
    sim::Cost cost;
  };
  // One record, one random page touch.  Searches verify through GetMany.
  GetResult Get(FileId file) const;

  // Batched verification read: maps `files` to their distinct heap pages,
  // reads those in one page-sorted ReadPages batch, then calls
  // `fn(FileId, const AttrSet*)` for each file in the given order (nullptr
  // when the file has no record).  No AttrSet is copied.
  struct GetManyResult {
    sim::Cost cost;
    uint64_t pages = 0;  // distinct pages read
  };
  template <typename Fn>
  GetManyResult GetMany(const std::vector<FileId>& files, Fn&& fn) const {
    std::vector<uint64_t> pages;
    pages.reserve(files.size());
    for (FileId f : files) pages.push_back(PageOf(f));
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    GetManyResult out{store_.ReadPages(pages), pages.size()};
    for (FileId f : files) {
      auto it = records_.find(f);
      fn(f, it == records_.end() ? nullptr : &it->second);
    }
    return out;
  }

  // Inserts or replaces; returns the previous attrs (if any) so the caller
  // can retire stale index postings, plus the cost.  A non-null `scope`
  // charges each page once per scope (sim::PinScope), for Erase too.
  struct PutResult {
    std::optional<AttrSet> previous;
    sim::Cost cost;
  };
  PutResult Put(FileId file, AttrSet attrs, sim::PinScope* scope = nullptr);

  struct EraseResult {
    std::optional<AttrSet> previous;
    sim::Cost cost;
  };
  EraseResult Erase(FileId file, sim::PinScope* scope = nullptr);

  // Full scan (brute-force fallback); visits every record in FileId order.
  // Scan order reaches the wire (MigrateOutResponse records) and journal
  // checkpoint images, so it must not depend on hash-map internals.
  template <typename Fn>
  sim::Cost ForEach(Fn&& fn) const {
    sim::Cost cost = store_.SequentialLoad(NumPages());
    ForEachInMemory(fn);
    return cost;
  }

  // Cost-free scan for statistics (heartbeat gauges, segment accounting).
  // Must not touch the page cache — a simulated charge here would make
  // observability perturb the deterministic cost model.  Same FileId order
  // as ForEach.
  template <typename Fn>
  void ForEachInMemory(Fn&& fn) const {
    std::vector<FileId> files;
    files.reserve(records_.size());
    for (const auto& [file, attrs] : records_) files.push_back(file);
    std::sort(files.begin(), files.end());
    for (FileId f : files) fn(f, records_.at(f));
  }

  // Builds the store from a batch in one sequential write instead of
  // per-record random page touches.  Only valid on an empty store; rows
  // with duplicate FileIds keep the last occurrence.
  sim::Cost BulkLoad(std::vector<std::pair<FileId, AttrSet>> rows);

  // Membership probe without a simulated page touch: segment shadowing
  // checks charge their own flat per-probe cost at the caller.
  bool Contains(FileId file) const { return records_.count(file) != 0u; }

  uint64_t NumRecords() const { return records_.size(); }
  uint64_t NumPages() const { return 1 + bytes_ / kPageBytes; }
  uint64_t Bytes() const { return bytes_; }

 private:
  static constexpr uint64_t kPageBytes = 4096;

  uint64_t PageOf(FileId file) const;

  sim::PageStore store_;
  std::unordered_map<FileId, AttrSet> records_;
  uint64_t bytes_ = 0;
};

}  // namespace propeller::index
