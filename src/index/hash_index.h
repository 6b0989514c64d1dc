// Paged extendible-ish hash index: AttrValue key -> FileIds.
//
// Exact-match index (the paper's "Hash Table" per-group structure and the
// keyword->path table in the MySQL baseline).  Buckets occupy whole pages;
// an access charges every page in the bucket's chain.  The directory
// doubles when the average chain exceeds one page, with the rehash charged
// as a sequential rewrite.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "index/attr.h"
#include "sim/io_context.h"

namespace propeller::index {

class HashIndex {
 public:
  explicit HashIndex(sim::PageStore store, uint32_t initial_buckets = 64);

  // A non-null `scope` charges each page once per scope (sim::PinScope).
  sim::Cost Insert(const AttrValue& key, FileId file,
                   sim::PinScope* scope = nullptr);
  // Removes one matching posting; cost-only no-op when absent.
  sim::Cost Remove(const AttrValue& key, FileId file,
                   sim::PinScope* scope = nullptr);

  // Builds the table from a batch in one sequential write, sizing the
  // directory up front so no incremental rehash fires.  Only valid on an
  // empty index (segment builds).
  sim::Cost BulkLoad(std::vector<std::pair<AttrValue, FileId>> entries);

  struct LookupResult {
    std::vector<FileId> files;
    sim::Cost cost;
  };
  LookupResult Lookup(const AttrValue& key) const;

  uint64_t NumPostings() const { return num_postings_; }
  uint32_t NumBuckets() const { return static_cast<uint32_t>(buckets_.size()); }
  uint64_t NumPages() const;

 private:
  struct Posting {
    AttrValue key;
    FileId file;
    uint32_t bytes;  // cached serialized size for page math
  };
  struct Bucket {
    std::vector<Posting> postings;
    uint64_t bytes = 0;
  };

  static uint64_t HashKey(const AttrValue& key);
  size_t BucketOf(const AttrValue& key) const;
  uint64_t BucketPages(const Bucket& b) const;
  uint64_t BucketBasePage(size_t bi) const;
  // Charges reads on every page of bucket `bi`'s chain.
  sim::Cost TouchBucket(size_t bi, sim::PinScope* scope = nullptr) const;
  void MaybeGrow(sim::Cost& cost, sim::PinScope* scope);

  sim::PageStore store_;
  uint32_t page_bytes_;
  std::vector<Bucket> buckets_;
  uint64_t num_postings_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace propeller::index
