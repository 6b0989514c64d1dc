#include "index/hash_index.h"

#include <algorithm>

namespace propeller::index {
namespace {

// Pages are addressed as bucket * kMaxChain + page-in-chain; chains beyond
// kMaxChain alias their last page (harmless: only affects cache identity).
constexpr uint64_t kMaxChain = 1024;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

HashIndex::HashIndex(sim::PageStore store, uint32_t initial_buckets)
    : store_(store), page_bytes_(4096) {
  uint32_t n = 1;
  while (n < std::max(1u, initial_buckets)) n <<= 1;
  buckets_.resize(n);
}

uint64_t HashIndex::HashKey(const AttrValue& key) {
  if (key.is_string()) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (char c : key.as_string()) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    return Mix(h);
  }
  // Numeric: hash the canonical double bit pattern so 5 and 5.0 collide
  // (they compare equal, so they must hash equal).
  double d = key.numeric();
  uint64_t bits;
  static_assert(sizeof bits == sizeof d);
  __builtin_memcpy(&bits, &d, sizeof bits);
  return Mix(bits);
}

size_t HashIndex::BucketOf(const AttrValue& key) const {
  return HashKey(key) & (buckets_.size() - 1);
}

uint64_t HashIndex::BucketPages(const Bucket& b) const {
  return 1 + b.bytes / page_bytes_;
}

// Buckets are packed into pages proportionally to the table's total
// content (as an on-disk hash table would be laid out), so a small table
// occupies a handful of pages regardless of its directory size.
uint64_t HashIndex::BucketBasePage(size_t bi) const {
  return bi * NumPages() / buckets_.size();
}

sim::Cost HashIndex::TouchBucket(size_t bi, sim::PinScope* scope) const {
  sim::Cost cost;
  const uint64_t base = BucketBasePage(bi);
  const uint64_t pages = std::min(BucketPages(buckets_[bi]), kMaxChain);
  for (uint64_t p = 0; p < pages; ++p) {
    cost += store_.Read(base + p, scope);
  }
  return cost;
}

sim::Cost HashIndex::Insert(const AttrValue& key, FileId file,
                            sim::PinScope* scope) {
  size_t bi = BucketOf(key);
  sim::Cost cost = TouchBucket(bi, scope);
  Bucket& b = buckets_[bi];
  auto bytes = static_cast<uint32_t>(16 + key.ByteSize());
  b.postings.push_back(Posting{key, file, bytes});
  b.bytes += bytes;
  total_bytes_ += bytes;
  ++num_postings_;
  // Write the tail page of the chain.
  cost += store_.Write(
      BucketBasePage(bi) + std::min(BucketPages(b) - 1, kMaxChain - 1), scope);
  MaybeGrow(cost, scope);
  return cost;
}

sim::Cost HashIndex::BulkLoad(
    std::vector<std::pair<AttrValue, FileId>> entries) {
  // Pre-size the directory to the final occupancy so MaybeGrow's threshold
  // is never crossed mid-load (no incremental rehash charges).
  uint64_t bytes = 0;
  for (const auto& [key, file] : entries) bytes += 16 + key.ByteSize();
  while (bytes >= buckets_.size() * uint64_t{page_bytes_} * 3 / 2) {
    buckets_.resize(buckets_.size() * 2);
  }
  for (auto& [key, file] : entries) {
    size_t bi = BucketOf(key);
    auto posting_bytes = static_cast<uint32_t>(16 + key.ByteSize());
    Bucket& b = buckets_[bi];
    b.postings.push_back(Posting{std::move(key), file, posting_bytes});
    b.bytes += posting_bytes;
    total_bytes_ += posting_bytes;
    ++num_postings_;
  }
  // One sequential pass writes the whole table.
  return store_.SequentialLoad(NumPages());
}

sim::Cost HashIndex::Remove(const AttrValue& key, FileId file,
                            sim::PinScope* scope) {
  size_t bi = BucketOf(key);
  sim::Cost cost = TouchBucket(bi, scope);
  Bucket& b = buckets_[bi];
  for (auto it = b.postings.begin(); it != b.postings.end(); ++it) {
    if (it->file == file && it->key == key) {
      b.bytes -= it->bytes;
      total_bytes_ -= it->bytes;
      b.postings.erase(it);
      --num_postings_;
      cost += store_.Write(BucketBasePage(bi), scope);
      return cost;
    }
  }
  return cost;
}

HashIndex::LookupResult HashIndex::Lookup(const AttrValue& key) const {
  size_t bi = BucketOf(key);
  LookupResult out;
  out.cost = TouchBucket(bi);
  for (const Posting& p : buckets_[bi].postings) {
    if (p.key == key) out.files.push_back(p.file);
  }
  return out;
}

uint64_t HashIndex::NumPages() const { return 1 + total_bytes_ / page_bytes_; }

void HashIndex::MaybeGrow(sim::Cost& cost, sim::PinScope* scope) {
  // Grow when the average bucket would chain past ~1.5 pages.
  if (total_bytes_ < buckets_.size() * page_bytes_ * 3 / 2) return;

  uint64_t old_pages = NumPages();
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.clear();
  buckets_.resize(old.size() * 2);
  for (Bucket& b : old) {
    for (Posting& p : b.postings) {
      size_t bi = HashKey(p.key) & (buckets_.size() - 1);
      buckets_[bi].bytes += p.bytes;
      buckets_[bi].postings.push_back(std::move(p));
    }
  }
  // Rehash = sequential read of old pages + write of new ones; old cache
  // entries no longer correspond to live pages.
  cost += store_.Rewrite(old_pages + NumPages(), NumPages(), scope);
}

}  // namespace propeller::index
