#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists is recorded in BENCHMARK.json.
  static const std::vector<WorkloadSpec> kAll = {
      // Search workloads: about the steps a 4-core host completes in
      // --seconds.  Whole index cached: K-D range query, record fetch,
      // cache hits.
      {"search_warm", 8, 200'000, 0, false, 190, 900},
      // Caches hold 1/7 of each node's index: faults and evictions.
      {"search_spill", 2, 200'000, 512, false, 170, 900},
      // Writes beside reads: resolve, stage, WAL, commit.  Twice the
      // batches a 4-core host completes in --seconds, so a run has about
      // 500 searches: search costs come in whole commit steps, and with
      // half as many the median moved from step to step between seeds.
      {"ingest_mixed", 2, 64'000, 0, true, 3200, 0},
  };
  return kAll;
}

Plan PlanFor(const WorkloadSpec& w, double seconds) {
  const double probe_share = w.probe_batches_per_s > 0 ? 0.25 : 0.0;
  Plan p;
  p.steps = static_cast<uint64_t>(std::llround(w.steps_per_s * seconds * (1 - probe_share)));
  p.probe_batches =
      static_cast<uint64_t>(std::llround(w.probe_batches_per_s * seconds * probe_share));
  p.steps = std::max<uint64_t>(p.steps, 1);
  return p;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

workload::DatasetSpec DatasetFor(uint64_t seed, uint64_t rows) {
  workload::DatasetSpec spec;
  spec.num_files = rows;
  spec.keyword = kKeyword;
  spec.keyword_fraction = 0.02;
  spec.seed = SubSeed(seed, 1);
  return spec;
}

Query QueryGen::Next(int64_t now_q) {
  Query q;
  const bool keyword = gen_.Unit() >= 0.75;
  const auto age = static_cast<int64_t>(gen_.Uniform(1.0, 90.0) * 86400.0);
  q.now_q = now_q;
  q.mtime_gt = now_q - age;
  char buf[128];
  if (keyword) {
    q.keyword = true;
    std::snprintf(buf, sizeof(buf), "keyword:%s & mtime<%llds", kKeyword,
                  static_cast<long long>(age));
  } else {
    const double lo = std::log(1024.0 * 1024.0);
    const double hi = std::log(64.0 * 1024.0 * 1024.0);
    q.size_gt = static_cast<int64_t>(std::exp(gen_.Uniform(lo, hi)));
    std::snprintf(buf, sizeof(buf), "size>%lld & mtime<%llds",
                  static_cast<long long>(q.size_gt),
                  static_cast<long long>(age));
  }
  q.text = buf;
  return q;
}

bool PathHasWord(const std::string& path, const std::string& word) {
  size_t start = 0;
  for (size_t i = 0; i <= path.size(); ++i) {
    const bool delim = i == path.size() || path[i] == '/' || path[i] == '.' ||
                       path[i] == '-' || path[i] == '_';
    if (!delim) continue;
    if (i - start == word.size() && path.compare(start, word.size(), word) == 0) {
      return true;
    }
    start = i + 1;
  }
  return false;
}

void Model::Grow(FileId id) {
  if (id < live_pos_.size()) return;
  const size_t n = id + 1;
  size_.resize(n);
  mtime_.resize(n);
  uid_.resize(n);
  keyword_.resize(n);
  path_.resize(n);
  live_pos_.resize(n, kDead);
}

void Model::Apply(const FileUpdate& u) {
  Grow(u.file);
  const FileId id = u.file;
  if (u.is_delete) {
    if (live_pos_[id] == kDead) return;
    const uint32_t slot = live_pos_[id];
    live_[slot] = live_.back();
    live_pos_[live_[slot]] = slot;
    live_.pop_back();
    live_pos_[id] = kDead;
    return;
  }
  size_[id] = u.attrs.FindInt("size").value_or(0);
  mtime_[id] = u.attrs.FindInt("mtime").value_or(0);
  uid_[id] = u.attrs.FindInt("uid").value_or(0);
  const index::AttrValue* path = u.attrs.Find("path");
  path_[id] = path != nullptr && path->is_string() ? path->as_string() : "";
  keyword_[id] = PathHasWord(path_[id], kKeyword) ? 1 : 0;
  if (live_pos_[id] == kDead) {
    live_pos_[id] = static_cast<uint32_t>(live_.size());
    live_.push_back(id);
  }
}

uint64_t Model::HeapBytes() const {
  uint64_t bytes = (size_.capacity() + mtime_.capacity() + uid_.capacity()) * sizeof(int64_t) +
                   keyword_.capacity() + path_.capacity() * sizeof(std::string) +
                   live_pos_.capacity() * sizeof(uint32_t) + live_.capacity() * sizeof(FileId);
  const size_t inline_capacity = std::string().capacity();
  for (const std::string& p : path_) {
    if (p.capacity() > inline_capacity) bytes += p.capacity() + 1;
  }
  return bytes;
}

std::vector<FileId> Model::Expected(const Query& q) const {
  std::vector<FileId> out;
  const size_t n = live_pos_.size();
  for (size_t id = 1; id < n; ++id) {
    if (live_pos_[id] == kDead || mtime_[id] <= q.mtime_gt) continue;
    if (q.keyword ? keyword_[id] != 0 : size_[id] > q.size_gt) {
      out.push_back(id);
    }
  }
  return out;
}

UpdateGen::UpdateGen(uint64_t seed, const workload::DatasetSpec& rows_spec,
                     uint64_t zipf_items, FileId next_id)
    : gen_(seed), rank_rng_(SubSeed(seed, 1)), zipf_(zipf_items, 0.99),
      rows_spec_(rows_spec), next_id_(next_id) {}

std::vector<FileUpdate> UpdateGen::NextBatch(const Model& model, int64_t now_q) {
  const auto rows = static_cast<size_t>(gen_.Between(1, 32));
  std::vector<FileUpdate> batch;
  batch.reserve(rows);
  std::unordered_set<FileId> used;
  // Draws a live id not yet in this batch (a batch names each file once).
  // A Zipf rank maps to a fixed preloaded id; a rank whose file was
  // deleted is redrawn.
  auto pick = [&](bool zipf) -> FileId {
    for (int attempt = 0; attempt < 8; ++attempt) {
      FileId id;
      if (zipf) {
        // Scrambled: hash the rank so hot files spread over the id space.
        Gen h(zipf_.Sample(rank_rng_) * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
        id = h.Next() % zipf_.n() + 1;
        if (!model.IsLive(id)) continue;
      } else {
        id = model.LiveAt(gen_.Next() % model.live());
      }
      if (used.insert(id).second) return id;
    }
    return 0;
  };
  for (size_t i = 0; i < rows || batch.empty(); ++i) {
    const double r = i < rows ? gen_.Unit() : 0.9;  // fallback: a create
    if (r < 0.85) {
      const FileId id = pick(true);
      if (id == 0) continue;
      FileUpdate u;
      u.file = id;
      const bool large = gen_.Unit() < 0.02;
      const double size = large ? gen_.Uniform(16.0, 80.0) * 1024 * 1024
                                : gen_.Uniform(4096.0, 28672.0);
      u.attrs.Set("size", index::AttrValue(static_cast<int64_t>(size)));
      u.attrs.Set("mtime", index::AttrValue(now_q));
      u.attrs.Set("uid", index::AttrValue(model.uid(id)));
      u.attrs.Set("path", index::AttrValue(model.path(id)));
      batch.push_back(std::move(u));
    } else if (r < 0.95) {
      std::vector<FileUpdate> fresh = workload::SyntheticRows(next_id_++, 1, rows_spec_);
      fresh[0].attrs.Set("mtime", index::AttrValue(now_q));
      used.insert(fresh[0].file);
      batch.push_back(std::move(fresh[0]));
    } else {
      const FileId id = pick(false);
      if (id == 0) continue;
      FileUpdate u;
      u.file = id;
      u.is_delete = true;
      batch.push_back(std::move(u));
    }
  }
  return batch;
}

}  // namespace perfbench
