// Workload definitions, input generators and the row model that checks
// every search result.
//
// Inputs are generated from the run seed only; the program under test sees
// nothing but the generated rows, updates and query strings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/index_group.h"
#include "util.h"
#include "workload/dataset.h"

namespace perfbench {

using index::FileId;
using index::FileUpdate;

struct WorkloadSpec {
  const char* name;
  int index_nodes;
  uint64_t rows;             // preloaded rows
  uint64_t cache_pages;      // per-node page cache; 0 keeps the default
  bool ingest;               // mixed writes + reads instead of searches only
  // A run does a fixed amount of work sized from --seconds: these many
  // op-stream steps (and write-probe batches) per second asked for.
  double steps_per_s;
  double probe_batches_per_s;  // search-only workloads; 0 = no probe
};

// Steps and probe batches of a --seconds run.  Search-only workloads give
// a quarter of the time to the write probe.
struct Plan {
  uint64_t steps = 0;
  uint64_t probe_batches = 0;
};
Plan PlanFor(const WorkloadSpec& w, double seconds);

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Virtual "now" of the query language: SyntheticRow stamps mtimes below
// this instant, and the cluster clock moves it forward.
constexpr int64_t kEpochNow = 1'000'000;
// Path component that marks the rows keyword queries look for (the
// paper's Query #2 keyword).
constexpr const char* kKeyword = "firefox";

workload::DatasetSpec DatasetFor(uint64_t seed, uint64_t rows);

// One generated search: the query string sent through SearchQuery and the
// parameters the model evaluates it with.
struct Query {
  std::string text;
  bool keyword = false;   // "keyword:K & mtime<D", else "size>X & mtime<D"
  int64_t size_gt = 0;    // size > size_gt (size class only)
  int64_t mtime_gt = 0;   // mtime > mtime_gt
  int64_t now_q = 0;      // clock the query was sent at ("now" of mtime<D)
};

// 3/4 "size>X & mtime<D" (X log-uniform in 1-64 MiB), 1/4
// "keyword:K & mtime<D"; D uniform in 1-90 days.  Continuous draws.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : gen_(seed) {}
  Query Next(int64_t now_q);

 private:
  Gen gen_;
};

// Independent model of every acknowledged row; evaluates queries by brute
// force.
class Model {
 public:
  void Apply(const FileUpdate& u);
  void Apply(const std::vector<FileUpdate>& batch) {
    for (const FileUpdate& u : batch) Apply(u);
  }
  // Sorted ids of the live rows matching `q`.
  std::vector<FileId> Expected(const Query& q) const;

  uint64_t live() const { return live_.size(); }
  FileId LiveAt(uint64_t slot) const { return live_[slot]; }
  bool IsLive(FileId id) const { return id < live_pos_.size() && live_pos_[id] != kDead; }
  // Approximate heap bytes the model holds (reported beside peak_rss_mb).
  uint64_t HeapBytes() const;
  int64_t uid(FileId id) const { return uid_[id]; }
  const std::string& path(FileId id) const { return path_[id]; }

 private:
  static constexpr uint32_t kDead = UINT32_MAX;
  void Grow(FileId id);

  // Column per attribute, indexed by FileId (id 0 unused).
  std::vector<int64_t> size_, mtime_, uid_;
  std::vector<uint8_t> keyword_;
  std::vector<std::string> path_;
  std::vector<uint32_t> live_pos_;  // FileId -> slot in live_, or kDead
  std::vector<FileId> live_;
};

// Real-time indexing batches: 1-32 rows, 85% modify (scrambled Zipf,
// theta 0.99, over the preloaded ids: a rank names the same file for the
// whole run), 10% create, 5% delete.  Reads the model, never writes it:
// the caller applies a batch once the cluster acknowledges it.
class UpdateGen {
 public:
  UpdateGen(uint64_t seed, const workload::DatasetSpec& rows_spec,
            uint64_t zipf_items, FileId next_id);
  std::vector<FileUpdate> NextBatch(const Model& model, int64_t now_q);

 private:
  Gen gen_;
  propeller::Rng rank_rng_;
  propeller::ZipfianSampler zipf_;
  workload::DatasetSpec rows_spec_;
  FileId next_id_;
};

// True when `word` is a '/', '.', '-' or '_' delimited component of
// `path`.
bool PathHasWord(const std::string& path, const std::string& word);

}  // namespace perfbench
