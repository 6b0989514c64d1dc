// Drives one workload against one PropellerCluster through the public
// client API: set-up (build, preload, warm-up), the closed-loop op stream,
// output checks against the row model, and — when a phase is traced — the
// per-op collection behind the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "rpc_tap.h"
#include "span_stats.h"
#include "workload.h"

namespace perfbench {

enum class OpKind : uint8_t { kSearch, kUpdate, kTick };

struct OpSample {
  OpKind kind;
  bool probe;        // part of the write probe after a search phase
  double wall_s;
  double sim_s;      // returned cost; 0 for ticks
};

// Per-op-kind totals gathered only in a traced phase.
struct KindTotals {
  uint64_t ops = 0;
  uint64_t rows = 0;          // updates carried (update ops)
  double wall_s = 0;
  double handler_wall_s = 0;  // inside tapped top-level handlers
  uint64_t net_bytes = 0, net_messages = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
};

class Runner {
 public:
  // Ingest batches between searches.
  static constexpr uint64_t kBatchesPerSearch = 128;
  // Virtual seconds the op stream advances the clock after every batch.
  static constexpr double kTickSeconds = 0.05;

  Runner(WorkloadSpec spec, uint64_t seed);

  // Builds a fresh cluster, preloads it and warms it up (replacing any
  // previous one); returns the wall seconds the program's calls took.
  double Setup();
  // Turns on the program's span tree and the RPC tap for what follows.
  void EnableTracing();
  // Runs `steps` steps of the op stream: a search, or for the ingest
  // workload a batch plus a clock tick (and every kBatchesPerSearch-th
  // batch a search).
  void RunMain(uint64_t steps);
  // Search-only workloads: a write probe of `batches` batches, each
  // followed by a clock tick, then one checking search.
  void RunProbe(uint64_t batches);

  const WorkloadSpec& spec() const { return spec_; }
  core::PropellerCluster& cluster() { return *cluster_; }
  const Model& model() const { return model_; }
  const std::vector<OpSample>& samples() const { return samples_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  // Recorded ops and their wall time, per phase (0 = main, 1 = probe).
  uint64_t phase_ops(int phase) const { return phase_ops_[phase]; }
  double phase_wall_s(int phase) const { return phase_wall_s_[phase]; }
  // True when a phase stopped early on its wall-time cap.
  bool truncated() const { return truncated_; }
  // The queries this cluster's stream sent (replay input).
  const std::vector<Query>& queries() const { return queries_; }
  int64_t NowQ() const;

  // Traced-phase collections.
  const RpcTap& tap() const { return tap_; }
  const SpanStats& spans() const { return spans_; }
  const KindTotals& totals(OpKind k) const { return totals_[static_cast<int>(k)]; }

  // Test hook: applies `u` to the model only, as if the cluster had
  // acknowledged it; the next search that sees the row must fail its check.
  void CorruptModel(const FileUpdate& u) { model_.Apply(u); }

 private:
  void Search(bool probe);
  void Update(bool probe);
  void Tick(bool probe);
  void Step(bool probe);
  void RunSteps(uint64_t steps, bool probe);
  void Fail(const std::string& what);
  // Around every recorded op: sample recording and, when traced, tap
  // attribution, net/cache deltas and span collection.
  struct Before {
    uint64_t bytes = 0, messages = 0;
    sim::PageCacheStats cache;
  };
  Before BeginOp();
  void EndOp(const Before& before, OpKind kind, bool probe, double wall_s,
             double sim_s, uint64_t rows);
  sim::PageCacheStats CacheStats() const;

  WorkloadSpec spec_;
  uint64_t seed_;
  workload::DatasetSpec rows_spec_;
  // Declared before the cluster so the cluster (whose transport routes to
  // the tap's forwarders) is destroyed first.
  RpcTap tap_;
  std::unique_ptr<core::PropellerCluster> cluster_;
  Model model_;
  std::unique_ptr<QueryGen> queries_gen_;
  std::unique_ptr<UpdateGen> updates_gen_;
  std::vector<Query> queries_;
  std::vector<OpSample> samples_;
  uint64_t op_id_ = 0;
  uint64_t batches_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  double phase_wall_s_[2] = {0, 0};
  uint64_t phase_ops_[2] = {0, 0};
  bool truncated_ = false;
  bool recording_ = false;
  bool traced_ = false;
  SpanStats spans_;
  KindTotals totals_[3];
};

}  // namespace perfbench
