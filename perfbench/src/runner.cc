#include "runner.h"

#include <algorithm>

namespace perfbench {
namespace {

// Preload chunk: one BatchUpdate per chunk, then a commit-timeout tick.
constexpr uint64_t kPreloadChunk = 50'000;
constexpr int kWarmupSearches = 8;
// Failure messages kept for the report.
constexpr size_t kMaxFailureNotes = 10;
// A phase stops early past this much wall time, so a much slower host
// still ends the run inside its limit.
constexpr double kPhaseWallCapS = 60.0;

}  // namespace

Runner::Runner(WorkloadSpec spec, uint64_t seed)
    : spec_(spec), seed_(seed), rows_spec_(DatasetFor(seed, spec.rows)) {}

int64_t Runner::NowQ() const {
  return kEpochNow + static_cast<int64_t>(cluster_->now());
}

void Runner::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < kMaxFailureNotes) failures_.push_back(what);
}

double Runner::Setup() {
  cluster_.reset();
  model_ = Model();
  samples_.clear();
  queries_.clear();
  op_id_ = batches_ = attempted_ = failed_ = 0;
  phase_wall_s_[0] = phase_wall_s_[1] = 0;
  phase_ops_[0] = phase_ops_[1] = 0;
  truncated_ = false;
  failures_.clear();
  recording_ = false;

  // Set-up time counts the program's own calls only: input generation and
  // the model's bookkeeping are the benchmark's work.
  double setup_s = 0;
  auto program = [&setup_s](auto&& call) {
    const WallClock::time_point t0 = WallClock::now();
    auto result = call();
    setup_s += SecondsSince(t0);
    return result;
  };
  core::ClusterConfig cfg;
  cfg.index_nodes = spec_.index_nodes;
  if (spec_.cache_pages != 0) cfg.index_node.io.cache_pages = spec_.cache_pages;
  cluster_ = program([&] { return std::make_unique<core::PropellerCluster>(cfg); });
  core::PropellerClient& client = cluster_->client();
  for (const index::IndexSpec& ix :
       {index::IndexSpec{"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}},
        index::IndexSpec{"by_path", index::IndexType::kKeyword, {"path"}}}) {
    auto created = program([&] { return client.CreateIndex(ix); });
    if (!created.ok()) Fail("create index " + ix.name + ": " + created.status().ToString());
  }
  for (uint64_t base = 0; base < spec_.rows; base += kPreloadChunk) {
    const uint64_t n = std::min(kPreloadChunk, spec_.rows - base);
    std::vector<FileUpdate> chunk = workload::SyntheticRows(base + 1, n, rows_spec_);
    model_.Apply(chunk);
    auto loaded = program([&] {
      auto r = client.BatchUpdate(std::move(chunk), cluster_->now());
      cluster_->AdvanceTime(6.0);
      return r;
    });
    if (!loaded.ok()) Fail("preload: " + loaded.status().ToString());
  }
  queries_gen_ = std::make_unique<QueryGen>(SubSeed(seed_, 2));
  updates_gen_ = std::make_unique<UpdateGen>(SubSeed(seed_, 3), rows_spec_,
                                             spec_.rows, spec_.rows + 1);
  // Warm-up: fills the page caches; checked but not recorded.
  QueryGen warm(SubSeed(seed_, 4));
  for (int i = 0; i < kWarmupSearches; ++i) {
    const Query q = warm.Next(NowQ());
    auto r = program([&] { return client.SearchQuery(q.text, NowQ()); });
    std::vector<FileId> got;
    if (r.ok()) got = r->files;
    std::sort(got.begin(), got.end());
    if (!r.ok() || r->partial || got != model_.Expected(q)) Fail("warm-up search: " + q.text);
  }
  return setup_s;
}

void Runner::EnableTracing() {
  cluster_->tracer().Clear();
  cluster_->tracer().Enable();
  tap_.WrapCluster(*cluster_);
  traced_ = true;
}

sim::PageCacheStats Runner::CacheStats() const {
  sim::PageCacheStats sum;
  for (size_t i = 0; i < cluster_->num_index_nodes(); ++i) {
    const sim::PageCacheStats s = cluster_->index_node(i).io().CacheStats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
  }
  return sum;
}

Runner::Before Runner::BeginOp() {
  Before b;
  if (!traced_) return b;
  tap_.BeginOp(++op_id_);
  b.bytes = cluster_->transport().BytesSent();
  b.messages = cluster_->transport().MessagesSent();
  b.cache = CacheStats();
  return b;
}

void Runner::EndOp(const Before& before, OpKind kind, bool probe,
                   double wall_s, double sim_s, uint64_t rows) {
  if (!recording_) return;
  const int phase = probe ? 1 : 0;
  samples_.push_back(OpSample{kind, probe, wall_s, sim_s});
  ++phase_ops_[phase];
  phase_wall_s_[phase] += wall_s;
  if (!traced_) return;
  KindTotals& t = totals_[static_cast<int>(kind)];
  ++t.ops;
  t.rows += rows;
  t.wall_s += wall_s;
  t.handler_wall_s += tap_.OpHandlerWall();
  t.net_bytes += cluster_->transport().BytesSent() - before.bytes;
  t.net_messages += cluster_->transport().MessagesSent() - before.messages;
  const sim::PageCacheStats cache = CacheStats();
  t.cache_hits += cache.hits - before.cache.hits;
  t.cache_misses += cache.misses - before.cache.misses;
  t.cache_evictions += cache.evictions - before.cache.evictions;
  std::vector<obs::Span> spans = cluster_->tracer().Spans();
  cluster_->tracer().Clear();
  spans_.AddOp(spans, kind == OpKind::kTick ? -1.0 : sim_s);
}

void Runner::Search(bool probe) {
  const int64_t now_q = NowQ();
  const Query q = queries_gen_->Next(now_q);
  if (!probe) queries_.push_back(q);
  const Before before = BeginOp();
  const WallClock::time_point t0 = WallClock::now();
  auto r = cluster_->client().SearchQuery(q.text, now_q);
  const double wall = SecondsSince(t0);
  EndOp(before, OpKind::kSearch, probe, wall, r.ok() ? r->cost.seconds() : 0.0, 0);

  ++attempted_;
  if (!r.ok()) return Fail("search '" + q.text + "': " + r.status().ToString());
  if (r->partial) return Fail("search '" + q.text + "': partial result");
  std::vector<FileId> got = r->files;
  std::sort(got.begin(), got.end());
  const std::vector<FileId> want = model_.Expected(q);
  if (got != want) {
    Fail("search '" + q.text + "': " + std::to_string(got.size()) +
         " files, model has " + std::to_string(want.size()));
  }
}

void Runner::Update(bool probe) {
  std::vector<FileUpdate> batch = updates_gen_->NextBatch(model_, NowQ());
  const uint64_t rows = batch.size();
  std::vector<FileUpdate> acked = batch;
  const Before before = BeginOp();
  const WallClock::time_point t0 = WallClock::now();
  auto r = cluster_->client().BatchUpdate(std::move(batch), cluster_->now());
  const double wall = SecondsSince(t0);
  EndOp(before, OpKind::kUpdate, probe, wall, r.ok() ? r->seconds() : 0.0, rows);

  ++attempted_;
  if (!r.ok()) return Fail("batch update: " + r.status().ToString());
  model_.Apply(acked);
}

void Runner::Tick(bool probe) {
  const Before before = BeginOp();
  const WallClock::time_point t0 = WallClock::now();
  cluster_->AdvanceTime(kTickSeconds);
  EndOp(before, OpKind::kTick, probe, SecondsSince(t0), 0.0, 0);
}

void Runner::Step(bool probe) {
  if (!spec_.ingest && !probe) {
    Search(false);
    return;
  }
  Update(probe);
  Tick(probe);
  ++batches_;
  if (spec_.ingest && batches_ % kBatchesPerSearch == 0) Search(probe);
}

void Runner::RunSteps(uint64_t steps, bool probe) {
  recording_ = true;
  const WallClock::time_point t0 = WallClock::now();
  for (uint64_t i = 0; i < steps; ++i) {
    if (SecondsSince(t0) > kPhaseWallCapS) {
      truncated_ = true;
      return;
    }
    Step(probe);
  }
}

void Runner::RunMain(uint64_t steps) { RunSteps(steps, false); }

void Runner::RunProbe(uint64_t batches) {
  if (spec_.ingest) return;
  RunSteps(batches, true);
  Search(true);
}

}  // namespace perfbench
