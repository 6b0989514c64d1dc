// Propeller client: File Access Management + File Query Engine.
//
// Sits "under the existing file system on the client side" (Section IV):
// attach it to a Vfs and it captures ACG deltas transparently; its query
// engine parses query strings / predicates, resolves routing through the
// Master Node (once per placement epoch: answers are cached), and fans
// requests out to Index Nodes in parallel (the simulated latency of a
// fan-out is the slowest branch).
#pragma once

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "acg/acg_builder.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/proto.h"
#include "core/query_parser.h"
#include "fs/vfs.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace propeller::core {

// Client-side RPC resilience.  Retries apply only to kUnavailable (a
// transport fault, a down node); every other code returns immediately.
// Backoff is exponential with deterministic jitter — a stateless hash of
// (jitter_seed, destination, method, attempt) — so parallel fan-outs need
// no shared RNG and a fault-free run draws nothing, keeping results and
// costs bit-identical to a no-retry configuration.
struct RetryPolicy {
  int max_attempts = 3;            // total tries; 1 = no retries
  double initial_backoff_s = 0.010;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 1.0;
  double jitter_frac = 0.2;        // sleep *= 1 + U[0,jitter_frac)
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  // Simulated per-request deadline across all attempts and backoffs;
  // 0 = unbounded.  Exceeding it yields kDeadlineExceeded.
  double request_deadline_s = 0;
};

struct ClientConfig {
  // Updates per stage-request message (paper: batch size 128).
  size_t update_batch = 128;
  // Width of the RPC fan-out pool (PropellerCluster sizes its shared pool
  // from this when parallel execution is enabled); 0 = hardware_concurrency.
  size_t fanout_threads = 0;
  RetryPolicy retry;
  // Degraded search: when some Index Nodes are unreachable, return the
  // reachable nodes' results with SearchOutcome::partial = true and the
  // failures listed per node, instead of failing the whole search.
  bool allow_partial_search = false;
  // Replication (tail-tolerant reads).  On, the client fans every write
  // shipment to the group's full replica set — the primary's journal
  // append is the durable copy and its ack carries the commit sequence;
  // the write succeeds once the primary plus floor((r-1)/2) secondaries
  // ack — tracks those acked sequences as read-your-writes floors, and
  // hedges slow or failed search branches to each group's first
  // secondary.  PropellerCluster wires this from replication_factor.
  bool replicated = false;
  // Sharded master (mirrors ClusterConfig::master_shards): the client keys
  // its placement caches by (shard, epoch) — resolve responses carry one
  // epoch per metadata shard, and one shard's churn evicts only that
  // shard's cached placements.  Must match the master's shard count.
  uint32_t master_shards = 1;
  // Placement delegation: resolves route to the lease-holding Index Nodes
  // named by the master's resolve responses ("in.resolve_update" /
  // "in.resolve_search"), falling back to the master when no holder is
  // known yet or a delegate refuses (lease expiry, kStaleLocation).
  // PropellerCluster wires this from its own placement_leases flag.
  bool placement_leases = false;
  // Hedged-read policy (replicated mode).  A search branch whose primary
  // exceeds the client's observed latency quantile — or fails outright —
  // is re-issued to the secondary replicas; the first complete response
  // wins and the loser is accounted as cancelled.
  struct HedgePolicy {
    bool enabled = true;
    // Hedge once a branch runs past this quantile of past branch
    // latencies (0.95 = p95).
    double quantile = 0.95;
    // Never hedge below this latency, however tight the distribution.
    double min_s = 0.0005;
    // Observations needed before the quantile is trusted; until then the
    // threshold is infinite and only failed primaries hedge.
    uint64_t min_samples = 16;
  };
  HedgePolicy hedge;
};

class PropellerClient {
 public:
  // `rpc_pool` (optional, not owned, may be shared between clients) makes
  // Search/BatchUpdate issue their per-node RPCs concurrently.  Without a
  // pool the fan-out runs serially on the caller's thread.  Simulated costs
  // and results are identical in both modes; only wall-clock time differs.
  PropellerClient(NodeId id, net::Transport* transport, NodeId master,
                  ClientConfig config = {}, ThreadPool* rpc_pool = nullptr);

  NodeId id() const { return id_; }

  // Observability wiring (optional; PropellerCluster::AddClient binds its
  // tracer and virtual clock).  When bound, every Search/BatchUpdate/... is
  // a trace root anchored at `*clock_s` and the whole causal tree —
  // retries, fan-out, server-side work — is recorded on `tracer`.
  void BindObservability(obs::Tracer* tracer, const double* clock_s) {
    tracer_ = tracer;
    clock_s_ = clock_s;
  }
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }

  // --- File Access Management ---
  // Registers the ACG capture hooks on a Vfs (FUSE-intercept stand-in).
  void AttachVfs(fs::Vfs* vfs);
  // Ships the captured ACG delta to the Master Node ("flushed to the
  // Index Nodes after the I/O process finishes").  No-op when empty.
  Result<sim::Cost> FlushAcg();
  acg::AcgBuilder& builder() { return builder_; }

  // --- Index management ---
  Result<sim::Cost> CreateIndex(const IndexSpec& spec);

  // --- File indexing (real-time path) ---
  // Batches updates by target group (placements from the cache, misses
  // resolved through the master or a lease holder) and stages them on the
  // owning Index Nodes in parallel: one in.stage_updates
  // message per destination node (more when a node's share exceeds
  // update_batch), one section per group.  `admission` stamps every
  // stage message for the index nodes' bounded admission queues
  // (open-loop traffic): an overloaded node sheds the message with
  // kOverloaded, which is NOT retried or repaired — the caller decides
  // whether and when to re-offer the load.
  Result<sim::Cost> BatchUpdate(std::vector<FileUpdate> updates, double now_s,
                                bool admission = false);

  // --- File search ---
  struct SearchOutcome {
    struct NodeError {
      NodeId node = 0;
      Status status;
    };
    std::vector<FileId> files;
    sim::Cost cost;            // end-to-end simulated latency
    size_t nodes_queried = 0;
    // Degraded-mode fields (allow_partial_search): true when at least one
    // Index Node could not be reached; node_errors names each one.
    bool partial = false;
    std::vector<NodeError> node_errors;
    // Backpressure (admission control): at least one branch was shed with
    // kOverloaded.  The branch is never retried, repaired, or hedged —
    // re-offering load to a saturated node is the caller's decision.
    bool overloaded = false;
  };
  // `index_name` may be empty (all groups are eligible).  `arrival_s` > 0
  // stamps the fan-out with the virtual instant the request entered the
  // system (open-loop traffic): admission-controlled nodes model queueing
  // delay from that instant and may shed with kOverloaded.  0 (the
  // default) leaves the wire bytes unchanged.
  Result<SearchOutcome> Search(const Predicate& predicate,
                               const std::string& index_name = "",
                               double arrival_s = 0);
  // Query-string form, e.g. "size>16m" or "/data/?size>1m&mtime<1day".
  Result<SearchOutcome> SearchQuery(const std::string& query, int64_t now_s);

 private:
  // Issues one RPC under the client's RetryPolicy: retries kUnavailable
  // with backoff+jitter, enforces the simulated deadline, and returns the
  // last attempt's result with `cost` covering every attempt and backoff.
  // `elapsed_s` is simulated time already spent on the request before this
  // call (a hedge fired at t_hedge passes t_hedge), so the deadline covers
  // launch time + attempts + backoffs, not just this call's own clock.
  // A hedge is a fresh call, not a retry: it starts at attempt 0 and never
  // consumes a slot of (or charges a retry against) the primary's budget.
  net::Transport::CallResult CallWithRetry(NodeId to, const std::string& method,
                                           std::string payload,
                                           double elapsed_s = 0.0);

  // --- placement cache ---
  // Every resolve answer is memoized under the per-shard epochs it carries,
  // so repeat requests skip the resolve RPC.  Each request is stamped with
  // the epochs its routing was resolved at (proto.h's epoch convention): a
  // node told of a newer placement refuses it with kStaleLocation, and the
  // client repairs once, at the master.
  struct FilePlacement {
    GroupId group = 0;
    NodeId node = 0;
    uint64_t epoch = 0;  // the file's shard epoch this placement is from
  };
  // Copies the cached fan-out targets for `index_name` (true on hit); their
  // shard_epochs are the ones they were resolved at.
  bool LookupSearchTargets(const std::string& index_name,
                           ResolveSearchResponse* targets);
  // Memoizes a resolve answer current on every shard.
  void StoreSearchTargets(const std::string& index_name,
                          const ResolveSearchResponse& resp);
  // Fills `where` from cached placements and appends each unknown file to
  // `missing` (preserving update order, duplicates included, exactly as an
  // uncached resolve request would list them).
  void LookupFilePlacements(const std::vector<FileUpdate>& updates,
                            std::unordered_map<FileId, FilePlacement>* where,
                            std::vector<FileId>* missing);
  // Memoizes the placements of the shards the answer is current on.
  void StoreFilePlacements(const ResolveUpdateResponse& resp);
  // Raises cache_epochs_ to `eps` (0 = no statement about a shard).  A
  // raised shard's cached file placements go, and so does every cached
  // search target list (each spans all shards).  Returns, per shard,
  // whether `eps` is current there (neither unstated nor a raced older
  // view).
  std::vector<char> AdvanceEpochsLocked(const std::vector<uint64_t>& eps)
      REQUIRES(cache_mu_);
  // Number of metadata shards the caches are keyed by (>= 1).
  uint32_t NumShards() const {
    return config_.master_shards == 0 ? 1 : config_.master_shards;
  }
  // A resolve response is usable only with one epoch per metadata shard.
  template <typename ResponseT>
  bool ValidResolve(const ResponseT& resp) const {
    return resp.shard_epochs.size() == NumShards();
  }

  // --- placement delegation (placement_leases) ---
  // Memoizes the per-shard lease holders a master resolve response names.
  void StoreLeaseHolders(const std::vector<NodeId>& holders);
  std::vector<NodeId> SnapshotLeaseHolders() const;
  // Delegated resolves: partition the request across the lease holders,
  // fan out "in.resolve_*", and merge the answers.  False = fall back to
  // the master (no holders known, a holder refused — its lease lapsed or
  // its mirror predates an epoch it was told — or partial coverage);
  // `cost` accumulates whatever the client waited on either way.  A
  // repair after a refused request never delegates.
  bool ResolveUpdateDelegated(const std::vector<FileId>& files,
                              ResolveUpdateResponse* out, sim::Cost* cost);
  bool ResolveSearchDelegated(const std::string& index_name,
                              ResolveSearchResponse* out, sim::Cost* cost);
  // Drops both caches — routing proved stale (kStaleLocation, kNotFound)
  // or a cached route hit a dead node; the follow-up resolve refills them.
  // The read-your-writes floors and the cache epochs survive: they
  // describe acknowledged writes and placements already seen, not
  // routing.
  void InvalidateRoutingCache();

  // --- replication state (replicated mode) ---
  // Memoizes resolve-provided replica sets / reads them back for write
  // fan-out (search branches take theirs from the resolve response).
  void StoreReplicaSets(const std::vector<GroupReplicaSet>& sets);
  std::unordered_map<GroupId, std::vector<NodeId>> SnapshotReplicaSets() const;
  // Primary-acked commit floors (monotone per group).
  void RecordAckedSeq(GroupId group, uint64_t seq);
  std::unordered_map<GroupId, uint64_t> SnapshotSeqFloors() const;
  // Current hedge-fire latency threshold from the observed branch-latency
  // histogram; +infinity until min_samples observations exist.
  double HedgeThreshold() const;

  NodeId id_;
  net::Transport* transport_;
  NodeId master_;
  ClientConfig config_;
  ThreadPool* rpc_pool_;  // not owned; null = serial fan-out
  acg::AcgBuilder builder_;

  obs::Tracer* tracer_ = nullptr;    // not owned; null = tracing off
  const double* clock_s_ = nullptr;  // cluster virtual clock; null = epoch 0
  obs::MetricsRegistry metrics_;
  std::atomic<uint64_t> trace_seq_{0};  // per-client trace id sequence
  obs::Counter* rpc_attempts_;
  obs::Counter* rpc_retries_;
  obs::Counter* partial_searches_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* stale_retries_;
  obs::Counter* hedges_;
  obs::Counter* hedge_wins_;
  obs::Counter* hedge_cancelled_;
  obs::Counter* stale_replica_retries_;
  obs::Counter* shed_searches_;
  obs::Counter* shed_updates_;
  obs::Counter* delegated_resolves_;
  obs::Counter* delegated_fallbacks_;
  obs::Histogram* search_latency_;
  obs::Histogram* update_latency_;
  // Per-branch in.search latencies (successful primaries); feeds the
  // hedge-fire quantile.
  obs::Histogram* branch_latency_;

  // Placement-cache state.  cache_mu_ (LockRank::kClientCache) is never
  // held across a transport call.  cache_epochs_ holds the newest epoch
  // seen per shard; every cached entry is current at it (a raise evicts
  // what it may invalidate).
  mutable Mutex cache_mu_{LockRank::kClientCache, "PropellerClient::cache_mu_"};
  std::vector<uint64_t> cache_epochs_ GUARDED_BY(cache_mu_);
  std::unordered_map<std::string, ResolveSearchResponse> search_cache_
      GUARDED_BY(cache_mu_);
  std::unordered_map<FileId, FilePlacement> file_cache_ GUARDED_BY(cache_mu_);
  // Placement delegation: shard -> lease-holding Index Node (0 = none),
  // as last stamped by a master resolve response; empty until then.
  std::vector<NodeId> lease_holders_ GUARDED_BY(cache_mu_);
  // Replication: latest known replica set per group (write fan-out) and
  // the highest primary-acked commit sequence per group (read floors).
  std::unordered_map<GroupId, std::vector<NodeId>> replica_cache_
      GUARDED_BY(cache_mu_);
  std::unordered_map<GroupId, uint64_t> seq_floor_ GUARDED_BY(cache_mu_);
};

}  // namespace propeller::core
