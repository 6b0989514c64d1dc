#include "core/client.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

namespace propeller::core {

namespace {

// Deterministic stateless jitter in [0, 1): a SplitMix64-style finalizer
// over (seed, destination, method, attempt).  No shared RNG — safe under
// parallel fan-out — and no draw happens unless a retry actually sleeps.
double JitterFraction(uint64_t seed, net::NodeId node,
                      const std::string& method, int attempt) {
  uint64_t x = seed ^ (static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ull);
  for (char c : method) {
    x = (x ^ static_cast<uint64_t>(static_cast<unsigned char>(c))) *
        0x100000001b3ull;
  }
  x ^= static_cast<uint64_t>(static_cast<unsigned int>(attempt)) << 32;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

net::Transport::CallResult PropellerClient::CallWithRetry(
    NodeId to, const std::string& method, std::string payload,
    double elapsed_s) {
  const RetryPolicy& rp = config_.retry;
  const int attempts = std::max(1, rp.max_attempts);
  const double deadline = rp.request_deadline_s;
  net::Transport::CallResult out;
  sim::Cost total;
  double backoff = rp.initial_backoff_s;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const bool last = attempt + 1 == attempts;
    rpc_attempts_->Add(1);
    if (attempt > 0) rpc_retries_->Add(1);
    {
      // One span per attempt; the transport's server span nests under it.
      // The key mixes attempt into the id so retries get distinct spans at
      // distinct (backoff-advanced) instants.
      obs::SpanGuard attempt_span(
          "rpc", static_cast<uint64_t>(to) ^
                     (static_cast<uint64_t>(attempt + 1) << 40));
      attempt_span.Tag("method", method);
      attempt_span.Tag("to", static_cast<uint64_t>(to));
      attempt_span.Tag("attempt", static_cast<uint64_t>(attempt + 1));
      // The transport consumes the payload; keep a copy while retries remain.
      out = transport_->Call(id_, to, method,
                             last ? std::move(payload) : std::string(payload));
      attempt_span.Tag("status", StatusCodeName(out.status.code()));
    }
    total += out.cost;
    out.cost = total;
    if (out.status.code() != StatusCode::kUnavailable) return out;
    if (deadline > 0 && elapsed_s + total.seconds() >= deadline) {
      out.status = Status::DeadlineExceeded(
          method + " to node " + std::to_string(to) + " exceeded " +
          std::to_string(deadline) + "s deadline after " +
          std::to_string(attempt + 1) + " attempt(s)");
      return out;
    }
    if (last) return out;
    double sleep = std::min(backoff, rp.max_backoff_s);
    sleep *= 1.0 + rp.jitter_frac * JitterFraction(rp.jitter_seed, to, method,
                                                   attempt);
    {
      obs::SpanGuard backoff_span(
          "backoff", static_cast<uint64_t>(to) ^
                         (static_cast<uint64_t>(attempt + 1) << 40));
      backoff_span.Tag("to", static_cast<uint64_t>(to));
      backoff_span.Advance(sim::Cost(sleep));
    }
    total += sim::Cost(sleep);
    if (deadline > 0 && elapsed_s + total.seconds() >= deadline) {
      out.cost = total;
      out.status = Status::DeadlineExceeded(
          method + " to node " + std::to_string(to) + " exceeded " +
          std::to_string(deadline) + "s deadline during backoff");
      return out;
    }
    backoff *= rp.backoff_multiplier;
  }
  return out;
}

PropellerClient::PropellerClient(NodeId id, net::Transport* transport,
                                 NodeId master, ClientConfig config,
                                 ThreadPool* rpc_pool)
    : id_(id),
      transport_(transport),
      master_(master),
      config_(config),
      rpc_pool_(rpc_pool),
      rpc_attempts_(&metrics_.GetCounter("client.rpc.attempts")),
      rpc_retries_(&metrics_.GetCounter("client.rpc.retries")),
      partial_searches_(&metrics_.GetCounter("client.search.partial")),
      cache_hits_(&metrics_.GetCounter("client.placement_cache.hits")),
      cache_misses_(&metrics_.GetCounter("client.placement_cache.misses")),
      stale_retries_(&metrics_.GetCounter("client.placement_cache.stale_retries")),
      hedges_(&metrics_.GetCounter("client.search.hedges")),
      hedge_wins_(&metrics_.GetCounter("client.search.hedge_wins")),
      hedge_cancelled_(&metrics_.GetCounter("client.search.hedge_cancelled")),
      stale_replica_retries_(
          &metrics_.GetCounter("client.search.stale_replica_retries")),
      shed_searches_(&metrics_.GetCounter("client.search.shed")),
      shed_updates_(&metrics_.GetCounter("client.update.shed")),
      delegated_resolves_(&metrics_.GetCounter("client.resolve.delegated")),
      delegated_fallbacks_(&metrics_.GetCounter("client.resolve.fallback")),
      search_latency_(&metrics_.GetHistogram("client.search.latency_s")),
      update_latency_(&metrics_.GetHistogram("client.batch_update.latency_s")),
      branch_latency_(&metrics_.GetHistogram("client.search.branch_latency_s")) {
  MutexLock lock(cache_mu_);
  cache_epochs_.assign(NumShards(), 0);
}

std::vector<char> PropellerClient::AdvanceEpochsLocked(
    const std::vector<uint64_t>& eps) {
  const uint32_t n = NumShards();
  std::vector<char> current(n, 0);
  std::vector<char> raised(n, 0);
  bool any_raised = false;
  for (uint32_t s = 0; s < n; ++s) {
    if (eps[s] == 0 || eps[s] < cache_epochs_[s]) continue;
    current[s] = 1;
    if (eps[s] > cache_epochs_[s]) {
      cache_epochs_[s] = eps[s];
      raised[s] = 1;
      any_raised = true;
    }
  }
  if (any_raised) {
    // The placement moved on: cached target lists may predate a group made
    // since (by this client's own writes, too), and a raised shard's file
    // placements may have merged, split or moved.
    search_cache_.clear();
    for (auto it = file_cache_.begin(); it != file_cache_.end();) {
      if (raised[ShardOfFile(it->first, n)] != 0) {
        it = file_cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return current;
}

bool PropellerClient::LookupSearchTargets(const std::string& index_name,
                                          ResolveSearchResponse* targets) {
  MutexLock lock(cache_mu_);
  auto it = search_cache_.find(index_name);
  if (it == search_cache_.end()) return false;
  *targets = it->second;
  return true;
}

void PropellerClient::StoreSearchTargets(const std::string& index_name,
                                         const ResolveSearchResponse& resp) {
  MutexLock lock(cache_mu_);
  const std::vector<char> current = AdvanceEpochsLocked(resp.shard_epochs);
  if (std::find(current.begin(), current.end(), 0) != current.end()) return;
  search_cache_[index_name] = resp;
}

void PropellerClient::LookupFilePlacements(
    const std::vector<FileUpdate>& updates,
    std::unordered_map<FileId, FilePlacement>* where,
    std::vector<FileId>* missing) {
  MutexLock lock(cache_mu_);
  for (const FileUpdate& u : updates) {
    if (where->count(u.file) != 0u) continue;
    auto it = file_cache_.find(u.file);
    if (it != file_cache_.end()) {
      (*where)[u.file] = it->second;
    } else {
      missing->push_back(u.file);
    }
  }
}

void PropellerClient::StoreFilePlacements(const ResolveUpdateResponse& resp) {
  const uint32_t n = NumShards();
  MutexLock lock(cache_mu_);
  const std::vector<char> current = AdvanceEpochsLocked(resp.shard_epochs);
  for (const auto& p : resp.placements) {
    const uint32_t shard = ShardOfFile(p.file, n);
    if (current[shard] != 0) {
      file_cache_[p.file] =
          FilePlacement{p.group, p.node, cache_epochs_[shard]};
    }
  }
}

void PropellerClient::InvalidateRoutingCache() {
  MutexLock lock(cache_mu_);
  search_cache_.clear();
  file_cache_.clear();
  // Replica sets are routing too; the floors are not (acked writes stay
  // acked regardless of where the replicas live now).  Lease holders are
  // routing as well: a stale route may mean a holder died or lost its
  // lease, so the next resolve goes to the authoritative master (whose
  // response re-learns the holders).
  replica_cache_.clear();
  lease_holders_.clear();
}

void PropellerClient::StoreLeaseHolders(const std::vector<NodeId>& holders) {
  if (holders.empty()) return;
  MutexLock lock(cache_mu_);
  lease_holders_ = holders;
}

std::vector<NodeId> PropellerClient::SnapshotLeaseHolders() const {
  MutexLock lock(cache_mu_);
  return lease_holders_;
}

bool PropellerClient::ResolveUpdateDelegated(const std::vector<FileId>& files,
                                             ResolveUpdateResponse* out,
                                             sim::Cost* cost) {
  const std::vector<NodeId> holders = SnapshotLeaseHolders();
  const uint32_t n = NumShards();
  if (holders.size() != n) return false;  // no master response seen yet
  // Partition the batch by lease holder, preserving request order within
  // each sub-batch.  Any shard without a holder sends the whole batch to
  // the master: a split answer would still need the master RPC anyway.
  std::map<NodeId, std::vector<FileId>> by_holder;
  for (FileId f : files) {
    const NodeId h = holders[ShardOfFile(f, n)];
    if (h == 0) return false;
    by_holder[h].push_back(f);
  }
  // Fan out to the holders (simulated latency = the slowest branch; a
  // refusal is detected at that branch's completion, so the failed
  // attempt's wait is charged before the master fallback).
  std::unordered_map<FileId, ResolveUpdateResponse::Placement> got;
  std::vector<uint64_t> eps(n, 0);
  std::map<GroupId, GroupReplicaSet> rsets;
  sim::Cost slowest;
  for (const auto& [node, flist] : by_holder) {
    ResolveUpdateRequest rreq;
    rreq.files = flist;
    auto call = CallWithRetry(node, "in.resolve_update", Encode(rreq));
    if (call.cost.seconds() > slowest.seconds()) slowest = call.cost;
    if (!call.status.ok()) {
      *cost += slowest;
      return false;
    }
    auto resolved = Decode<ResolveUpdateResponse>(call.payload);
    if (!resolved.ok()) {
      *cost += slowest;
      return false;
    }
    if (!ValidResolve(*resolved)) {
      *cost += slowest;
      return false;
    }
    for (const auto& p : resolved->placements) got[p.file] = p;
    for (uint32_t s = 0; s < n; ++s) {
      eps[s] = std::max(eps[s], resolved->shard_epochs[s]);
    }
    for (const GroupReplicaSet& rs : resolved->replicas) rsets[rs.group] = rs;
  }
  *cost += slowest;
  // Reassemble in request order — exactly the shape one master resolve
  // would have produced.
  out->placements.clear();
  out->placements.reserve(files.size());
  for (FileId f : files) {
    auto it = got.find(f);
    if (it == got.end()) return false;
    out->placements.push_back(it->second);
  }
  out->replicas.clear();
  for (auto& [g, rs] : rsets) out->replicas.push_back(std::move(rs));
  out->shard_epochs = std::move(eps);
  delegated_resolves_->Add(1);
  return true;
}

bool PropellerClient::ResolveSearchDelegated(const std::string& index_name,
                                             ResolveSearchResponse* out,
                                             sim::Cost* cost) {
  const std::vector<NodeId> holders = SnapshotLeaseHolders();
  const uint32_t n = NumShards();
  if (holders.size() != n) return false;
  std::vector<NodeId> distinct;
  for (NodeId h : holders) {
    if (h == 0) return false;
    distinct.push_back(h);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  // Each holder answers for the shards it holds live leases on; the merged
  // answer is usable only when the union covers every shard (every shard
  // epoch starts at 1, so covered == nonzero).
  std::map<NodeId, std::vector<GroupId>> by_node;
  std::vector<uint64_t> eps(n, 0);
  std::map<GroupId, GroupReplicaSet> rsets;
  sim::Cost slowest;
  const std::string payload = [&] {
    ResolveSearchRequest rreq;
    rreq.index_name = index_name;
    return Encode(rreq);
  }();
  for (NodeId node : distinct) {
    auto call = CallWithRetry(node, "in.resolve_search", std::string(payload));
    if (call.cost.seconds() > slowest.seconds()) slowest = call.cost;
    if (!call.status.ok()) {
      *cost += slowest;
      return false;
    }
    auto resolved = Decode<ResolveSearchResponse>(call.payload);
    if (!resolved.ok()) {
      *cost += slowest;
      return false;
    }
    if (!ValidResolve(*resolved)) {
      *cost += slowest;
      return false;
    }
    for (const auto& t : resolved->targets) {
      auto& groups = by_node[t.node];
      groups.insert(groups.end(), t.groups.begin(), t.groups.end());
    }
    for (uint32_t s = 0; s < n; ++s) {
      eps[s] = std::max(eps[s], resolved->shard_epochs[s]);
    }
    for (const GroupReplicaSet& rs : resolved->replicas) rsets[rs.group] = rs;
  }
  *cost += slowest;
  for (uint32_t s = 0; s < n; ++s) {
    if (eps[s] == 0) return false;  // uncovered shard: lease lapsed mid-merge
  }
  out->targets.clear();
  for (auto& [node, groups] : by_node) {
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    out->targets.push_back({node, std::move(groups)});
  }
  out->replicas.clear();
  for (auto& [g, rs] : rsets) out->replicas.push_back(std::move(rs));
  out->shard_epochs = std::move(eps);
  delegated_resolves_->Add(1);
  return true;
}

void PropellerClient::StoreReplicaSets(
    const std::vector<GroupReplicaSet>& sets) {
  if (sets.empty()) return;
  MutexLock lock(cache_mu_);
  for (const GroupReplicaSet& rs : sets) replica_cache_[rs.group] = rs.nodes;
}

std::unordered_map<GroupId, std::vector<NodeId>>
PropellerClient::SnapshotReplicaSets() const {
  MutexLock lock(cache_mu_);
  return replica_cache_;
}

void PropellerClient::RecordAckedSeq(GroupId group, uint64_t seq) {
  if (seq == 0) return;
  MutexLock lock(cache_mu_);
  uint64_t& floor = seq_floor_[group];
  floor = std::max(floor, seq);
}

std::unordered_map<GroupId, uint64_t> PropellerClient::SnapshotSeqFloors()
    const {
  MutexLock lock(cache_mu_);
  return seq_floor_;
}

double PropellerClient::HedgeThreshold() const {
  const ClientConfig::HedgePolicy& hp = config_.hedge;
  if (branch_latency_->count() < hp.min_samples) {
    return std::numeric_limits<double>::infinity();
  }
  const double q = branch_latency_->Snapshot().Percentile(hp.quantile * 100.0);
  return std::max(hp.min_s, q);
}

void PropellerClient::AttachVfs(fs::Vfs* vfs) { vfs->AddListener(&builder_); }

Result<sim::Cost> PropellerClient::FlushAcg() {
  if (!builder_.HasPendingDelta()) return sim::Cost::Zero();
  obs::TraceRoot root(tracer_, "client.flush_acg", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  FlushAcgRequest req;
  req.delta = builder_.TakeDelta();
  auto call = CallWithRetry(master_, "mn.flush_acg", Encode(req));
  if (!call.status.ok()) return call.status;
  return call.cost;
}

Result<sim::Cost> PropellerClient::CreateIndex(const IndexSpec& spec) {
  obs::TraceRoot root(tracer_, "client.create_index", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  CreateIndexRequest req;
  req.spec = spec;
  auto call = CallWithRetry(master_, "mn.create_index", Encode(req));
  if (!call.status.ok()) return call.status;
  return call.cost;
}

Result<sim::Cost> PropellerClient::BatchUpdate(std::vector<FileUpdate> updates,
                                               double now_s, bool admission) {
  if (updates.empty()) return sim::Cost::Zero();
  obs::TraceRoot root(tracer_, "client.batch_update", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  root.Tag("updates", static_cast<uint64_t>(updates.size()));
  sim::Cost cost;
  const uint32_t num_shards = NumShards();

  // Routing: the placement cache answers what it can; the rest is resolved
  // in one batch.
  std::unordered_map<FileId, FilePlacement> where;
  where.reserve(updates.size());
  std::vector<FileId> need;
  LookupFilePlacements(updates, &where, &need);
  cache_hits_->Add(where.size());
  cache_misses_->Add(need.size());

  // Resolves placements for `files` — through the lease holders when
  // delegation is on and they can answer, through the master otherwise —
  // and merges them into `where`, each stamped with the epoch it was
  // resolved at.  A `repair` resolves at the master and its placements go
  // out unstamped: the master pushes before it answers, so the answer is
  // as new as anything a node knew when it refused, and a node that knows
  // newer still learned it from an operation concurrent with this batch —
  // the paper's resolve-then-stage ordering, not a staleness to repair.
  auto resolve = [&](std::vector<FileId> files, bool repair) -> Status {
    ResolveUpdateResponse resolved;
    bool delegated = false;
    if (config_.placement_leases && !repair) {
      delegated = ResolveUpdateDelegated(files, &resolved, &cost);
      if (!delegated) delegated_fallbacks_->Add(1);
    }
    if (!delegated) {
      ResolveUpdateRequest rreq;
      rreq.files = std::move(files);
      // Open-loop traffic stamps the resolve's arrival so the master can
      // model per-shard queueing (0 = unstamped).
      rreq.arrival_s = admission ? now_s : 0;
      auto rcall = CallWithRetry(master_, "mn.resolve_update", Encode(rreq));
      if (!rcall.status.ok()) return rcall.status;
      cost += rcall.cost;
      auto decoded = Decode<ResolveUpdateResponse>(rcall.payload);
      if (!decoded.ok()) return decoded.status();
      if (!ValidResolve(*decoded)) {
        return Status::Corruption("resolve names the wrong shard count");
      }
      resolved = std::move(*decoded);
      if (config_.placement_leases) StoreLeaseHolders(resolved.lease_holders);
    }
    for (const auto& p : resolved.placements) {
      where[p.file] = FilePlacement{
          p.group, p.node,
          repair ? 0 : resolved.shard_epochs[ShardOfFile(p.file, num_shards)]};
    }
    if (config_.replicated) StoreReplicaSets(resolved.replicas);
    StoreFilePlacements(resolved);
    return Status::Ok();
  };
  if (!need.empty()) {
    PROPELLER_RETURN_IF_ERROR(resolve(std::move(need), /*repair=*/false));
  }
  // Replicated mode: the replica set each shipment must fan to.  Cached
  // placements reuse the memoized sets; a fresh resolve just refilled them.
  std::unordered_map<GroupId, std::vector<NodeId>> rsets;
  if (config_.replicated) rsets = SnapshotReplicaSets();

  // Bucket updates per group (a group's primary lives on exactly one
  // node): a flat vector filled through a reserved hash index, then whole
  // buckets sorted by (node, group) so shipment order is deterministic.
  // A bucket is stamped with the oldest epoch any of its placements was
  // resolved at (a group's files share its shard).
  struct Bucket {
    NodeId node = 0;
    GroupId group = 0;
    uint64_t epoch = 0;
    std::vector<FileUpdate> updates;
  };
  auto make_buckets = [&](std::vector<FileUpdate> batch,
                          std::vector<Bucket>* out) -> Status {
    std::unordered_map<GroupId, size_t> bucket_of;
    bucket_of.reserve(batch.size());
    for (FileUpdate& u : batch) {
      auto it = where.find(u.file);
      if (it == where.end()) {
        return Status::Internal("master did not place file");
      }
      const FilePlacement& at = it->second;
      auto [slot, fresh] = bucket_of.try_emplace(at.group, out->size());
      if (fresh) out->push_back(Bucket{at.node, at.group, at.epoch, {}});
      Bucket& bucket = (*out)[slot->second];
      bucket.epoch = std::min(bucket.epoch, at.epoch);
      bucket.updates.push_back(std::move(u));
    }
    std::sort(out->begin(), out->end(), [](const Bucket& a, const Bucket& b) {
      return std::tie(a.node, a.group) < std::tie(b.node, b.group);
    });
    return Status::Ok();
  };

  // One group's write: the replicas it goes to ([0] = primary = the
  // resolved node; one entry unless replicated) and, per replica, the
  // first failure any of its sections met.  A replica's slot is written
  // only by the shipment to that replica's node, so concurrent node
  // shipments never share a slot.
  struct GroupWrite {
    GroupId group = 0;
    std::vector<NodeId> replicas;
    std::vector<Status> replica_status;
    Status status;  // the group's verdict once every node has answered
  };
  // One section of one stage message: updates [begin, end) of a write's
  // bucket, bound for replica `replica` of that write.
  struct SectionRef {
    size_t write = 0;
    size_t replica = 0;
    size_t begin = 0;
    size_t end = 0;
  };
  struct Message {
    std::vector<SectionRef> sections;
    std::string payload;
  };
  // Everything one node receives from this batch: its stage messages,
  // sent in order, and what the client waited on for them.
  struct NodeShipment {
    NodeId node = 0;
    std::vector<Message> messages;
    sim::Cost cost;
  };
  // Lays every bucket out as per-node messages of at most update_batch
  // updates (a node's sections in group order; a group may straddle two
  // messages) and encodes each message once, as soon as it is laid out.
  // A group's last replica to be encoded takes its updates by move; the
  // others copy them.
  auto make_shipments = [&](std::vector<Bucket> buckets,
                            std::vector<GroupWrite>* writes,
                            std::vector<NodeShipment>* out) {
    writes->reserve(buckets.size());
    std::map<NodeId, std::vector<std::pair<size_t, size_t>>> by_node;
    for (size_t w = 0; w < buckets.size(); ++w) {
      const Bucket& bucket = buckets[w];
      GroupWrite gw;
      gw.group = bucket.group;
      gw.replicas = {bucket.node};
      if (config_.replicated) {
        auto it = rsets.find(bucket.group);
        if (it != rsets.end() && !it->second.empty()) {
          gw.replicas = it->second;
          // The resolved node is authoritative for where the primary lives
          // right now; a stale memoized set keeps the secondaries only.
          gw.replicas.front() = bucket.node;
          gw.replicas.erase(std::remove(gw.replicas.begin() + 1,
                                        gw.replicas.end(), bucket.node),
                            gw.replicas.end());
        }
      }
      gw.replica_status.resize(gw.replicas.size());
      for (size_t j = 0; j < gw.replicas.size(); ++j) {
        by_node[gw.replicas[j]].emplace_back(w, j);
      }
      writes->push_back(std::move(gw));
    }
    std::vector<size_t> encoded(buckets.size(), 0);  // replicas done per write
    out->reserve(by_node.size());
    for (auto& [node, refs] : by_node) {
      std::sort(refs.begin(), refs.end(), [&](const auto& a, const auto& b) {
        return buckets[a.first].group < buckets[b.first].group;
      });
      NodeShipment ns;
      ns.node = node;
      size_t rows = config_.update_batch;  // forces the first message
      for (const auto& [w, j] : refs) {
        const size_t n = buckets[w].updates.size();
        for (size_t off = 0; off < n;) {
          if (rows == config_.update_batch) {
            ns.messages.emplace_back();
            rows = 0;
          }
          const size_t take = std::min(n - off, config_.update_batch - rows);
          ns.messages.back().sections.push_back(
              SectionRef{w, j, off, off + take});
          off += take;
          rows += take;
        }
      }
      for (Message& m : ns.messages) {
        StageUpdatesRequest req;
        req.now_s = now_s;
        req.admission = admission ? 1 : 0;
        req.sections.resize(m.sections.size());
        for (size_t k = 0; k < m.sections.size(); ++k) {
          const SectionRef& ref = m.sections[k];
          StageSection& section = req.sections[k];
          section.group = buckets[ref.write].group;
          section.epoch = buckets[ref.write].epoch;
          if (config_.replicated) {
            section.replica_role =
                ref.replica == 0 ? kReplicaRolePrimary : kReplicaRoleSecondary;
          }
          std::vector<FileUpdate>& src = buckets[ref.write].updates;
          auto first = src.begin() + static_cast<long>(ref.begin);
          auto last = src.begin() + static_cast<long>(ref.end);
          if (encoded[ref.write] + 1 == (*writes)[ref.write].replicas.size()) {
            section.updates.assign(std::make_move_iterator(first),
                                   std::make_move_iterator(last));
          } else {
            section.updates.assign(first, last);
          }
        }
        m.payload = Encode(req);
      }
      for (const auto& ref : refs) ++encoded[ref.first];
      out->push_back(std::move(ns));
    }
  };

  // Stage on the Index Nodes: one shipment per destination node.  Nodes
  // proceed in parallel (simulated cost = the slowest node); a node takes
  // its messages in order.  With an RPC pool the node shipments also run
  // concurrently in wall-clock time; per-section costs are
  // state-independent WAL appends, so the aggregate matches the serial
  // run exactly.  Every node branch starts from the cursor captured at
  // the fan-out instant — in serial mode too — so span timestamps mirror
  // the cost model regardless of execution order.
  // Every node is attempted even when another fails — partial-failure
  // semantics: independent groups still land, and the error below names
  // exactly the (node, group) pairs that did not.  Once one of a group's
  // sections fails on a node, its later sections are withheld from that
  // node, so a repair never reorders a group's updates.
  // The sent copies survive the send: a repair pass decodes them to
  // recover the failed sections' updates.
  auto ship_all = [&](std::vector<NodeShipment>& ships,
                      std::vector<GroupWrite>& writes,
                      const obs::TraceCursor& base) {
    auto failed = [&](const SectionRef& ref) {
      return !writes[ref.write].replica_status[ref.replica].ok();
    };
    auto ship_one = [&](size_t i) {
      obs::ScopedTraceCursor branch(base);
      NodeShipment& ns = ships[i];
      for (Message& m : ns.messages) {
        std::vector<SectionRef> live;
        std::string payload;
        if (std::none_of(m.sections.begin(), m.sections.end(), failed)) {
          live = m.sections;
          payload = m.payload;
        } else {
          // Failure path only: re-encode without the withheld sections.
          auto req = Decode<StageUpdatesRequest>(m.payload);
          if (!req.ok()) {
            for (const SectionRef& ref : m.sections) {
              Status& slot = writes[ref.write].replica_status[ref.replica];
              if (slot.ok()) slot = req.status();
            }
            continue;
          }
          std::vector<StageSection> kept;
          for (size_t k = 0; k < m.sections.size(); ++k) {
            if (failed(m.sections[k])) continue;
            live.push_back(m.sections[k]);
            kept.push_back(std::move(req->sections[k]));
          }
          if (live.empty()) continue;
          req->sections = std::move(kept);
          payload = Encode(*req);
        }
        auto call = CallWithRetry(ns.node, "in.stage_updates",
                                  std::move(payload));
        ns.cost += call.cost;
        Status st = call.status;
        StageUpdatesResponse resp;
        if (st.ok()) {
          auto decoded = Decode<StageUpdatesResponse>(call.payload);
          if (!decoded.ok()) {
            st = decoded.status();
          } else if (decoded->sections.size() != live.size()) {
            st = Status::Internal("stage response section count mismatch");
          } else {
            resp = std::move(*decoded);
          }
        }
        for (size_t k = 0; k < live.size(); ++k) {
          const SectionRef& ref = live[k];
          Status& slot = writes[ref.write].replica_status[ref.replica];
          if (!st.ok()) {
            slot = st;
            continue;
          }
          const StageUpdatesResponse::SectionResult& res = resp.sections[k];
          if (res.code != StatusCode::kOk) {
            slot = Status(res.code, "stage section rejected");
          } else if (ref.replica == 0 && config_.replicated) {
            // The primary acks the committed sequence for read-your-writes.
            RecordAckedSeq(writes[ref.write].group, res.seq);
          }
        }
      }
    };
    if (rpc_pool_ != nullptr && ships.size() > 1) {
      auto futures = rpc_pool_->SubmitBatch(ships.size(), ship_one);
      ThreadPool::WaitAll(futures);
    } else {
      for (size_t i = 0; i < ships.size(); ++i) ship_one(i);
    }
    // Per-group verdicts.  The primary's journal append is the durable
    // copy, so its failure fails the group outright; secondaries only
    // count toward the quorum = primary + floor((r-1)/2) secondaries (r=2
    // needs the primary alone; r=3 needs one secondary; ...).
    for (GroupWrite& gw : writes) {
      gw.status = gw.replica_status[0];
      if (!gw.status.ok()) continue;
      const size_t required = (gw.replicas.size() - 1) / 2;
      const size_t acks = static_cast<size_t>(
          std::count_if(gw.replica_status.begin() + 1, gw.replica_status.end(),
                        [](const Status& s) { return s.ok(); }));
      if (acks < required) {
        gw.status = Status::Unavailable(
            "write quorum not reached for group " + std::to_string(gw.group) +
            " (" + std::to_string(acks) + "/" + std::to_string(required) +
            " secondary acks)");
      }
    }
  };
  // Joins a completed fan-out: the client resumes when the slowest node's
  // shipment finishes.
  auto join = [&](const std::vector<NodeShipment>& ships,
                  const obs::TraceCursor& base) {
    std::vector<sim::Cost> branches;
    branches.reserve(ships.size());
    for (const NodeShipment& ns : ships) branches.push_back(ns.cost);
    const sim::Cost slowest = sim::Cost::ParallelMax(branches);
    cost += slowest;
    if (obs::CurrentTrace().active()) {
      obs::CurrentTrace().now_s = base.now_s + slowest.seconds();
    }
  };

  std::vector<Bucket> buckets;
  PROPELLER_RETURN_IF_ERROR(make_buckets(std::move(updates), &buckets));
  std::vector<GroupWrite> writes;
  std::vector<NodeShipment> shipments;
  make_shipments(std::move(buckets), &writes, &shipments);
  const obs::TraceCursor fanout_base = obs::CurrentTrace();
  ship_all(shipments, writes, fanout_base);

  // Sort failures: repairable by one re-resolve at the master (stale
  // routing; a group gone from the node a placement named; or an
  // unreachable node — the master may have re-homed its groups, or
  // promoted a secondary after a quorum miss) vs fatal.
  auto is_repairable = [](const Status& st) {
    return st.code() == StatusCode::kStaleLocation ||
           st.code() == StatusCode::kNotFound ||
           st.code() == StatusCode::kUnavailable;
  };
  // Names every failed group by its primary: (node, group) pairs.
  auto partial_failure = [&](const std::vector<GroupWrite>& ws) {
    StatusCode code = StatusCode::kOk;
    std::string failed;
    for (const GroupWrite& gw : ws) {
      if (gw.status.ok()) continue;
      if (code == StatusCode::kOk) code = gw.status.code();
      if (!failed.empty()) failed += "; ";
      failed += "node " + std::to_string(gw.replicas[0]) + " group " +
                std::to_string(gw.group) + ": " + gw.status.ToString();
    }
    return Status(code, "batch update partially failed (" + failed + ")");
  };
  // Shed groups (kOverloaded) are deliberately NOT repairable: the node
  // refused the work because its queue is full, and re-offering it
  // immediately is exactly the retry storm admission control exists to
  // prevent.  They surface in the returned status; the counter lets
  // open-loop drivers account shed write load.
  auto count_shed = [&](const std::vector<GroupWrite>& ws) {
    for (const GroupWrite& gw : ws) {
      if (gw.status.code() == StatusCode::kOverloaded) shed_updates_->Add(1);
    }
  };
  bool retry = false;
  for (const GroupWrite& gw : writes) {
    if (gw.status.ok()) continue;
    if (!is_repairable(gw.status)) {
      count_shed(writes);
      return partial_failure(writes);
    }
    retry = true;
  }

  if (retry) {
    // Exactly one repair pass: drop the cache, re-resolve the failed
    // groups' files at the master (a lease holder's mirror may be the very
    // thing that is stale), and re-ship just those updates.  The client waited
    // on the whole first fan-out, so its slowest node lands in the cost
    // before the repair begins.
    join(shipments, fanout_base);
    stale_retries_->Add(1);
    InvalidateRoutingCache();
    // Recover the failed groups' updates from the primaries' encoded
    // sections (the happy path never keeps a second copy).  A group's
    // primary sections all sit on one node, in order.
    std::vector<FileUpdate> failed_updates;
    std::vector<FileId> files;
    for (const NodeShipment& ns : shipments) {
      for (const Message& m : ns.messages) {
        auto wanted = [&](const SectionRef& ref) {
          return ref.replica == 0 && !writes[ref.write].status.ok();
        };
        if (std::none_of(m.sections.begin(), m.sections.end(), wanted)) {
          continue;
        }
        auto req = Decode<StageUpdatesRequest>(m.payload);
        if (!req.ok()) return req.status();
        for (size_t k = 0; k < m.sections.size(); ++k) {
          if (!wanted(m.sections[k])) continue;
          for (FileUpdate& u : req->sections[k].updates) {
            files.push_back(u.file);
            failed_updates.push_back(std::move(u));
          }
        }
      }
    }
    PROPELLER_RETURN_IF_ERROR(resolve(std::move(files), /*repair=*/true));
    if (config_.replicated) rsets = SnapshotReplicaSets();
    std::vector<Bucket> retry_buckets;
    PROPELLER_RETURN_IF_ERROR(
        make_buckets(std::move(failed_updates), &retry_buckets));
    std::vector<GroupWrite> retry_writes;
    std::vector<NodeShipment> retry_shipments;
    make_shipments(std::move(retry_buckets), &retry_writes, &retry_shipments);
    const obs::TraceCursor retry_base = obs::CurrentTrace();
    ship_all(retry_shipments, retry_writes, retry_base);
    if (std::any_of(retry_writes.begin(), retry_writes.end(),
                    [](const GroupWrite& gw) { return !gw.status.ok(); })) {
      count_shed(retry_writes);
      return partial_failure(retry_writes);
    }
    join(retry_shipments, retry_base);
  } else {
    join(shipments, fanout_base);
  }
  update_latency_->Observe(cost.seconds());
  return cost;
}

Result<PropellerClient::SearchOutcome> PropellerClient::Search(
    const Predicate& predicate, const std::string& index_name,
    double arrival_s) {
  SearchOutcome out;
  obs::TraceRoot root(tracer_, "client.search", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  if (!index_name.empty()) root.Tag("index", index_name);
  const bool replicated = config_.replicated;
  const bool hedging = replicated && config_.hedge.enabled;

  // Routing: the placement cache answers repeat searches without touching
  // the master; a miss costs one resolve RPC (to the lease holders when
  // they can answer), memoized.  A `repair` resolves at the master and its
  // fan-out goes out unstamped (see BatchUpdate's resolve).
  ResolveSearchResponse targets;
  bool from_cache = false;
  auto resolve = [&](bool repair) -> Status {
    bool delegated = false;
    if (config_.placement_leases && !repair) {
      ResolveSearchResponse merged;
      delegated = ResolveSearchDelegated(index_name, &merged, &out.cost);
      if (delegated) {
        targets = std::move(merged);
      } else {
        delegated_fallbacks_->Add(1);
      }
    }
    if (!delegated) {
      ResolveSearchRequest rreq;
      rreq.index_name = index_name;
      // Open-loop traffic stamps the resolve's arrival so the master can
      // model per-shard queueing (0 = unstamped).
      rreq.arrival_s = arrival_s;
      auto rcall = CallWithRetry(master_, "mn.resolve_search", Encode(rreq));
      if (!rcall.status.ok()) return rcall.status;
      out.cost += rcall.cost;
      auto decoded = Decode<ResolveSearchResponse>(rcall.payload);
      if (!decoded.ok()) return decoded.status();
      if (!ValidResolve(*decoded)) {
        return Status::Corruption("resolve names the wrong shard count");
      }
      targets = std::move(*decoded);
      if (config_.placement_leases) StoreLeaseHolders(targets.lease_holders);
    }
    if (replicated) StoreReplicaSets(targets.replicas);
    StoreSearchTargets(index_name, targets);
    return Status::Ok();
  };
  if (LookupSearchTargets(index_name, &targets)) {
    from_cache = true;
    cache_hits_->Add(1);
  } else {
    cache_misses_->Add(1);
    PROPELLER_RETURN_IF_ERROR(resolve(/*repair=*/false));
  }

  for (int attempt = 0;; ++attempt) {
    // The placement version the targets were resolved at: the sum of their
    // shard epochs, which every epoch bump raises (a repair's retry is
    // unstamped).
    uint64_t version = 0;
    if (attempt == 0) {
      for (uint64_t e : targets.shard_epochs) version += e;
    }
    // Fan out to every Index Node — concurrently when an RPC pool is
    // attached, serially otherwise.  Payloads are encoded up front and
    // responses aggregated in target order, so both modes produce identical
    // results and simulated costs.
    const size_t n = targets.targets.size();
    std::vector<std::string> payloads(n);
    std::unordered_map<GroupId, uint64_t> floors;
    if (replicated) floors = SnapshotSeqFloors();
    auto append_floors = [&](const std::vector<GroupId>& groups,
                             SearchRequest* sreq) {
      for (GroupId g : groups) {
        auto it = floors.find(g);
        if (it != floors.end() && it->second > 0) {
          sreq->min_seqs.push_back({g, it->second});
        }
      }
    };
    for (size_t i = 0; i < n; ++i) {
      SearchRequest sreq;
      sreq.groups = targets.targets[i].groups;
      sreq.predicate = predicate;
      sreq.epoch = version;
      if (replicated) append_floors(sreq.groups, &sreq);
      sreq.arrival_s = arrival_s;
      payloads[i] = Encode(sreq);
    }
    // Hedge plan: per branch, the groups' first secondaries bucketed by
    // node (deterministic order).  A branch is hedge-eligible only when
    // every one of its groups has a secondary — a partial hedge could
    // "win" with whole groups missing from the result.
    std::vector<std::vector<std::pair<NodeId, std::vector<GroupId>>>>
        hedge_plan(n);
    if (hedging) {
      std::unordered_map<GroupId, const GroupReplicaSet*> set_of;
      set_of.reserve(targets.replicas.size());
      for (const GroupReplicaSet& rs : targets.replicas) {
        set_of[rs.group] = &rs;
      }
      for (size_t i = 0; i < n; ++i) {
        std::map<NodeId, std::vector<GroupId>> by_secondary;
        size_t covered = 0;
        for (GroupId g : targets.targets[i].groups) {
          auto it = set_of.find(g);
          if (it == set_of.end() || it->second->nodes.size() < 2) continue;
          by_secondary[it->second->nodes[1]].push_back(g);
          ++covered;
        }
        if (covered > 0 && covered == targets.targets[i].groups.size()) {
          hedge_plan[i].assign(by_secondary.begin(), by_secondary.end());
        }
      }
    }
    // Per-branch outcome: status + decoded files + simulated latency (the
    // hedged effective latency when a hedge fired).
    struct Branch {
      Status status;
      std::vector<FileId> files;
      sim::Cost cost;
      bool decode_failed = false;  // undecodable response: always fatal
    };
    std::vector<Branch> branches_res(n);
    // Branches fork from the cursor captured here (also in serial mode), so
    // fan-out span timestamps match the cost model's parallel composition.
    const obs::TraceCursor fanout_base = obs::CurrentTrace();
    auto call_one = [&](size_t i) {
      obs::ScopedTraceCursor branch(fanout_base);
      Branch& b = branches_res[i];
      const NodeId primary = targets.targets[i].node;
      auto decode_into = [](const std::string& payload, NodeId node,
                            std::vector<FileId>* files) -> Status {
        auto resp = Decode<SearchResponse>(payload);
        if (!resp.ok()) {
          return Status(resp.status().code(),
                        "search response from node " + std::to_string(node) +
                            " undecodable: " + resp.status().ToString());
        }
        files->insert(files->end(), resp->files.begin(), resp->files.end());
        return Status::Ok();
      };
      auto pcall = CallWithRetry(primary, "in.search", std::move(payloads[i]));
      const double c1 = pcall.cost.seconds();
      const bool primary_ok = pcall.status.ok();
      bool fire = false;
      double threshold = 0;
      // A shed primary (kOverloaded) never hedges: the hedge would dump
      // the refused load straight onto the replica of an already saturated
      // group — backpressure must reach the caller, not move sideways.
      const bool shed =
          !primary_ok && pcall.status.code() == StatusCode::kOverloaded;
      if (!hedge_plan[i].empty() && !shed) {
        threshold = HedgeThreshold();
        fire = !primary_ok || c1 > threshold;
      }
      // Only unhedged latencies train the quantile: a branch slow enough
      // to hedge is exactly the outlier the threshold exists to catch, and
      // feeding it back would drag the quantile up toward the straggler
      // until hedging turns itself off.
      if (primary_ok && !fire) branch_latency_->Observe(c1);
      if (!fire) {
        b.status = pcall.status;
        b.cost = pcall.cost;
        if (b.status.ok()) {
          b.status = decode_into(pcall.payload, primary, &b.files);
          b.decode_failed = !b.status.ok();
        }
        return;
      }
      // Hedge: re-issue the branch at each group's first secondary.  It
      // launches at t_hedge — the latency-quantile threshold when the
      // primary is merely slow (the client cannot know earlier that it
      // will be slow), or the primary's failure instant.  First complete
      // response wins; the loser is cancelled, its cost still accounted
      // up to the winner's completion.
      hedges_->Add(1);
      const double t_hedge = primary_ok ? std::min(c1, threshold) : c1;
      Status hstatus;
      std::vector<FileId> hedge_files;
      double hedge_cost = 0;
      {
        obs::ScopedTraceCursor hedge_cursor(fanout_base);
        if (obs::CurrentTrace().active()) {
          obs::CurrentTrace().now_s = fanout_base.now_s + t_hedge;
        }
        obs::SpanGuard hedge_span("search.hedged",
                                  static_cast<uint64_t>(primary) ^
                                      (static_cast<uint64_t>(i + 1) << 48));
        hedge_span.Tag("primary", static_cast<uint64_t>(primary));
        hedge_span.Tag("launch_us", static_cast<uint64_t>(t_hedge * 1e6));
        const obs::TraceCursor hedge_base = obs::CurrentTrace();
        for (const auto& [secondary, sgroups] : hedge_plan[i]) {
          SearchRequest hreq;
          hreq.groups = sgroups;
          hreq.predicate = predicate;
          hreq.epoch = version;
          append_floors(sgroups, &hreq);
          hreq.arrival_s = arrival_s;
          obs::ScopedTraceCursor secondary_cursor(hedge_base);
          // A hedge is a fresh call launched t_hedge into the request: it
          // starts its own retry budget but shares the request deadline.
          auto hcall =
              CallWithRetry(secondary, "in.search", Encode(hreq), t_hedge);
          hedge_cost = std::max(hedge_cost, hcall.cost.seconds());
          if (!hstatus.ok()) continue;  // already failed; cost still counts
          if (!hcall.status.ok()) {
            hstatus = hcall.status;
            continue;
          }
          hstatus = decode_into(hcall.payload, secondary, &hedge_files);
        }
      }
      const bool hedge_ok = hstatus.ok();
      const double hedge_done = t_hedge + hedge_cost;
      if (hedge_ok && (!primary_ok || hedge_done < c1)) {
        // The hedge came back first (or the primary never will).
        hedge_wins_->Add(1);
        b.status = Status::Ok();
        b.files = std::move(hedge_files);
        b.cost = sim::Cost(primary_ok ? std::min(c1, hedge_done) : hedge_done);
      } else if (primary_ok) {
        // Primary finished first after all — cancel the hedge.
        hedge_cancelled_->Add(1);
        b.status = decode_into(pcall.payload, primary, &b.files);
        b.decode_failed = !b.status.ok();
        b.cost = sim::Cost(c1);
      } else {
        // Both sides failed; the primary's error names the real problem
        // and the client waited through the hedge too.
        hedge_cancelled_->Add(1);
        b.status = pcall.status;
        b.cost = sim::Cost(std::max(c1, hedge_done));
      }
    };
    if (rpc_pool_ != nullptr && n > 1) {
      auto futures = rpc_pool_->SubmitBatch(n, call_one);
      ThreadPool::WaitAll(futures);
    } else {
      for (size_t i = 0; i < n; ++i) call_one(i);
    }

    // Stale routing?  kStaleLocation (a node knows a newer placement than
    // the targets) always means yes; kUnavailable on a cached route may
    // mean the node died and the master re-homed its groups; kStaleReplica
    // means a replica has not caught up to this client's acked writes — by
    // the retry, anti-entropy or a promotion catch-up has usually closed
    // the gap.  Either way: one re-resolve at the master, one full retry —
    // never a loop.
    if (attempt == 0) {
      bool stale = false;
      bool stale_replica = false;
      for (size_t i = 0; i < n; ++i) {
        const StatusCode code = branches_res[i].status.code();
        if (code == StatusCode::kStaleLocation) stale = true;
        if (from_cache && code == StatusCode::kUnavailable) stale = true;
        if (replicated && code == StatusCode::kStaleReplica) {
          stale_replica = true;
        }
      }
      if (stale || stale_replica) {
        // The client waited on the whole stale fan-out; account its
        // slowest branch before the repair.
        std::vector<sim::Cost> waited;
        waited.reserve(n);
        for (const Branch& b : branches_res) waited.push_back(b.cost);
        out.cost += sim::Cost::ParallelMax(waited);
        if (obs::CurrentTrace().active()) {
          obs::CurrentTrace().now_s =
              fanout_base.now_s + sim::Cost::ParallelMax(waited).seconds();
        }
        if (stale) stale_retries_->Add(1);
        if (stale_replica) {
          stale_replica_retries_->Add(1);
          root.Tag("stale_replica_retry", "true");
        }
        if (stale) root.Tag("stale_retry", "true");
        InvalidateRoutingCache();
        PROPELLER_RETURN_IF_ERROR(resolve(/*repair=*/true));
        from_cache = false;
        continue;
      }
    }

    // Aggregate file ids; the simulated fan-out latency is the slowest
    // branch (failed branches included — the client waited on them too).  A
    // failed branch either degrades the outcome (allow_partial_search) or
    // fails the whole search with an error naming the node, never silently.
    std::vector<sim::Cost> branches;
    branches.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const NodeId node = targets.targets[i].node;
      Branch& b = branches_res[i];
      branches.push_back(b.cost);
      if (!b.status.ok()) {
        if (b.status.code() == StatusCode::kOverloaded) {
          out.overloaded = true;
          shed_searches_->Add(1);
        }
        if (b.decode_failed) return b.status;
        if (!config_.allow_partial_search) {
          return Status(b.status.code(),
                        "search fan-out to node " + std::to_string(node) +
                            " failed: " + b.status.ToString());
        }
        out.partial = true;
        out.node_errors.push_back({node, b.status});
        continue;
      }
      out.files.insert(out.files.end(), b.files.begin(), b.files.end());
      ++out.nodes_queried;
    }
    out.cost += sim::Cost::ParallelMax(branches);
    if (obs::CurrentTrace().active()) {
      obs::CurrentTrace().now_s =
          fanout_base.now_s + sim::Cost::ParallelMax(branches).seconds();
    }
    break;
  }
  std::sort(out.files.begin(), out.files.end());
  out.files.erase(std::unique(out.files.begin(), out.files.end()),
                  out.files.end());
  if (out.partial) {
    partial_searches_->Add(1);
    root.Tag("partial", "true");
  }
  root.Tag("nodes", static_cast<uint64_t>(out.nodes_queried));
  root.Tag("files", static_cast<uint64_t>(out.files.size()));
  search_latency_->Observe(out.cost.seconds());
  return out;
}

Result<PropellerClient::SearchOutcome> PropellerClient::SearchQuery(
    const std::string& query, int64_t now_s) {
  auto parsed = ParseQuery(query, now_s);
  if (!parsed.ok()) return parsed.status();
  return Search(parsed->predicate);
}

}  // namespace propeller::core
