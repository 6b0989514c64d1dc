#include "core/proto.h"

namespace propeller::core {

namespace {

// Trailing-optional epoch encoding: written only when non-zero so that
// messages from epoch-less senders (read_path_caching off) are byte-for-
// byte identical to the pre-epoch wire format — the transport charges
// message sizes, so this is what keeps the feature cost-free when off.
void PutTrailingEpoch(BinaryWriter& w, uint64_t epoch) {
  if (epoch != 0) w.PutU64(epoch);
}

Status GetTrailingEpoch(BinaryReader& r, uint64_t& epoch) {
  epoch = 0;
  if (r.AtEnd()) return Status::Ok();
  return r.GetU64(epoch);
}

// Trailing replica-set section (replication).  Follows the trailing
// epoch, so when the section is written the epoch always is too (its real
// value, possibly 0) — the decoder can then distinguish "epoch only" from
// "epoch + replicas" purely by remaining bytes.
void PutTrailingReplicas(BinaryWriter& w, uint64_t epoch,
                         const std::vector<GroupReplicaSet>& replicas) {
  if (replicas.empty()) {
    PutTrailingEpoch(w, epoch);
    return;
  }
  w.PutU64(epoch);
  w.PutU32(static_cast<uint32_t>(replicas.size()));
  for (const GroupReplicaSet& rs : replicas) {
    w.PutU64(rs.group);
    w.PutU32(static_cast<uint32_t>(rs.nodes.size()));
    for (NodeId n : rs.nodes) w.PutU32(n);
  }
}

Status GetTrailingReplicas(BinaryReader& r, uint64_t& epoch,
                           std::vector<GroupReplicaSet>& replicas) {
  replicas.clear();
  PROPELLER_RETURN_IF_ERROR(GetTrailingEpoch(r, epoch));
  if (r.AtEnd()) return Status::Ok();
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  for (uint32_t i = 0; i < n; ++i) {
    GroupReplicaSet rs;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(rs.group));
    uint32_t nn = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(nn));
    for (uint32_t j = 0; j < nn; ++j) {
      NodeId node = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(node));
      rs.nodes.push_back(node);
    }
    replicas.push_back(std::move(rs));
  }
  return Status::Ok();
}

// Trailing shard sections (sharded master): a per-shard epoch vector, then
// a per-shard lease-holder vector.  Either one being present forces every
// earlier trailing section onto the wire (epoch with its real value,
// possibly 0; replicas with a possibly-zero count) so the decoder can walk
// the sections purely by remaining bytes.  Both absent reduces to the
// legacy PutTrailingReplicas bytes.
void PutTrailingShardSections(BinaryWriter& w, uint64_t epoch,
                              const std::vector<GroupReplicaSet>& replicas,
                              const std::vector<uint64_t>& shard_epochs,
                              const std::vector<NodeId>& lease_holders) {
  if (shard_epochs.empty() && lease_holders.empty()) {
    PutTrailingReplicas(w, epoch, replicas);
    return;
  }
  w.PutU64(epoch);
  w.PutU32(static_cast<uint32_t>(replicas.size()));
  for (const GroupReplicaSet& rs : replicas) {
    w.PutU64(rs.group);
    w.PutU32(static_cast<uint32_t>(rs.nodes.size()));
    for (NodeId n : rs.nodes) w.PutU32(n);
  }
  w.PutU32(static_cast<uint32_t>(shard_epochs.size()));
  for (uint64_t e : shard_epochs) w.PutU64(e);
  if (!lease_holders.empty()) {
    w.PutU32(static_cast<uint32_t>(lease_holders.size()));
    for (NodeId n : lease_holders) w.PutU32(n);
  }
}

Status GetTrailingShardSections(BinaryReader& r, uint64_t& epoch,
                                std::vector<GroupReplicaSet>& replicas,
                                std::vector<uint64_t>& shard_epochs,
                                std::vector<NodeId>& lease_holders) {
  shard_epochs.clear();
  lease_holders.clear();
  PROPELLER_RETURN_IF_ERROR(GetTrailingReplicas(r, epoch, replicas));
  if (r.AtEnd()) return Status::Ok();
  uint32_t ns = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(ns));
  for (uint32_t i = 0; i < ns; ++i) {
    uint64_t e = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(e));
    shard_epochs.push_back(e);
  }
  if (r.AtEnd()) return Status::Ok();
  uint32_t nh = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nh));
  for (uint32_t i = 0; i < nh; ++i) {
    NodeId n = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
    lease_holders.push_back(n);
  }
  return Status::Ok();
}

// Trailing arrival stamp on resolve requests: absent when 0, so unstamped
// traffic keeps the legacy bytes.
void PutTrailingArrival(BinaryWriter& w, double arrival_s) {
  if (arrival_s > 0) w.PutDouble(arrival_s);
}

Status GetTrailingArrival(BinaryReader& r, double& arrival_s) {
  arrival_s = 0;
  if (r.AtEnd()) return Status::Ok();
  return r.GetDouble(arrival_s);
}

// Smallest encodings of the stage message's repeated parts: a section
// header (group, epoch, role, update count), a FileUpdate (file, delete
// flag, empty attribute count) and a section result (code, seq).
constexpr size_t kMinStageSectionBytes = 8 + 8 + 1 + 4;
constexpr size_t kMinFileUpdateBytes = 8 + 1 + 4;
constexpr size_t kStageResultBytes = 1 + 8;

// Reads an element count and rejects one the remaining input cannot hold
// (every element takes at least `min_bytes`), so a corrupt count never
// sizes an allocation.
Status GetCount(BinaryReader& r, size_t min_bytes, uint32_t& n) {
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  if (n > r.Remaining() / min_bytes) {
    return Status::Corruption("element count exceeds input");
  }
  return Status::Ok();
}

Status CheckStatusCode(uint8_t raw, StatusCode& code) {
  if (raw > static_cast<uint8_t>(StatusCode::kOverloaded)) {
    return Status::Corruption("unknown status code");
  }
  code = static_cast<StatusCode>(raw);
  return Status::Ok();
}

}  // namespace

void ResolveUpdateRequest::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (FileId f : files) w.PutU64(f);
  PutTrailingArrival(w, arrival_s);
}
Status ResolveUpdateRequest::Deserialize(BinaryReader& r,
                                         ResolveUpdateRequest& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.files.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileId f = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f));
    out.files.push_back(f);
  }
  return GetTrailingArrival(r, out.arrival_s);
}

void ResolveUpdateResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(placements.size()));
  for (const Placement& p : placements) {
    w.PutU64(p.file);
    w.PutU64(p.group);
    w.PutU32(p.node);
  }
  PutTrailingShardSections(w, metadata_epoch, replicas, shard_epochs,
                           lease_holders);
}
Status ResolveUpdateResponse::Deserialize(BinaryReader& r,
                                          ResolveUpdateResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.placements.clear();
  for (uint32_t i = 0; i < n; ++i) {
    Placement p;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(p.file));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(p.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU32(p.node));
    out.placements.push_back(p);
  }
  return GetTrailingShardSections(r, out.metadata_epoch, out.replicas,
                                  out.shard_epochs, out.lease_holders);
}

void ResolveSearchRequest::Serialize(BinaryWriter& w) const {
  w.PutString(index_name);
  PutTrailingArrival(w, arrival_s);
}
Status ResolveSearchRequest::Deserialize(BinaryReader& r,
                                         ResolveSearchRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetString(out.index_name));
  return GetTrailingArrival(r, out.arrival_s);
}

void ResolveSearchResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(targets.size()));
  for (const NodeGroups& t : targets) {
    w.PutU32(t.node);
    w.PutU32(static_cast<uint32_t>(t.groups.size()));
    for (GroupId g : t.groups) w.PutU64(g);
  }
  PutTrailingShardSections(w, metadata_epoch, replicas, shard_epochs,
                           lease_holders);
}
Status ResolveSearchResponse::Deserialize(BinaryReader& r,
                                          ResolveSearchResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.targets.clear();
  for (uint32_t i = 0; i < n; ++i) {
    NodeGroups t;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(t.node));
    uint32_t ng = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(ng));
    for (uint32_t j = 0; j < ng; ++j) {
      GroupId g = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU64(g));
      t.groups.push_back(g);
    }
    out.targets.push_back(std::move(t));
  }
  return GetTrailingShardSections(r, out.metadata_epoch, out.replicas,
                                  out.shard_epochs, out.lease_holders);
}

void CreateIndexRequest::Serialize(BinaryWriter& w) const { spec.Serialize(w); }
Status CreateIndexRequest::Deserialize(BinaryReader& r, CreateIndexRequest& out) {
  return IndexSpec::Deserialize(r, out.spec);
}

void FlushAcgRequest::Serialize(BinaryWriter& w) const { delta.Serialize(w); }
Status FlushAcgRequest::Deserialize(BinaryReader& r, FlushAcgRequest& out) {
  return acg::Acg::Deserialize(r, out.delta);
}

void HeartbeatRequest::Serialize(BinaryWriter& w) const {
  w.PutU32(node);
  w.PutDouble(now_s);
  w.PutU32(static_cast<uint32_t>(groups.size()));
  for (const GroupStat& g : groups) {
    w.PutU64(g.group);
    w.PutU64(g.files);
    w.PutU64(g.pages);
  }
}
Status HeartbeatRequest::Deserialize(BinaryReader& r, HeartbeatRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU32(out.node));
  PROPELLER_RETURN_IF_ERROR(r.GetDouble(out.now_s));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.groups.clear();
  for (uint32_t i = 0; i < n; ++i) {
    GroupStat g;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.files));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.pages));
    out.groups.push_back(g);
  }
  return Status::Ok();
}

void HeartbeatResponse::Serialize(BinaryWriter& w) const {
  // All-default = zero bytes: the legacy empty heartbeat ack.
  if (num_shards == 0 && index_names.empty() && leases.empty()) return;
  w.PutU32(num_shards);
  w.PutU32(static_cast<uint32_t>(index_names.size()));
  for (const std::string& name : index_names) w.PutString(name);
  w.PutU32(static_cast<uint32_t>(leases.size()));
  for (const ShardLeaseGrant& g : leases) {
    w.PutU32(g.shard);
    w.PutU64(g.epoch);
    w.PutDouble(g.expiry_s);
    w.PutU8(g.has_mirror ? 1 : 0);
    if (!g.has_mirror) continue;
    w.PutU32(static_cast<uint32_t>(g.groups.size()));
    for (const ShardLeaseGrant::GroupPrimary& gp : g.groups) {
      w.PutU64(gp.group);
      w.PutU32(gp.node);
    }
    w.PutU32(static_cast<uint32_t>(g.replicas.size()));
    for (const GroupReplicaSet& rs : g.replicas) {
      w.PutU64(rs.group);
      w.PutU32(static_cast<uint32_t>(rs.nodes.size()));
      for (NodeId n : rs.nodes) w.PutU32(n);
    }
    w.PutU32(static_cast<uint32_t>(g.files.size()));
    for (const ShardLeaseGrant::FileGroup& fg : g.files) {
      w.PutU64(fg.file);
      w.PutU64(fg.group);
    }
  }
}
Status HeartbeatResponse::Deserialize(BinaryReader& r, HeartbeatResponse& out) {
  out.num_shards = 0;
  out.index_names.clear();
  out.leases.clear();
  if (r.AtEnd()) return Status::Ok();  // legacy empty ack
  PROPELLER_RETURN_IF_ERROR(r.GetU32(out.num_shards));
  uint32_t nn = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nn));
  for (uint32_t i = 0; i < nn; ++i) {
    std::string name;
    PROPELLER_RETURN_IF_ERROR(r.GetString(name));
    out.index_names.push_back(std::move(name));
  }
  uint32_t nl = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nl));
  for (uint32_t i = 0; i < nl; ++i) {
    ShardLeaseGrant g;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(g.shard));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.epoch));
    PROPELLER_RETURN_IF_ERROR(r.GetDouble(g.expiry_s));
    uint8_t has_mirror = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU8(has_mirror));
    g.has_mirror = has_mirror != 0;
    if (g.has_mirror) {
      uint32_t ng = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(ng));
      for (uint32_t j = 0; j < ng; ++j) {
        ShardLeaseGrant::GroupPrimary gp;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(gp.group));
        PROPELLER_RETURN_IF_ERROR(r.GetU32(gp.node));
        g.groups.push_back(gp);
      }
      uint32_t nr = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(nr));
      for (uint32_t j = 0; j < nr; ++j) {
        GroupReplicaSet rs;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(rs.group));
        uint32_t nrn = 0;
        PROPELLER_RETURN_IF_ERROR(r.GetU32(nrn));
        for (uint32_t k = 0; k < nrn; ++k) {
          NodeId node = 0;
          PROPELLER_RETURN_IF_ERROR(r.GetU32(node));
          rs.nodes.push_back(node);
        }
        g.replicas.push_back(std::move(rs));
      }
      uint32_t nf = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(nf));
      for (uint32_t j = 0; j < nf; ++j) {
        ShardLeaseGrant::FileGroup fg;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(fg.file));
        PROPELLER_RETURN_IF_ERROR(r.GetU64(fg.group));
        g.files.push_back(fg);
      }
    }
    out.leases.push_back(std::move(g));
  }
  return Status::Ok();
}

void CreateGroupRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
}
Status CreateGroupRequest::Deserialize(BinaryReader& r, CreateGroupRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.specs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  return Status::Ok();
}

void StageUpdatesRequest::Serialize(BinaryWriter& w) const {
  // Hot path: one message per destination node per batch.  Pre-size for
  // the typical serialized FileUpdate (~96 bytes of path + attributes) so
  // the encode does not reallocate repeatedly.
  size_t rows = 0;
  for (const StageSection& s : sections) rows += s.updates.size();
  w.Reserve(13 + sections.size() * kMinStageSectionBytes + rows * 96);
  w.PutDouble(now_s);
  w.PutU8(admission);
  w.PutU32(static_cast<uint32_t>(sections.size()));
  for (const StageSection& s : sections) {
    w.PutU64(s.group);
    w.PutU64(s.epoch);
    w.PutU8(s.replica_role);
    w.PutU32(static_cast<uint32_t>(s.updates.size()));
    for (const FileUpdate& u : s.updates) u.Serialize(w);
  }
}
Status StageUpdatesRequest::Deserialize(BinaryReader& r, StageUpdatesRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetDouble(out.now_s));
  PROPELLER_RETURN_IF_ERROR(r.GetU8(out.admission));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kMinStageSectionBytes, n));
  out.sections.clear();
  out.sections.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    StageSection s;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(s.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(s.epoch));
    PROPELLER_RETURN_IF_ERROR(r.GetU8(s.replica_role));
    uint32_t nu = 0;
    PROPELLER_RETURN_IF_ERROR(GetCount(r, kMinFileUpdateBytes, nu));
    s.updates.reserve(nu);
    for (uint32_t j = 0; j < nu; ++j) {
      FileUpdate u;
      PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
      s.updates.push_back(std::move(u));
    }
    out.sections.push_back(std::move(s));
  }
  return Status::Ok();
}

void StageUpdatesResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(sections.size()));
  for (const SectionResult& s : sections) {
    w.PutU8(static_cast<uint8_t>(s.code));
    w.PutU64(s.seq);
  }
}
Status StageUpdatesResponse::Deserialize(BinaryReader& r,
                                         StageUpdatesResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kStageResultBytes, n));
  out.sections.clear();
  out.sections.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SectionResult s;
    uint8_t code = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU8(code));
    PROPELLER_RETURN_IF_ERROR(CheckStatusCode(code, s.code));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(s.seq));
    out.sections.push_back(s);
  }
  return Status::Ok();
}

void SearchRequest::Serialize(BinaryWriter& w) const {
  // Hot path: one message per fan-out target; dominated by the group list.
  w.Reserve(4 + groups.size() * 8 + 128);
  w.PutU32(static_cast<uint32_t>(groups.size()));
  for (GroupId g : groups) w.PutU64(g);
  predicate.Serialize(w);
  if (arrival_s > 0 || !min_seqs.empty()) {
    // Floors (or an arrival stamp) imply the epoch field is present (its
    // value may be 0); the stamp additionally implies the floor list is
    // present (it may be empty).
    w.PutU64(epoch);
    w.PutU32(static_cast<uint32_t>(min_seqs.size()));
    for (const GroupSeqFloor& f : min_seqs) {
      w.PutU64(f.group);
      w.PutU64(f.seq);
    }
    if (arrival_s > 0) w.PutDouble(arrival_s);
  } else {
    PutTrailingEpoch(w, epoch);
  }
}
Status SearchRequest::Deserialize(BinaryReader& r, SearchRequest& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.groups.clear();
  for (uint32_t i = 0; i < n; ++i) {
    GroupId g = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g));
    out.groups.push_back(g);
  }
  PROPELLER_RETURN_IF_ERROR(Predicate::Deserialize(r, out.predicate));
  PROPELLER_RETURN_IF_ERROR(GetTrailingEpoch(r, out.epoch));
  out.min_seqs.clear();
  out.arrival_s = 0;
  if (r.AtEnd()) return Status::Ok();
  uint32_t nf = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nf));
  for (uint32_t i = 0; i < nf; ++i) {
    GroupSeqFloor f;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f.seq));
    out.min_seqs.push_back(f);
  }
  if (r.AtEnd()) return Status::Ok();
  return r.GetDouble(out.arrival_s);
}

void SearchResponse::Serialize(BinaryWriter& w) const {
  w.Reserve(4 + files.size() * 8);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (FileId f : files) w.PutU64(f);
}
Status SearchResponse::Deserialize(BinaryReader& r, SearchResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.files.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileId f = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f));
    out.files.push_back(f);
  }
  return Status::Ok();
}

void TickRequest::Serialize(BinaryWriter& w) const { w.PutDouble(now_s); }
Status TickRequest::Deserialize(BinaryReader& r, TickRequest& out) {
  return r.GetDouble(out.now_s);
}

void MigrateOutRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU8(drop_group ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (FileId f : files) w.PutU64(f);
}
Status MigrateOutRequest::Deserialize(BinaryReader& r, MigrateOutRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint8_t drop = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU8(drop));
  out.drop_group = drop != 0;
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.files.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileId f = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f));
    out.files.push_back(f);
  }
  return Status::Ok();
}

void MigrateOutResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const FileUpdate& u : records) u.Serialize(w);
}
Status MigrateOutResponse::Deserialize(BinaryReader& r, MigrateOutResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.records.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
    out.records.push_back(std::move(u));
  }
  return Status::Ok();
}

void InstallGroupRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const FileUpdate& u : records) u.Serialize(w);
}
Status InstallGroupRequest::Deserialize(BinaryReader& r, InstallGroupRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t ns = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(ns));
  out.specs.clear();
  for (uint32_t i = 0; i < ns; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  uint32_t nr = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nr));
  out.records.clear();
  for (uint32_t i = 0; i < nr; ++i) {
    FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
    out.records.push_back(std::move(u));
  }
  return Status::Ok();
}

void RecoverGroupRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
}
Status RecoverGroupRequest::Deserialize(BinaryReader& r,
                                        RecoverGroupRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.specs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  return Status::Ok();
}

void RecoverGroupResponse::Serialize(BinaryWriter& w) const {
  w.PutU64(records_replayed);
}
Status RecoverGroupResponse::Deserialize(BinaryReader& r,
                                         RecoverGroupResponse& out) {
  return r.GetU64(out.records_replayed);
}

void CatchUpRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
}
Status CatchUpRequest::Deserialize(BinaryReader& r, CatchUpRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.specs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  return Status::Ok();
}

void CatchUpResponse::Serialize(BinaryWriter& w) const {
  w.PutU64(records_replayed);
  w.PutU64(seq);
}
Status CatchUpResponse::Deserialize(BinaryReader& r, CatchUpResponse& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.records_replayed));
  return r.GetU64(out.seq);
}

void DropGroupRequest::Serialize(BinaryWriter& w) const { w.PutU64(group); }
Status DropGroupRequest::Deserialize(BinaryReader& r, DropGroupRequest& out) {
  return r.GetU64(out.group);
}

void ResetNodeRequest::Serialize(BinaryWriter&) const {}
Status ResetNodeRequest::Deserialize(BinaryReader&, ResetNodeRequest&) {
  return Status::Ok();
}

}  // namespace propeller::core
