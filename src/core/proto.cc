#include "core/proto.h"

namespace propeller::core {

namespace {

// Smallest encodings of the repeated parts the decoders count: a section
// header (group, epoch, role, update count), a FileUpdate (file, delete
// flag, empty attribute count), a section result (code, seq), a placement
// (file, group, node), a node's target list (node, group count), a replica
// set (group, node count), a read-your-writes floor (group, seq), a lease
// grant without mirror (shard, epoch, expiry, mirror flag), a mirror
// group primary (group, node) and a mirror file entry (file, group).
constexpr size_t kMinStageSectionBytes = 8 + 8 + 1 + 4;
constexpr size_t kMinFileUpdateBytes = 8 + 1 + 4;
constexpr size_t kStageResultBytes = 1 + 8;
constexpr size_t kPlacementBytes = 8 + 8 + 4;
constexpr size_t kMinNodeGroupsBytes = 4 + 4;
constexpr size_t kMinReplicaSetBytes = 8 + 4;
constexpr size_t kSeqFloorBytes = 8 + 8;
constexpr size_t kMinLeaseGrantBytes = 4 + 8 + 8 + 1;
constexpr size_t kGroupPrimaryBytes = 8 + 4;
constexpr size_t kFileGroupBytes = 8 + 8;
constexpr size_t kMinStringBytes = 4;

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

// A lease grant must name one of the response's shards; every master has
// shard 0.
Status CheckShard(uint32_t shard, uint32_t num_shards) {
  if (shard >= num_shards) return Status::Corruption("unknown metadata shard");
  return Status::Ok();
}

Status CheckStatusCode(uint8_t raw, StatusCode& code) {
  if (raw > static_cast<uint8_t>(StatusCode::kOverloaded)) {
    return Status::Corruption("unknown status code");
  }
  code = static_cast<StatusCode>(raw);
  return Status::Ok();
}

// Counted vectors of fixed-width ids (files, groups, epochs, nodes).
void PutU64s(BinaryWriter& w, const std::vector<uint64_t>& values) {
  w.PutU32(static_cast<uint32_t>(values.size()));
  for (uint64_t v : values) w.PutU64(v);
}

Status GetU64s(BinaryReader& r, std::vector<uint64_t>& values) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, 8, n));
  values.clear();
  values.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(v));
    values.push_back(v);
  }
  return Status::Ok();
}

void PutNodes(BinaryWriter& w, const std::vector<NodeId>& nodes) {
  w.PutU32(static_cast<uint32_t>(nodes.size()));
  for (NodeId n : nodes) w.PutU32(n);
}

Status GetNodes(BinaryReader& r, std::vector<NodeId>& nodes) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, 4, n));
  nodes.clear();
  nodes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    NodeId node = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(node));
    nodes.push_back(node);
  }
  return Status::Ok();
}

void PutReplicaSets(BinaryWriter& w,
                    const std::vector<GroupReplicaSet>& replicas) {
  w.PutU32(static_cast<uint32_t>(replicas.size()));
  for (const GroupReplicaSet& rs : replicas) {
    w.PutU64(rs.group);
    PutNodes(w, rs.nodes);
  }
}

Status GetReplicaSets(BinaryReader& r, std::vector<GroupReplicaSet>& replicas) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kMinReplicaSetBytes, n));
  replicas.clear();
  replicas.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GroupReplicaSet rs;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(rs.group));
    PROPELLER_RETURN_IF_ERROR(GetNodes(r, rs.nodes));
    replicas.push_back(std::move(rs));
  }
  return Status::Ok();
}

// The routing sections both resolve responses end with: replica sets,
// per-shard epochs, per-shard lease holders.
void PutRoutingSections(BinaryWriter& w,
                        const std::vector<GroupReplicaSet>& replicas,
                        const std::vector<uint64_t>& shard_epochs,
                        const std::vector<NodeId>& lease_holders) {
  PutReplicaSets(w, replicas);
  PutU64s(w, shard_epochs);
  PutNodes(w, lease_holders);
}

Status GetRoutingSections(BinaryReader& r,
                          std::vector<GroupReplicaSet>& replicas,
                          std::vector<uint64_t>& shard_epochs,
                          std::vector<NodeId>& lease_holders) {
  PROPELLER_RETURN_IF_ERROR(GetReplicaSets(r, replicas));
  PROPELLER_RETURN_IF_ERROR(GetU64s(r, shard_epochs));
  return GetNodes(r, lease_holders);
}

}  // namespace

void ResolveUpdateRequest::Serialize(BinaryWriter& w) const {
  PutU64s(w, files);
  w.PutDouble(arrival_s);
}
Status ResolveUpdateRequest::Deserialize(BinaryReader& r,
                                         ResolveUpdateRequest& out) {
  PROPELLER_RETURN_IF_ERROR(GetU64s(r, out.files));
  return r.GetDouble(out.arrival_s);
}

void ResolveUpdateResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(placements.size()));
  for (const Placement& p : placements) {
    w.PutU64(p.file);
    w.PutU64(p.group);
    w.PutU32(p.node);
  }
  PutRoutingSections(w, replicas, shard_epochs, lease_holders);
}
Status ResolveUpdateResponse::Deserialize(BinaryReader& r,
                                          ResolveUpdateResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kPlacementBytes, n));
  out.placements.clear();
  out.placements.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Placement p;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(p.file));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(p.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU32(p.node));
    out.placements.push_back(p);
  }
  return GetRoutingSections(r, out.replicas, out.shard_epochs,
                            out.lease_holders);
}

void ResolveSearchRequest::Serialize(BinaryWriter& w) const {
  w.PutString(index_name);
  w.PutDouble(arrival_s);
}
Status ResolveSearchRequest::Deserialize(BinaryReader& r,
                                         ResolveSearchRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetString(out.index_name));
  return r.GetDouble(out.arrival_s);
}

void ResolveSearchResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(targets.size()));
  for (const NodeGroups& t : targets) {
    w.PutU32(t.node);
    PutU64s(w, t.groups);
  }
  PutRoutingSections(w, replicas, shard_epochs, lease_holders);
}
Status ResolveSearchResponse::Deserialize(BinaryReader& r,
                                          ResolveSearchResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kMinNodeGroupsBytes, n));
  out.targets.clear();
  out.targets.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    NodeGroups t;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(t.node));
    PROPELLER_RETURN_IF_ERROR(GetU64s(r, t.groups));
    out.targets.push_back(std::move(t));
  }
  return GetRoutingSections(r, out.replicas, out.shard_epochs,
                            out.lease_holders);
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
  w.PutU32(num_shards);
  PutU64s(w, shard_epochs);
  w.PutU32(static_cast<uint32_t>(index_names.size()));
  for (const std::string& name : index_names) w.PutString(name);
  w.PutU32(static_cast<uint32_t>(leases.size()));
  for (const ShardLeaseGrant& g : leases) {
    w.PutU32(g.shard);
    w.PutU64(g.epoch);
    w.PutDouble(g.expiry_s);
    w.PutU8(g.has_mirror ? 1 : 0);
    if (g.has_mirror) {
      w.PutU32(static_cast<uint32_t>(g.groups.size()));
      for (const ShardLeaseGrant::GroupPrimary& gp : g.groups) {
        w.PutU64(gp.group);
        w.PutU32(gp.node);
      }
      PutReplicaSets(w, g.replicas);
      w.PutU32(static_cast<uint32_t>(g.files.size()));
      for (const ShardLeaseGrant::FileGroup& fg : g.files) {
        w.PutU64(fg.file);
        w.PutU64(fg.group);
      }
    }
  }
}
Status HeartbeatResponse::Deserialize(BinaryReader& r, HeartbeatResponse& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU32(out.num_shards));
  PROPELLER_RETURN_IF_ERROR(CheckShard(0, out.num_shards));
  PROPELLER_RETURN_IF_ERROR(GetU64s(r, out.shard_epochs));
  uint32_t nn = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kMinStringBytes, nn));
  out.index_names.clear();
  out.index_names.reserve(nn);
  for (uint32_t i = 0; i < nn; ++i) {
    std::string name;
    PROPELLER_RETURN_IF_ERROR(r.GetString(name));
    out.index_names.push_back(std::move(name));
  }
  uint32_t nl = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kMinLeaseGrantBytes, nl));
  out.leases.clear();
  out.leases.reserve(nl);
  for (uint32_t i = 0; i < nl; ++i) {
    ShardLeaseGrant g;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(g.shard));
    PROPELLER_RETURN_IF_ERROR(CheckShard(g.shard, out.num_shards));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.epoch));
    PROPELLER_RETURN_IF_ERROR(r.GetDouble(g.expiry_s));
    uint8_t has_mirror = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU8(has_mirror));
    g.has_mirror = has_mirror != 0;
    if (g.has_mirror) {
      uint32_t ng = 0;
      PROPELLER_RETURN_IF_ERROR(GetCount(r, kGroupPrimaryBytes, ng));
      g.groups.reserve(ng);
      for (uint32_t j = 0; j < ng; ++j) {
        ShardLeaseGrant::GroupPrimary gp;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(gp.group));
        PROPELLER_RETURN_IF_ERROR(r.GetU32(gp.node));
        g.groups.push_back(gp);
      }
      PROPELLER_RETURN_IF_ERROR(GetReplicaSets(r, g.replicas));
      uint32_t nf = 0;
      PROPELLER_RETURN_IF_ERROR(GetCount(r, kFileGroupBytes, nf));
      g.files.reserve(nf);
      for (uint32_t j = 0; j < nf; ++j) {
        ShardLeaseGrant::FileGroup fg;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(fg.file));
        PROPELLER_RETURN_IF_ERROR(r.GetU64(fg.group));
        g.files.push_back(fg);
      }
    }
    out.leases.push_back(std::move(g));
  }
  if (!out.shard_epochs.empty() && out.shard_epochs.size() != out.num_shards) {
    return Status::Corruption("epoch vector does not match the shard count");
  }
  return Status::Ok();
}

void ShardEpochs::Serialize(BinaryWriter& w) const { PutU64s(w, shard_epochs); }
Status ShardEpochs::Deserialize(BinaryReader& r, ShardEpochs& out) {
  return GetU64s(r, out.shard_epochs);
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
  PutU64s(w, groups);
  predicate.Serialize(w);
  w.PutU64(epoch);
  w.PutU32(static_cast<uint32_t>(min_seqs.size()));
  for (const GroupSeqFloor& f : min_seqs) {
    w.PutU64(f.group);
    w.PutU64(f.seq);
  }
  w.PutDouble(arrival_s);
}
Status SearchRequest::Deserialize(BinaryReader& r, SearchRequest& out) {
  PROPELLER_RETURN_IF_ERROR(GetU64s(r, out.groups));
  PROPELLER_RETURN_IF_ERROR(Predicate::Deserialize(r, out.predicate));
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.epoch));
  uint32_t nf = 0;
  PROPELLER_RETURN_IF_ERROR(GetCount(r, kSeqFloorBytes, nf));
  out.min_seqs.clear();
  out.min_seqs.reserve(nf);
  for (uint32_t i = 0; i < nf; ++i) {
    GroupSeqFloor f;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f.seq));
    out.min_seqs.push_back(f);
  }
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
