// Byte-exact roundtrip coverage for every wire message in core/proto.h:
// encode -> decode -> re-encode must reproduce the original bytes, for
// every counted section both empty and filled.  Together with
// the propeller_analyze wire pass (encode/decode symmetry + golden
// schema) this pins the wire format: the analyzer proves the structure,
// this test proves the bytes.
#include "core/proto.h"

#include <gtest/gtest.h>

#include <string>

namespace propeller::core {
namespace {

template <typename T>
std::string EncodeBytes(const T& msg) {
  BinaryWriter w;
  msg.Serialize(w);
  return w.data();
}

// Encode, decode, re-encode; the two encodings must be byte-identical and
// the decoder must consume every byte.
template <typename T>
void ExpectRoundtrip(const T& msg) {
  std::string bytes = EncodeBytes(msg);
  BinaryReader r(bytes);
  T out;
  ASSERT_TRUE(T::Deserialize(r, out).ok());
  EXPECT_TRUE(r.AtEnd()) << "decoder left " << r.Remaining()
                         << " trailing byte(s)";
  EXPECT_EQ(bytes, EncodeBytes(out));
}

FileUpdate MakeUpdate(FileId file) {
  FileUpdate u;
  u.file = file;
  u.attrs.Set("size", index::AttrValue(int64_t{4096}));
  u.attrs.Set("owner", index::AttrValue("alice"));
  u.attrs.Set("score", index::AttrValue(0.25));
  return u;
}

IndexSpec MakeSpec(const std::string& name) {
  IndexSpec s;
  s.name = name;
  s.type = index::IndexType::kBTree;
  s.attrs = {"size"};
  return s;
}

TEST(ProtoRoundtrip, ResolveUpdateRequest) {
  ExpectRoundtrip(ResolveUpdateRequest{});
  ResolveUpdateRequest req;
  req.files = {1, 2, 3};
  ExpectRoundtrip(req);
  req.arrival_s = 2.5;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, ResolveUpdateResponse) {
  ResolveUpdateResponse resp;
  resp.placements.push_back({/*file=*/7, /*group=*/3, /*node=*/1});
  ExpectRoundtrip(resp);  // every vector after the placements empty

  resp.shard_epochs = {12};
  ExpectRoundtrip(resp);  // one shard

  resp.replicas.push_back(GroupReplicaSet{3, {1, 2}});
  resp.shard_epochs = {12, 0, 4, 9};
  ExpectRoundtrip(resp);  // replica sets, four shards

  resp.lease_holders = {10, 0, 11, 10};
  ExpectRoundtrip(resp);  // with lease holders
}

TEST(ProtoRoundtrip, ResolveSearchRequest) {
  ResolveSearchRequest req;
  req.index_name = "by_size";
  ExpectRoundtrip(req);
  req.arrival_s = 0.75;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, ResolveSearchResponse) {
  ResolveSearchResponse resp;
  ResolveSearchResponse::NodeGroups t;
  t.node = 2;
  t.groups = {10, 11};
  resp.targets.push_back(t);
  ExpectRoundtrip(resp);

  resp.shard_epochs = {5};
  ExpectRoundtrip(resp);

  resp.replicas.push_back(GroupReplicaSet{10, {2, 3, 4}});
  resp.lease_holders = {3};
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, CreateIndexRequest) {
  CreateIndexRequest req;
  req.spec = MakeSpec("by_size");
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, FlushAcgRequest) {
  FlushAcgRequest req;
  req.delta.AddVertex(42);
  req.delta.AddEdge(1, 2, 3);
  req.delta.AddEdge(2, 5);
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, HeartbeatRequest) {
  HeartbeatRequest req;
  req.node = 4;
  req.now_s = 12.5;
  req.groups.push_back({/*group=*/9, /*files=*/100, /*pages=*/7});
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, HeartbeatResponse) {
  HeartbeatResponse resp;
  resp.num_shards = 4;
  ExpectRoundtrip(resp);  // leases off: zero grants

  resp.index_names = {"by_size", "by_owner"};
  ShardLeaseGrant renewal;
  renewal.shard = 1;
  renewal.epoch = 7;
  renewal.expiry_s = 4.0;
  resp.leases.push_back(renewal);
  ShardLeaseGrant fresh = renewal;
  fresh.shard = 3;
  fresh.has_mirror = true;
  fresh.groups = {{4, 10}, {8, 11}};
  fresh.replicas = {GroupReplicaSet{4, {10, 12}}};
  fresh.files = {{100, 4}, {101, 8}};
  resp.leases.push_back(fresh);
  ExpectRoundtrip(resp);  // a renewal without mirror, a grant with one
}

TEST(ProtoRoundtrip, HeartbeatResponseRejectsUnknownShards) {
  HeartbeatResponse resp;
  resp.num_shards = 2;
  resp.leases.resize(1);
  resp.leases[0].shard = 2;
  EXPECT_FALSE(Decode<HeartbeatResponse>(Encode(resp)).ok());
  resp.leases.clear();
  resp.num_shards = 0;
  EXPECT_FALSE(Decode<HeartbeatResponse>(Encode(resp)).ok());
}

TEST(ProtoRoundtrip, CreateGroupRequest) {
  CreateGroupRequest req;
  req.group = 6;
  req.specs = {MakeSpec("a"), MakeSpec("b")};
  ExpectRoundtrip(req);
}

// The fixed header (clock, admission flag) is followed by one section per
// group; every section field is always on the wire.
TEST(ProtoRoundtrip, StageUpdatesRequestTrailingSections) {
  StageUpdatesRequest req;
  req.now_s = 1.5;
  ExpectRoundtrip(req);  // header only

  StageSection plain;
  plain.group = 3;
  plain.updates = {MakeUpdate(100), MakeUpdate(101)};
  req.sections.push_back(plain);
  ExpectRoundtrip(req);

  StageSection stamped;
  stamped.group = 4;
  stamped.epoch = 9;
  stamped.replica_role = kReplicaRolePrimary;
  stamped.updates = {MakeUpdate(102)};
  req.sections.push_back(stamped);
  StageSection secondary;
  secondary.group = 5;
  secondary.replica_role = kReplicaRoleSecondary;
  req.sections.push_back(secondary);  // a section may carry no updates
  req.admission = 1;
  ExpectRoundtrip(req);

  auto out = Decode<StageUpdatesRequest>(EncodeBytes(req));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->sections.size(), 3u);
  EXPECT_EQ(out->admission, 1);
  EXPECT_EQ(out->sections[1].group, 4u);
  EXPECT_EQ(out->sections[1].epoch, 9u);
  EXPECT_EQ(out->sections[1].replica_role, kReplicaRolePrimary);
  EXPECT_EQ(out->sections[0].updates.size(), 2u);
  EXPECT_EQ(out->sections[2].replica_role, kReplicaRoleSecondary);
}

TEST(ProtoRoundtrip, StageUpdatesResponse) {
  StageUpdatesResponse resp;
  ExpectRoundtrip(resp);
  resp.sections = {{StatusCode::kOk, 77},
                   {StatusCode::kStaleLocation, 0},
                   {StatusCode::kNotFound, 0}};
  ExpectRoundtrip(resp);
  auto out = Decode<StageUpdatesResponse>(EncodeBytes(resp));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->sections.size(), 3u);
  EXPECT_EQ(out->sections[0].seq, 77u);
  EXPECT_EQ(out->sections[1].code, StatusCode::kStaleLocation);
}

TEST(ProtoRoundtrip, StageUpdatesResponseRejectsUnknownCodes) {
  BinaryWriter w;
  w.PutU32(1);
  w.PutU8(0xff);  // not a StatusCode
  w.PutU64(0);
  EXPECT_FALSE(Decode<StageUpdatesResponse>(w.data()).ok());
}

TEST(ProtoRoundtrip, SearchRequestTrailingSections) {
  SearchRequest req;
  req.groups = {1, 2};
  req.predicate.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1024}));
  ExpectRoundtrip(req);  // zero epoch, no floors, unstamped

  req.epoch = 4;
  ExpectRoundtrip(req);

  req.min_seqs.push_back({/*group=*/1, /*seq=*/10});
  req.min_seqs.push_back({/*group=*/2, /*seq=*/20});
  ExpectRoundtrip(req);

  req.arrival_s = 3.25;
  ExpectRoundtrip(req);

  req.min_seqs.clear();
  req.epoch = 0;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, SearchResponse) {
  SearchResponse resp;
  resp.files = {5, 6, 7};
  ExpectRoundtrip(resp);
  ExpectRoundtrip(SearchResponse{});
}

TEST(ProtoRoundtrip, TickRequest) {
  TickRequest req;
  req.now_s = 42.0;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, MigrateOut) {
  MigrateOutRequest req;
  req.group = 8;
  req.drop_group = true;
  req.files = {1, 2};
  ExpectRoundtrip(req);
  req.drop_group = false;
  ExpectRoundtrip(req);

  MigrateOutResponse resp;
  resp.records = {MakeUpdate(1), MakeUpdate(2)};
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, InstallGroupRequest) {
  InstallGroupRequest req;
  req.group = 8;
  req.specs = {MakeSpec("a")};
  req.records = {MakeUpdate(3)};
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, RecoverGroup) {
  RecoverGroupRequest req;
  req.group = 2;
  req.specs = {MakeSpec("a")};
  ExpectRoundtrip(req);

  RecoverGroupResponse resp;
  resp.records_replayed = 31;
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, CatchUp) {
  CatchUpRequest req;
  req.group = 2;
  req.specs = {MakeSpec("a")};
  ExpectRoundtrip(req);

  CatchUpResponse resp;
  resp.records_replayed = 3;
  resp.seq = 17;
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, DropGroupRequest) {
  DropGroupRequest req;
  req.group = 9;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, ResetNodeRequest) {
  ExpectRoundtrip(ResetNodeRequest{});
}

// Every field has a fixed slot: what a feature stamps changes values, never
// the layout.  A message's length depends only on its vector sizes (and
// strings), so the simulated transfer cost of a request does not depend on
// which features are on.
TEST(ProtoRoundtrip, FixedLayoutsDoNotDependOnFeatures) {
  SearchRequest plain;
  plain.groups = {1, 2, 3};
  plain.predicate.And("size", index::CmpOp::kGt, index::AttrValue(int64_t{5}));
  SearchRequest stamped = plain;
  stamped.epoch = 42;
  stamped.arrival_s = 1.5;
  EXPECT_EQ(EncodeBytes(plain).size(), EncodeBytes(stamped).size());
  auto decoded = Decode<SearchRequest>(EncodeBytes(stamped));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch, 42u);
  EXPECT_EQ(decoded->arrival_s, 1.5);
  EXPECT_EQ(decoded->groups, plain.groups);

  ResolveUpdateRequest ureq;
  ureq.files = {1, 2};
  ResolveUpdateRequest ureq_stamped = ureq;
  ureq_stamped.arrival_s = 9.0;
  EXPECT_EQ(EncodeBytes(ureq).size(), EncodeBytes(ureq_stamped).size());

  // A resolve response: 4 (count) + 20 per placement, then the replica
  // sets (4 + 12 per set + 4 per node), then 4 + 8 per shard epoch and
  // 4 + 4 per lease holder, whatever the values.
  auto update_bytes = [](size_t placements, size_t sets, size_t nodes,
                         size_t shards, size_t holders) {
    return 4 + 20 * placements + 4 + 12 * sets + 4 * nodes + 4 + 8 * shards +
           4 + 4 * holders;
  };
  ResolveUpdateResponse uresp;
  EXPECT_EQ(EncodeBytes(uresp).size(), update_bytes(0, 0, 0, 0, 0));
  uresp.placements.push_back({7, 3, 10});
  uresp.shard_epochs = {0};
  EXPECT_EQ(EncodeBytes(uresp).size(), update_bytes(1, 0, 0, 1, 0));
  uresp.shard_epochs = {~uint64_t{0}};
  EXPECT_EQ(EncodeBytes(uresp).size(), update_bytes(1, 0, 0, 1, 0));
  uresp.shard_epochs = {1, 2, 3, 4};
  uresp.replicas.push_back(GroupReplicaSet{3, {10, 11}});
  uresp.lease_holders = {10, 0, 0, 12};
  EXPECT_EQ(EncodeBytes(uresp).size(), update_bytes(1, 1, 2, 4, 4));

  ResolveSearchResponse sresp;
  sresp.targets.push_back({10, {1, 2}});
  sresp.shard_epochs = {5};
  const size_t search_len = EncodeBytes(sresp).size();
  EXPECT_EQ(search_len, 4 + (4 + 4 + 2 * 8) + 4 + (4 + 8) + 4);
  sresp.shard_epochs = {0};
  EXPECT_EQ(EncodeBytes(sresp).size(), search_len);
}

}  // namespace
}  // namespace propeller::core
