// Property tests: AcgManager invariants under random delta streams, and
// wire-format robustness against corrupted payloads.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "acg/acg_manager.h"
#include "common/rng.h"
#include "core/proto.h"

namespace propeller::acg {
namespace {

struct StreamParam {
  uint64_t seed;
  int deltas;
  uint64_t file_space;
  uint64_t cluster_target;
  uint64_t split_threshold;
};

// gtest (and CTest's test discovery) names each case by this print; without
// it the name would be the struct's raw bytes, padding included.
void PrintTo(const StreamParam& p, std::ostream* os) {
  *os << "s" << p.seed << "_d" << p.deltas << "_f" << p.file_space << "_c"
      << p.cluster_target << "_t" << p.split_threshold;
}

class AcgManagerPropertyTest : public ::testing::TestWithParam<StreamParam> {};

// Invariants after any sequence of deltas and split passes:
//  (1) every file maps to exactly one live group;
//  (2) group membership sets partition the file set (sizes sum up);
//  (3) no group exceeds the split threshold after a split pass;
//  (4) intra+cross weight equals the total weight ever ingested.
TEST_P(AcgManagerPropertyTest, InvariantsHoldUnderRandomStreams) {
  const StreamParam p = GetParam();
  AcgPolicy policy;
  policy.cluster_target = p.cluster_target;
  policy.split_threshold = p.split_threshold;
  policy.merge_limit = p.split_threshold;
  AcgManager mgr(policy);
  Rng rng(p.seed);

  uint64_t ingested_weight = 0;
  std::set<FileId> all_files;

  for (int d = 0; d < p.deltas; ++d) {
    Acg delta;
    int edges = static_cast<int>(rng.Uniform(40)) + 1;
    for (int e = 0; e < edges; ++e) {
      FileId a = rng.Uniform(p.file_space) + 1;
      FileId b = rng.Uniform(p.file_space) + 1;
      uint64_t w = 1 + rng.Uniform(5);
      if (a == b) continue;
      delta.AddEdge(a, b, w);
      ingested_weight += w;
      all_files.insert(a);
      all_files.insert(b);
    }
    // Occasionally vertex-only files (creations).
    if (rng.Bernoulli(0.3)) {
      FileId f = rng.Uniform(p.file_space) + 1;
      delta.AddVertex(f);
      all_files.insert(f);
    }
    mgr.ApplyDelta(delta);
    if (d % 7 == 0) mgr.SplitOversizedGroups();
  }
  mgr.SplitOversizedGroups();

  // (1) + (2): group sizes partition the mapped files.
  EXPECT_EQ(mgr.NumFiles(), all_files.size());
  uint64_t sum = 0;
  for (GroupId g : mgr.Groups()) sum += mgr.GroupSize(g);
  EXPECT_EQ(sum, all_files.size());
  for (FileId f : all_files) {
    auto g = mgr.GroupOf(f);
    ASSERT_TRUE(g.has_value()) << "file " << f << " unmapped";
    EXPECT_GT(mgr.GroupSize(*g), 0u);
  }

  // (3): splits enforce the threshold (a single split halves, so allow
  // one round's slack of threshold itself).
  for (GroupId g : mgr.Groups()) {
    EXPECT_LE(mgr.GroupSize(g), p.split_threshold)
        << "group " << g << " oversized after split pass";
  }

  // (4): weight conservation.
  EXPECT_EQ(mgr.IntraGroupWeight() + mgr.CrossGroupWeight(), ingested_weight);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, AcgManagerPropertyTest,
    ::testing::Values(StreamParam{1, 50, 200, 20, 60},
                      StreamParam{2, 100, 500, 50, 120},
                      StreamParam{3, 200, 100, 10, 30},
                      StreamParam{4, 30, 2000, 100, 400},
                      StreamParam{5, 150, 50, 5, 25},
                      StreamParam{6, 80, 300, 1, 40}));  // tiny fill groups

TEST(AcgManagerPropertyTest, SplitPreservesMembershipExactly) {
  AcgPolicy policy;
  policy.split_threshold = 40;
  policy.cluster_target = 1000;
  policy.merge_limit = 1000;
  AcgManager mgr(policy);
  Acg delta;
  for (FileId i = 0; i < 100; ++i) delta.AddEdge(i + 1, (i + 1) % 100 + 1, 2);
  mgr.ApplyDelta(delta);

  std::set<FileId> before;
  for (GroupId g : mgr.Groups()) {
    EXPECT_EQ(mgr.GroupSize(g), 100u);
  }
  for (FileId f = 1; f <= 100; ++f) before.insert(f);

  auto plans = mgr.SplitOversizedGroups();
  ASSERT_FALSE(plans.empty());
  std::set<FileId> after;
  for (FileId f = 1; f <= 100; ++f) {
    ASSERT_TRUE(mgr.GroupOf(f).has_value());
    after.insert(f);
  }
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace propeller::acg

namespace propeller::core {
namespace {

// Every proper prefix of a fixed-layout message is missing a field, so
// each must fail to decode.
template <typename T>
void ExpectEveryTruncationFails(const T& msg) {
  const std::string payload = Encode(msg);
  ASSERT_TRUE(Decode<T>(payload).ok());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto r = Decode<T>(payload.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " decoded";
  }
}

// Fuzz: truncations and bit flips of valid payloads must decode to an
// error (or to a *valid* alternative message), never crash.
TEST(ProtoFuzzTest, TruncationsNeverCrash) {
  StageUpdatesRequest req;
  req.now_s = 1.5;
  req.admission = 1;
  for (GroupId g = 42; g < 45; ++g) {
    StageSection section;
    section.group = g;
    section.epoch = g - 40;
    section.replica_role =
        g == 43 ? kReplicaRoleSecondary : kReplicaRolePrimary;
    for (FileId f = 1; f <= 5; ++f) {
      FileUpdate u;
      u.file = g * 100 + f;
      u.attrs.Set("size", index::AttrValue(int64_t{100}));
      u.attrs.Set("path", index::AttrValue("/a/b/c"));
      section.updates.push_back(std::move(u));
    }
    req.sections.push_back(std::move(section));
  }
  std::string payload = Encode(req);
  ASSERT_TRUE(Decode<StageUpdatesRequest>(payload).ok());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto r = Decode<StageUpdatesRequest>(payload.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " decoded";
  }

  StageUpdatesResponse resp;
  resp.sections = {{StatusCode::kOk, 7},
                   {StatusCode::kStaleLocation, 0},
                   {StatusCode::kOk, 9}};
  ExpectEveryTruncationFails(resp);

  ResolveUpdateRequest ureq;
  ureq.files = {1, 2, 3};
  ureq.arrival_s = 0.5;
  ExpectEveryTruncationFails(ureq);

  ResolveSearchRequest sreq;
  sreq.index_name = "by_size";
  ExpectEveryTruncationFails(sreq);

  ResolveUpdateResponse uresp;
  uresp.placements = {{1, 5, 10}, {2, 6, 11}};
  uresp.replicas = {GroupReplicaSet{5, {10, 12}}, GroupReplicaSet{6, {11}}};
  uresp.shard_epochs = {3, 0, 7, 1};
  uresp.lease_holders = {10, 0, 11, 12};
  ExpectEveryTruncationFails(uresp);

  ResolveSearchResponse sresp;
  sresp.targets = {{10, {5, 9}}, {11, {6}}};
  sresp.replicas = {GroupReplicaSet{5, {10, 11}}};
  sresp.shard_epochs = {4, 2};
  sresp.lease_holders = {11, 10};
  ExpectEveryTruncationFails(sresp);

  SearchRequest search;
  search.groups = {5, 9};
  search.predicate.And("size", index::CmpOp::kGt, index::AttrValue(int64_t{1}));
  search.epoch = 3;
  search.min_seqs = {{5, 11}, {9, 2}};
  search.arrival_s = 1.25;
  ExpectEveryTruncationFails(search);

  HeartbeatResponse hb;
  hb.num_shards = 4;
  hb.index_names = {"by_size", "by_owner"};
  ShardLeaseGrant renewal;
  renewal.shard = 1;
  renewal.epoch = 2;
  renewal.expiry_s = 3.5;
  ShardLeaseGrant fresh = renewal;
  fresh.shard = 3;
  fresh.has_mirror = true;
  fresh.groups = {{4, 10}};
  fresh.replicas = {GroupReplicaSet{4, {10, 11}}};
  fresh.files = {{100, 4}, {101, 4}};
  hb.leases = {renewal, fresh};
  ExpectEveryTruncationFails(hb);
}

// A count the remaining bytes cannot hold is rejected before anything is
// sized by it: a claimed 2^32-1 elements would otherwise ask the allocator
// for hundreds of gigabytes.
TEST(ProtoFuzzTest, OversizedCountsAreRejectedBeforeAllocating) {
  constexpr uint32_t kHuge = 0xffffffffu;
  {
    BinaryWriter w;
    w.PutDouble(1.0);
    w.PutU8(0);
    w.PutU32(kHuge);  // sections
    w.PutU64(1);
    EXPECT_FALSE(Decode<StageUpdatesRequest>(w.data()).ok());
  }
  {
    BinaryWriter w;
    w.PutDouble(1.0);
    w.PutU8(0);
    w.PutU32(1);  // one section ...
    w.PutU64(5);
    w.PutU64(0);
    w.PutU8(kReplicaRoleNone);
    w.PutU32(kHuge);  // ... claiming 2^32-1 updates
    w.PutU64(1);
    EXPECT_FALSE(Decode<StageUpdatesRequest>(w.data()).ok());
  }
  {
    BinaryWriter w;
    w.PutU32(kHuge);  // section results
    w.PutU8(0);
    w.PutU64(1);
    EXPECT_FALSE(Decode<StageUpdatesResponse>(w.data()).ok());
  }
  // Each counted vector of the resolve, search and heartbeat messages:
  // every field before the count is valid, the count claims 2^32-1
  // elements, and a single element's worth of bytes follows.
  auto rejected = [](auto decode, BinaryWriter& w, const char* what) {
    w.PutU64(1);
    w.PutU32(1);
    EXPECT_FALSE(decode(w.data())) << what;
  };
  auto update_req = [](const std::string& b) {
    return Decode<ResolveUpdateRequest>(b).ok();
  };
  auto update_resp = [](const std::string& b) {
    return Decode<ResolveUpdateResponse>(b).ok();
  };
  auto search_resp = [](const std::string& b) {
    return Decode<ResolveSearchResponse>(b).ok();
  };
  auto search_req = [](const std::string& b) {
    return Decode<SearchRequest>(b).ok();
  };
  auto heartbeat = [](const std::string& b) {
    return Decode<HeartbeatResponse>(b).ok();
  };
  {
    BinaryWriter w;
    w.PutU32(kHuge);
    rejected(update_req, w, "resolve request files");
  }
  {
    BinaryWriter w;
    w.PutU32(kHuge);
    rejected(update_resp, w, "placements");
  }
  {
    BinaryWriter w;
    w.PutU32(kHuge);
    rejected(search_resp, w, "targets");
  }
  {
    BinaryWriter w;
    w.PutU32(1);
    w.PutU32(10);
    w.PutU32(kHuge);
    rejected(search_resp, w, "target groups");
  }
  // The routing sections both resolve responses share, after an empty
  // placement / target list.
  for (auto decode : {+update_resp, +search_resp}) {
    {
      BinaryWriter w;
      w.PutU32(0);
      w.PutU32(kHuge);
      rejected(decode, w, "replica sets");
    }
    {
      BinaryWriter w;
      w.PutU32(0);
      w.PutU32(1);
      w.PutU64(5);
      w.PutU32(kHuge);
      rejected(decode, w, "replica nodes");
    }
    {
      BinaryWriter w;
      w.PutU32(0);
      w.PutU32(0);
      w.PutU32(kHuge);
      rejected(decode, w, "shard epochs");
    }
    {
      BinaryWriter w;
      w.PutU32(0);
      w.PutU32(0);
      w.PutU32(0);
      w.PutU32(kHuge);
      rejected(decode, w, "lease holders");
    }
  }
  {
    BinaryWriter w;
    w.PutU32(kHuge);
    rejected(search_req, w, "search groups");
  }
  {
    BinaryWriter w;
    w.PutU32(0);
    Predicate().Serialize(w);
    w.PutU64(0);
    w.PutU32(kHuge);
    rejected(search_req, w, "read-your-writes floors");
  }
  {
    BinaryWriter w;
    w.PutU32(1);
    w.PutU32(kHuge);
    rejected(heartbeat, w, "shard epochs");
  }
  {
    BinaryWriter w;
    w.PutU32(1);
    w.PutU32(0);  // no epochs
    w.PutU32(kHuge);
    rejected(heartbeat, w, "index names");
  }
  {
    BinaryWriter w;
    w.PutU32(1);
    w.PutU32(0);  // no epochs
    w.PutU32(0);
    w.PutU32(kHuge);
    rejected(heartbeat, w, "leases");
  }
  // One grant with a mirror: shard 0, epoch, expiry, has_mirror = 1.
  auto mirror_grant = [](BinaryWriter& w) {
    w.PutU32(1);
    w.PutU32(0);  // no epochs
    w.PutU32(0);
    w.PutU32(1);
    w.PutU32(0);
    w.PutU64(1);
    w.PutDouble(2.0);
    w.PutU8(1);
  };
  {
    BinaryWriter w;
    mirror_grant(w);
    w.PutU32(kHuge);
    rejected(heartbeat, w, "mirror groups");
  }
  {
    BinaryWriter w;
    mirror_grant(w);
    w.PutU32(0);
    w.PutU32(kHuge);
    rejected(heartbeat, w, "mirror replica sets");
  }
  {
    BinaryWriter w;
    mirror_grant(w);
    w.PutU32(0);
    w.PutU32(1);
    w.PutU64(4);
    w.PutU32(kHuge);
    rejected(heartbeat, w, "mirror replica nodes");
  }
  {
    BinaryWriter w;
    mirror_grant(w);
    w.PutU32(0);
    w.PutU32(0);
    w.PutU32(kHuge);
    rejected(heartbeat, w, "mirror files");
  }
  {
    // The exact bound still decodes: two empty sections in 42 bytes.
    StageUpdatesRequest req;
    req.sections.resize(2);
    auto out = Decode<StageUpdatesRequest>(Encode(req));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->sections.size(), 2u);
  }
}

TEST(ProtoFuzzTest, BitFlipsNeverCrash) {
  ResolveSearchResponse resp;
  resp.targets = {{10, {1, 2, 3}}, {11, {4}}};
  std::string payload = Encode(resp);
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = payload;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Next());
    auto r = Decode<ResolveSearchResponse>(mutated);
    // Either rejected or decoded into *some* structurally valid message;
    // both are fine — the requirement is no crash/UB.
    (void)r;
  }
}

TEST(ProtoFuzzTest, AcgDeltaRejectsZeroWeightEdges) {
  BinaryWriter w;
  w.PutU64(0);  // no vertices
  w.PutU64(1);  // one edge
  w.PutU64(1);
  w.PutU64(2);
  w.PutU64(0);  // weight 0: invalid
  BinaryReader r(w.data());
  acg::Acg out;
  EXPECT_FALSE(acg::Acg::Deserialize(r, out).ok());
}

}  // namespace
}  // namespace propeller::core
