// Cross-client placement freshness: one client writes, another searches
// from its placement cache, and every control-plane change the writer
// drives — group creation, an mn.flush_acg merge, a split migration, a
// rebalance and a standby failover — must be visible to the searcher's very
// next search.  The rule under test (proto.h's epoch convention): no client
// acts on a placement older than one an Index Node was told about.  The
// master pushes every epoch bump before answering, a node refuses older
// stamps with kStaleLocation, and the client repairs once, at the master.
//
// The writer's own caches go stale at each step too: its next batch names
// dissolved, split or moved groups, and those stages must land in the
// right group.  Each write generation g gives file f the size
// g * kGen + f, so a copy left behind in a wrong group would show up in
// an older generation's band.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/cluster.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

constexpr int64_t kGen = 1000;
constexpr uint64_t kGroupFiles = 6;  // cluster_target

ClusterConfig Config() {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = kGroupFiles;
  cfg.master.acg_policy.merge_limit = 1000;
  cfg.master.acg_policy.split_threshold = 20;
  return cfg;
}

class PlacementFreshnessTest : public ::testing::Test {
 protected:
  PlacementFreshnessTest()
      : cluster_(Config()),
        writer_(cluster_.client()),
        searcher_(cluster_.AddClient()) {}

  // The writer (re)writes `files` as generation `gen`; the model follows
  // only acknowledged batches.
  void Write(FileId first, FileId last, int64_t gen) {
    std::vector<FileUpdate> updates;
    for (FileId f = first; f <= last; ++f) {
      FileUpdate u;
      u.file = f;
      u.attrs.Set("size", AttrValue(gen * kGen + static_cast<int64_t>(f)));
      updates.push_back(std::move(u));
    }
    auto r = writer_.BatchUpdate(std::move(updates), cluster_.now());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (FileId f = first; f <= last; ++f) model_[f] = gen;
  }

  // The writer ships an ACG delta straight to the master, as a client's
  // FlushAcg does; nothing in its placement cache changes.
  void FlushEdges(const std::vector<std::pair<FileId, FileId>>& edges) {
    acg::Acg delta;
    for (const auto& [a, b] : edges) delta.AddEdge(a, b, 1);
    FlushAcgRequest req;
    req.delta = std::move(delta);
    auto call = cluster_.transport().Call(writer_.id(),
                                          PropellerCluster::kMasterId,
                                          "mn.flush_acg", Encode(req));
    ASSERT_TRUE(call.status.ok()) << call.status.ToString();
  }

  std::vector<FileId> SearchBand(int64_t lo, int64_t hi) {
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(lo));
    p.And("size", CmpOp::kLt, AttrValue(hi));
    auto r = searcher_.Search(p, "by_size");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    EXPECT_FALSE(r->partial);
    return r->files;
  }

  // The searcher's results equal the model: every file once, in the band
  // of its latest generation and in no other.
  void ExpectSearcherMatchesModel(const char* step) {
    std::map<int64_t, std::vector<FileId>> by_gen;
    std::vector<FileId> all;
    for (const auto& [f, gen] : model_) {
      by_gen[gen].push_back(f);
      all.push_back(f);
    }
    EXPECT_EQ(SearchBand(0, 100 * kGen), all) << step;
    for (int64_t gen = 1; gen <= max_gen_; ++gen) {
      EXPECT_EQ(SearchBand(gen * kGen, (gen + 1) * kGen), by_gen[gen])
          << step << ": generation " << gen;
    }
  }

  // Rewrites every modelled file as the next generation.
  void RewriteAll() {
    ++max_gen_;
    Write(model_.begin()->first, model_.rbegin()->first, max_gen_);
  }

  static uint64_t Repairs(PropellerClient& client) {
    auto snap = client.MetricsSnapshot();
    auto it = snap.counters.find("client.placement_cache.stale_retries");
    return it == snap.counters.end() ? 0 : it->second;
  }
  uint64_t SearcherRepairs() { return Repairs(searcher_); }

  std::map<NodeId, std::vector<GroupId>> GroupsByNode() {
    std::map<NodeId, std::vector<GroupId>> out;
    for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
      IndexNode& node = cluster_.index_node(i);
      out[node.id()];
      for (const auto& stat : node.GroupStats()) {
        if (cluster_.master().NodeOfGroup(stat.group) == node.id()) {
          out[node.id()].push_back(stat.group);
        }
      }
    }
    return out;
  }

  PropellerCluster cluster_;
  PropellerClient& writer_;
  PropellerClient& searcher_;
  std::map<FileId, int64_t> model_;  // file -> generation of its last write
  int64_t max_gen_ = 1;
};

TEST_F(PlacementFreshnessTest, SearcherSeesEveryControlPlaneChange) {
  ASSERT_TRUE(writer_.CreateIndex({"by_size", index::IndexType::kBTree,
                                   {"size"}}).ok());
  cluster_.EnableStandbyMaster();

  // Four groups, one per node; the searcher caches their placement.
  Write(1, 4 * kGroupFiles, 1);
  ExpectSearcherMatchesModel("initial");
  ASSERT_EQ(cluster_.master().NumGroups(), 4u);

  // --- group creation: four more groups the searcher never resolved.
  uint64_t repairs = SearcherRepairs();
  Write(4 * kGroupFiles + 1, 8 * kGroupFiles, 1);
  ASSERT_EQ(cluster_.master().NumGroups(), 8u);
  ExpectSearcherMatchesModel("group creation");
  EXPECT_GT(SearcherRepairs(), repairs) << "the cached targets went stale";

  // --- merge: dissolve both groups of one node into groups elsewhere.
  auto by_node = GroupsByNode();
  NodeId victim = 0;
  for (const auto& [node, groups] : by_node) {
    if (groups.size() == 2) victim = node;
  }
  ASSERT_NE(victim, 0u);
  std::vector<GroupId> keep;
  for (const auto& [node, groups] : by_node) {
    if (node != victim) keep.insert(keep.end(), groups.begin(), groups.end());
  }
  auto first_file_of = [&](GroupId g) {
    for (const auto& [f, gen] : model_) {
      if (cluster_.master().acg_manager().GroupOf(f) == g) return f;
    }
    return FileId{0};
  };
  // Equal sizes: the edge's `to` group dissolves into the `from` group.
  FlushEdges({{first_file_of(keep[0]), first_file_of(by_node[victim][0])},
              {first_file_of(keep[1]), first_file_of(by_node[victim][1])}});
  ASSERT_EQ(cluster_.master().NumGroups(), 6u);
  repairs = SearcherRepairs();
  uint64_t writer_repairs = Repairs(writer_);
  RewriteAll();  // the writer's routes to the dissolved groups are stale
  EXPECT_EQ(Repairs(writer_), writer_repairs + 1);
  ExpectSearcherMatchesModel("merge");
  EXPECT_GT(SearcherRepairs(), repairs);

  // --- rebalance: the emptied node takes a group back.
  sim::Cost cost;
  ASSERT_GT(cluster_.master().RunRebalance(&cost, /*slack=*/1), 0u);
  repairs = SearcherRepairs();
  writer_repairs = Repairs(writer_);
  RewriteAll();  // the moved group's old node dropped it
  EXPECT_EQ(Repairs(writer_), writer_repairs + 1);
  ExpectSearcherMatchesModel("rebalance");
  EXPECT_GT(SearcherRepairs(), repairs);

  // --- split: nine new files join a 12-file merged group, pushing it past
  // the split threshold, and half of it migrates to a new group.
  const FileId anchor = first_file_of(keep[0]);
  const GroupId before_split = *cluster_.master().acg_manager().GroupOf(anchor);
  ASSERT_EQ(cluster_.master().acg_manager().GroupSize(before_split), 12u);
  std::vector<std::pair<FileId, FileId>> joins;
  const FileId next = model_.rbegin()->first + 1;
  for (FileId f = next; f < next + 9; ++f) joins.emplace_back(anchor, f);
  const uint64_t groups_before = cluster_.master().NumGroups();
  FlushEdges(joins);
  ASSERT_EQ(cluster_.master().NumGroups(), groups_before + 1) << "no split";
  repairs = SearcherRepairs();
  writer_repairs = Repairs(writer_);
  RewriteAll();  // files that moved out are still cached under the old group
  EXPECT_EQ(Repairs(writer_), writer_repairs + 1);
  Write(next, next + 8, max_gen_);
  ExpectSearcherMatchesModel("split");
  EXPECT_GT(SearcherRepairs(), repairs);

  // --- failover: the standby's image predates the last group.
  (void)cluster_.master().ForceMetadataFlush();
  const FileId tail = model_.rbegin()->first + 1;
  Write(tail, tail + kGroupFiles - 1, max_gen_);
  ExpectSearcherMatchesModel("before failover");
  ASSERT_TRUE(cluster_.FailoverToStandby().ok());
  repairs = SearcherRepairs();
  writer_repairs = Repairs(writer_);
  RewriteAll();  // the standby re-places the files it never saw
  EXPECT_EQ(Repairs(writer_), writer_repairs + 1);
  ExpectSearcherMatchesModel("failover");
  EXPECT_GT(SearcherRepairs(), repairs);
}

// The standby starts above every epoch a node was told, so a stamp issued
// by the old master is refused instead of matching a recycled epoch.
TEST_F(PlacementFreshnessTest, FailoverRaisesEpochsAboveEveryNode) {
  ASSERT_TRUE(writer_.CreateIndex({"by_size", index::IndexType::kBTree,
                                   {"size"}}).ok());
  cluster_.EnableStandbyMaster();
  Write(1, 4 * kGroupFiles, 1);  // bumps past the standby's image
  const uint64_t old_epoch = cluster_.master().MetadataEpochOfShard(0);
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    EXPECT_EQ(cluster_.index_node(i).KnownEpochs(),
              std::vector<uint64_t>{old_epoch})
        << "the master pushes every bump before it answers";
  }
  ASSERT_TRUE(cluster_.FailoverToStandby().ok());
  const uint64_t new_epoch = cluster_.master().MetadataEpochOfShard(0);
  EXPECT_GT(new_epoch, old_epoch);
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    EXPECT_EQ(cluster_.index_node(i).KnownEpochs(),
              std::vector<uint64_t>{new_epoch});
  }
}

// A node that was down for a push catches up from its next heartbeat ack.
TEST_F(PlacementFreshnessTest, MissedPushCatchesUpOnHeartbeat) {
  ASSERT_TRUE(writer_.CreateIndex({"by_size", index::IndexType::kBTree,
                                   {"size"}}).ok());
  cluster_.KillIndexNode(3);
  Write(1, 2 * kGroupFiles, 1);
  const uint64_t epoch = cluster_.master().MetadataEpochOfShard(0);
  EXPECT_LT(cluster_.index_node(3).KnownEpochs(),
            std::vector<uint64_t>{epoch});
  cluster_.ReviveIndexNode(3);
  cluster_.AdvanceTime(1.0);  // one heartbeat round
  EXPECT_EQ(cluster_.index_node(3).KnownEpochs(),
            std::vector<uint64_t>{epoch});
}

// An epoch bump is pushed once per operation, and only by operations that
// bump: steady-state resolves and searches push nothing.
TEST_F(PlacementFreshnessTest, OnlyBumpingOperationsPush) {
  ASSERT_TRUE(writer_.CreateIndex({"by_size", index::IndexType::kBTree,
                                   {"size"}}).ok());
  auto pushes = [&] {
    auto snap = cluster_.master().MetricsSnapshot();
    auto it = snap.counters.find("mn.epoch_pushes");
    return it == snap.counters.end() ? uint64_t{0} : it->second;
  };
  uint64_t before = pushes();
  Write(1, 4 * kGroupFiles, 1);  // four groups created in one resolve
  EXPECT_EQ(pushes(), before + 1);
  before = pushes();
  Write(1, 4 * kGroupFiles, 2);  // every placement cached
  ExpectSearcherMatchesModel("steady state");
  cluster_.AdvanceTime(1.0);
  EXPECT_EQ(pushes(), before);
}

}  // namespace
}  // namespace propeller::core
