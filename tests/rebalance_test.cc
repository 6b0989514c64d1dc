// Master-instructed group rebalancing (Fig. 6: "migrate indices/ACGs to
// other IndexNodes under the instructions from MasterNode").
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

FileUpdate Upsert(FileId f, int64_t size) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  return u;
}

ClusterConfig Config() {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 10;  // groups of 10 files
  return cfg;
}

// Creates `files` files; groups spread by least-loaded placement.
void Populate(PropellerCluster& cluster, FileId first, uint64_t files) {
  std::vector<FileUpdate> updates;
  for (FileId f = first; f < first + files; ++f) updates.push_back(Upsert(f, 5));
  ASSERT_TRUE(
      cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
}

size_t MaxGroupsOnANode(PropellerCluster& cluster) {
  size_t hi = 0;
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    hi = std::max(hi, cluster.index_node(i).NumGroups());
  }
  return hi;
}

TEST(RebalanceTest, SpreadsGroupsAfterNodeOutage) {
  PropellerCluster cluster(Config());
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());

  // Node 0 is down while 160 files (16 groups) arrive: the other three
  // nodes absorb everything.
  NodeId down = cluster.index_node(0).id();
  cluster.transport().SetNodeDown(down, true);
  Populate(cluster, 1, 160);
  EXPECT_EQ(cluster.index_node(0).NumGroups(), 0u);

  // Node 0 returns; the master rebalances.
  cluster.transport().SetNodeDown(down, false);
  sim::Cost cost;
  size_t moved = cluster.master().RunRebalance(&cost);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(cost.seconds(), 0.0);
  EXPECT_GT(cluster.index_node(0).NumGroups(), 0u) << "returned node still idle";
  // Spread: no node holds more than ceil(16/4) + slack = 5 groups.
  EXPECT_LE(MaxGroupsOnANode(cluster), 5u);

  // No data lost: every file still searchable exactly once.
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{5}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 160u);
}

TEST(RebalanceTest, BalancedClusterIsANoOp) {
  PropellerCluster cluster(Config());
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  Populate(cluster, 1, 160);  // least-loaded placement: already even
  sim::Cost cost;
  EXPECT_EQ(cluster.master().RunRebalance(&cost), 0u);
  EXPECT_DOUBLE_EQ(cost.seconds(), 0.0);
}

TEST(RebalanceTest, UpdatesRouteCorrectlyAfterRebalance) {
  PropellerCluster cluster(Config());
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  NodeId down = cluster.index_node(0).id();
  cluster.transport().SetNodeDown(down, true);
  Populate(cluster, 1, 120);
  cluster.transport().SetNodeDown(down, false);
  ASSERT_GT(cluster.master().RunRebalance(nullptr), 0u);

  // Updating a migrated file must land on its new node and be visible.
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 120; ++f) updates.push_back(Upsert(f, 9));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{9}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 120u);
}

TEST(RebalanceTest, SkipsDownNodes) {
  PropellerCluster cluster(Config());
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  NodeId down = cluster.index_node(0).id();
  cluster.transport().SetNodeDown(down, true);
  Populate(cluster, 1, 120);
  // Node still down: rebalancing must not try to move anything onto it.
  (void)cluster.master().RunRebalance(nullptr);
  EXPECT_EQ(cluster.index_node(0).NumGroups(), 0u);

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{5}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 120u);
}

size_t MinGroupsOnANode(PropellerCluster& cluster) {
  size_t lo = ~size_t{0};
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    lo = std::min(lo, cluster.index_node(i).NumGroups());
  }
  return lo;
}

TEST(RebalanceTest, ZeroSlackStopsWhenNoMoveCanShrinkTheSpread) {
  // Five groups on four nodes cannot spread evenly: the best is a spread
  // of one, and moving a group off the busiest node only makes the idlest
  // the busiest.  Rebalancing must stop there, not ping-pong forever.
  ClusterConfig cfg = Config();
  cfg.master.acg_policy.cluster_target = 6;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  Populate(cluster, 1, 30);
  sim::Cost cost;
  (void)cluster.master().RunRebalance(&cost, /*slack=*/0);
  EXPECT_LE(MaxGroupsOnANode(cluster), MinGroupsOnANode(cluster) + 1);

  // From a lopsided start too: node 0 missed every placement.
  PropellerCluster skewed(cfg);
  ASSERT_TRUE(skewed.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  NodeId down = skewed.index_node(0).id();
  skewed.transport().SetNodeDown(down, true);
  Populate(skewed, 1, 30);
  skewed.transport().SetNodeDown(down, false);
  EXPECT_GT(skewed.master().RunRebalance(&cost, /*slack=*/0), 0u);
  EXPECT_LE(MaxGroupsOnANode(skewed), MinGroupsOnANode(skewed) + 1);
}

}  // namespace
}  // namespace propeller::core
