// Integration tests: client -> master -> index nodes, end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/cluster.h"
#include "trace/trace_gen.h"

namespace propeller::core {
namespace {

using index::AttrSet;
using index::AttrValue;
using index::CmpOp;

FileUpdate Upsert(FileId f, int64_t size, int64_t mtime, std::string path) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  u.attrs.Set("mtime", AttrValue(mtime));
  u.attrs.Set("path", AttrValue(std::move(path)));
  return u;
}

IndexSpec SizeIndex() { return {"by_size", index::IndexType::kBTree, {"size"}}; }

class ClusterTest : public ::testing::Test {
 protected:
  static ClusterConfig SmallConfig() {
    ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.master.acg_policy.cluster_target = 10;
    cfg.master.acg_policy.split_threshold = 1000;
    cfg.master.acg_policy.merge_limit = 1000;
    return cfg;
  }

  ClusterTest() : cluster_(SmallConfig()) {}

  PropellerCluster cluster_;
};

TEST_F(ClusterTest, CreateIndexThenUpdateThenSearch) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());

  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 100; ++f) {
    updates.push_back(Upsert(f, static_cast<int64_t>(f * 10), 0, "/data/f"));
  }
  auto up = cluster_.client().BatchUpdate(std::move(updates), cluster_.now());
  ASSERT_TRUE(up.ok());

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{900}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  // sizes 910..1000 -> files 91..100.
  EXPECT_EQ(r->files.size(), 10u);
  EXPECT_EQ(r->files.front(), 91u);
  EXPECT_EQ(r->files.back(), 100u);
}

TEST_F(ClusterTest, SearchImmediatelyAfterUpdateIsConsistent) {
  // The heart of the paper: no crawl delay, recall is always 100%.
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 20; ++f) {
      FileId id = static_cast<FileId>(round) * 100 + f;
      updates.push_back(Upsert(id, 1'000'000 + round, 0, "/d/f"));
    }
    ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1'000'000}));
    auto r = cluster_.client().Search(p, "by_size");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->files.size(), static_cast<size_t>((round + 1) * 20))
        << "stale search results in round " << round;
  }
}

TEST_F(ClusterTest, TimeoutCommitsStagedUpdates) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 10; ++f) updates.push_back(Upsert(f, 100, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // Before the 5s timeout the updates are staged, not committed.
  uint64_t committed = 0;
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    for (auto& stat : cluster_.index_node(i).GroupStats()) committed += stat.files;
  }
  EXPECT_EQ(committed, 0u);

  cluster_.AdvanceTime(6.0);  // past the 5 s timeout
  committed = 0;
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    for (auto& stat : cluster_.index_node(i).GroupStats()) committed += stat.files;
  }
  EXPECT_EQ(committed, 10u);
}

TEST_F(ClusterTest, AcgFlushCoLocatesCausallyRelatedFiles) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());

  fs::Vfs vfs;
  cluster_.client().AttachVfs(&vfs);
  // One process reads in.txt and writes out.txt -> same group.
  auto in = vfs.Open(1, "/app/in.txt", fs::OpenMode::kRead, true);
  auto out = vfs.Open(1, "/app/out.txt", fs::OpenMode::kWrite, true);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(out.ok());
  vfs.Close(out->fd);
  vfs.Close(in->fd);
  ASSERT_TRUE(cluster_.client().FlushAcg().ok());

  FileId fin = vfs.ns().Stat("/app/in.txt")->id;
  FileId fout = vfs.ns().Stat("/app/out.txt")->id;
  const auto& mgr = cluster_.master().acg_manager();
  ASSERT_TRUE(mgr.GroupOf(fin).has_value());
  EXPECT_EQ(mgr.GroupOf(fin), mgr.GroupOf(fout));
  // The group exists on exactly one index node.
  auto node = cluster_.master().NodeOfGroup(*mgr.GroupOf(fin));
  ASSERT_TRUE(node.has_value());
}

TEST_F(ClusterTest, SplitMigratesFilesAndKeepsSearchComplete) {
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.split_threshold = 50;
  cfg.master.acg_policy.cluster_target = 200;
  cfg.master.acg_policy.merge_limit = 200;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());

  // Build one big connected ACG of 120 files (two dense halves, weak link)
  // and index every file.
  acg::Acg delta;
  for (FileId i = 0; i < 60; ++i) {
    delta.AddEdge(1 + i, 1 + (i + 1) % 60, 10);
    delta.AddEdge(101 + i, 101 + (i + 1) % 60, 10);
  }
  delta.AddEdge(1, 101, 1);
  FlushAcgRequest freq;
  freq.delta = delta;
  auto call = cluster.transport().Call(PropellerCluster::kFirstClientId,
                                       PropellerCluster::kMasterId,
                                       "mn.flush_acg", Encode(freq));
  ASSERT_TRUE(call.status.ok());

  std::vector<FileUpdate> updates;
  for (FileId i = 0; i < 60; ++i) {
    updates.push_back(Upsert(1 + i, 100, 0, "/a/f"));
    updates.push_back(Upsert(101 + i, 100, 0, "/b/f"));
  }
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  // The oversized group must have been split into two groups.
  const auto& mgr = cluster.master().acg_manager();
  EXPECT_NE(mgr.GroupOf(1), mgr.GroupOf(101));
  EXPECT_EQ(mgr.GroupOf(1), mgr.GroupOf(60));

  // And search still sees all 120 files exactly once.
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 120u);
}

TEST_F(ClusterTest, LateMergeMigratesAcrossNodes) {
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.cluster_target = 2;  // every pair becomes a group
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());

  // Two independent pairs -> (likely) two groups on two nodes.
  acg::Acg d1;
  d1.AddEdge(1, 2);
  FlushAcgRequest f1;
  f1.delta = d1;
  cluster.transport().Call(100, 1, "mn.flush_acg", Encode(f1));
  acg::Acg d2;
  d2.AddEdge(10, 11);
  FlushAcgRequest f2;
  f2.delta = d2;
  cluster.transport().Call(100, 1, "mn.flush_acg", Encode(f2));

  std::vector<FileUpdate> updates;
  for (FileId f : {1, 2, 10, 11}) updates.push_back(Upsert(f, 50, 0, "/x/f"));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  const auto& mgr = cluster.master().acg_manager();
  ASSERT_NE(mgr.GroupOf(1), mgr.GroupOf(10));

  // A later causal edge joins the two groups; index data must follow.
  acg::Acg d3;
  d3.AddEdge(2, 10, 5);
  FlushAcgRequest f3;
  f3.delta = d3;
  auto call = cluster.transport().Call(100, 1, "mn.flush_acg", Encode(f3));
  ASSERT_TRUE(call.status.ok());
  EXPECT_EQ(mgr.GroupOf(1), mgr.GroupOf(10));

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{50}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 4u) << "merge migration lost index data";
}

TEST_F(ClusterTest, IndexNodeCrashRecoversFromWal) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 30; ++f) updates.push_back(Upsert(f, 777, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // Crash every index node before any commit happened.
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    ASSERT_TRUE(cluster_.index_node(i).CrashAndRecover().ok());
  }

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{777}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 30u) << "WAL recovery lost staged updates";
}

TEST_F(ClusterTest, MasterMetadataSnapshotRestore) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 25; ++f) updates.push_back(Upsert(f, 5, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  std::string image = cluster_.master().SnapshotMetadata();
  // Wipe + restore.
  ASSERT_TRUE(cluster_.master().RestoreMetadata(image).ok());

  // Routing still works: the same search answers fully.
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{5}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 25u);

  // And updates route to the same groups (no duplicate placement).
  const auto& mgr = cluster_.master().acg_manager();
  EXPECT_EQ(mgr.NumFiles(), 25u);
}

TEST_F(ClusterTest, DownNodeMakesSearchUnavailable) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 40; ++f) updates.push_back(Upsert(f, 9, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // Find a node that actually holds groups and kill it.
  NodeId victim = 0;
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    if (cluster_.index_node(i).NumGroups() > 0) {
      victim = cluster_.index_node(i).id();
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  cluster_.transport().SetNodeDown(victim, true);

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{9}));
  auto r = cluster_.client().Search(p, "by_size");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // Bring it back: search works again.
  cluster_.transport().SetNodeDown(victim, false);
  auto r2 = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->files.size(), 40u);
}

TEST_F(ClusterTest, NewGroupsAvoidDownNodes) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  NodeId down = cluster_.index_node(0).id();
  cluster_.transport().SetNodeDown(down, true);

  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 50; ++f) updates.push_back(Upsert(f, 1, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());
  EXPECT_EQ(cluster_.index_node(0).NumGroups(), 0u);

  cluster_.transport().SetNodeDown(down, false);
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{1}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 50u);
}

TEST_F(ClusterTest, UnknownIndexNameRejected) {
  auto r = cluster_.client().Search(Predicate{}, "nonexistent");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ClusterTest, DuplicateIndexNameRejected) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  auto again = cluster_.client().CreateIndex(SizeIndex());
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ClusterTest, GroupsSpreadAcrossNodes) {
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.cluster_target = 5;  // many small groups
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 200; ++f) updates.push_back(Upsert(f, 1, 0, "/d/f"));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  // Least-loaded placement must involve every node.
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    EXPECT_GT(cluster.index_node(i).NumGroups(), 0u) << "node " << i << " idle";
  }
}

TEST_F(ClusterTest, MoreNodesReduceWarmSearchLatency) {
  // Table IV's mechanism: fan-out parallelism cuts per-search latency.
  auto run = [](int nodes) {
    ClusterConfig cfg = SmallConfig();
    cfg.index_nodes = nodes;
    cfg.master.acg_policy.cluster_target = 50;
    PropellerCluster cluster(cfg);
    EXPECT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 2000; ++f) {
      updates.push_back(Upsert(f, static_cast<int64_t>(f), 0, "/d/f"));
    }
    EXPECT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
    Predicate p;
    p.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
    // Warm it, then measure.
    (void)cluster.client().Search(p, "by_size");
    auto r = cluster.client().Search(p, "by_size");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->files.size(), 2000u);
    return r->cost.seconds();
  };
  double one = run(1);
  double eight = run(8);
  EXPECT_LT(eight, one) << "1 node: " << one << "s, 8 nodes: " << eight << "s";
}

TEST_F(ClusterTest, EndToEndTraceWorkflow) {
  // Full pipeline: trace -> vfs events -> ACG -> flush -> index -> search.
  // Group limits sized to the application (the paper's threshold is 50k;
  // GitProfile's ACG is one ~1000-file component).
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.split_threshold = 5000;
  cfg.master.acg_policy.merge_limit = 5000;
  PropellerCluster cluster_(cfg);
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  ASSERT_TRUE(cluster_.client()
                  .CreateIndex({"by_kw", index::IndexType::kKeyword, {"path"}})
                  .ok());

  fs::Vfs vfs;
  cluster_.client().AttachVfs(&vfs);
  trace::TraceGenerator gen(trace::GitProfile(), 3);
  ASSERT_TRUE(gen.Materialize(vfs).ok());
  uint64_t pid = 1;
  ASSERT_TRUE(gen.RunExecution(vfs, &pid).ok());
  ASSERT_TRUE(cluster_.client().FlushAcg().ok());

  // Index every file with its inode attributes.
  std::vector<FileUpdate> updates;
  vfs.ns().ForEachFile([&](const fs::FileStat& st) {
    FileUpdate u;
    u.file = st.id;
    u.attrs = st.ToAttrSet();
    updates.push_back(std::move(u));
  });
  const size_t total = updates.size();
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // All files have size >= 0.
  auto all = cluster_.client().SearchQuery("size>=0", vfs.now());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->files.size(), total);

  // Keyword search finds exactly the generated objects.
  auto objs = cluster_.client().SearchQuery("keyword:out", vfs.now());
  ASSERT_TRUE(objs.ok());
  EXPECT_EQ(objs->files.size(), 300u);  // GitProfile outputs

  // Causality grouping: intra-group weight should dwarf cross-group weight.
  const auto& mgr = cluster_.master().acg_manager();
  EXPECT_GT(mgr.IntraGroupWeight(), 0u);
  EXPECT_LT(mgr.CrossGroupWeight(), mgr.IntraGroupWeight() / 5);
}

// --- stage messages: one per destination node ------------------------------

// Sits in front of every Index Node of a cluster and records each stage
// message a node receives (in arrival order) before forwarding it; restores
// the real handlers when destroyed.
class StageTap {
 public:
  explicit StageTap(PropellerCluster* cluster) : cluster_(cluster) {
    for (size_t i = 0; i < cluster->num_index_nodes(); ++i) {
      taps_.push_back(std::make_unique<Tap>(&cluster->index_node(i), this));
      cluster->transport().Register(cluster->index_node(i).id(),
                                    taps_.back().get());
    }
  }
  ~StageTap() {
    for (size_t i = 0; i < cluster_->num_index_nodes(); ++i) {
      cluster_->transport().Register(cluster_->index_node(i).id(),
                                     &cluster_->index_node(i));
    }
  }

  // Messages received per node, in order.
  std::map<NodeId, std::vector<StageUpdatesRequest>> messages;

  size_t Total() const {
    size_t n = 0;
    for (const auto& [node, msgs] : messages) n += msgs.size();
    return n;
  }
  // Group of every file a recorded section carried.
  std::map<FileId, GroupId> GroupOfFile() const {
    std::map<FileId, GroupId> out;
    for (const auto& [node, msgs] : messages) {
      for (const StageUpdatesRequest& m : msgs) {
        for (const StageSection& s : m.sections) {
          for (const FileUpdate& u : s.updates) out[u.file] = s.group;
        }
      }
    }
    return out;
  }

 private:
  struct Tap : net::RpcHandler {
    Tap(IndexNode* node, StageTap* owner) : node(node), owner(owner) {}
    Response Handle(const std::string& method,
                    const std::string& payload) override {
      if (method == "in.stage_updates") {
        auto req = Decode<StageUpdatesRequest>(payload);
        EXPECT_TRUE(req.ok());
        if (req.ok()) owner->messages[node->id()].push_back(std::move(*req));
      }
      return node->Handle(method, payload);
    }
    IndexNode* node;
    StageTap* owner;
  };
  PropellerCluster* cluster_;
  std::vector<std::unique_ptr<Tap>> taps_;
};

std::vector<FileUpdate> Wave(FileId files, int64_t size_base) {
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= files; ++f) {
    updates.push_back(Upsert(f, size_base + static_cast<int64_t>(f),
                             static_cast<int64_t>(f % 7), "/d/f"));
  }
  return updates;
}

TEST_F(ClusterTest, BatchSendsOneStageMessagePerNode) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  ASSERT_TRUE(
      cluster_.client().BatchUpdate(Wave(100, 0), cluster_.now()).ok());

  // Every file is placed now: re-touching all of them spans every group
  // (about ten, on all four nodes) with at most update_batch rows per node.
  StageTap tap(&cluster_);
  ASSERT_TRUE(
      cluster_.client().BatchUpdate(Wave(100, 1000), cluster_.now()).ok());
  ASSERT_EQ(tap.messages.size(), cluster_.num_index_nodes());
  std::set<GroupId> groups;
  for (const auto& [node, msgs] : tap.messages) {
    ASSERT_EQ(msgs.size(), 1u) << "node " << node;
    GroupId last = 0;
    for (const StageSection& s : msgs[0].sections) {
      EXPECT_GT(s.group, last) << "sections are in group order, one per group";
      last = s.group;
      EXPECT_TRUE(groups.insert(s.group).second) << "group on two nodes";
      EXPECT_FALSE(s.updates.empty());
    }
  }
  EXPECT_GT(groups.size(), tap.messages.size()) << "several groups per node";
}

TEST_F(ClusterTest, NodeShareBeyondUpdateBatchIsChunkedInOrder) {
  ClusterConfig cfg = SmallConfig();
  cfg.client.update_batch = 8;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  ASSERT_TRUE(cluster.client().BatchUpdate(Wave(100, 0), cluster.now()).ok());

  StageTap tap(&cluster);
  std::vector<FileUpdate> wave = Wave(100, 1000);
  // A file updated twice in one batch: the later update must stage last.
  wave.push_back(Upsert(1, 5000, 0, "/d/f"));
  ASSERT_TRUE(cluster.client().BatchUpdate(wave, cluster.now()).ok());
  const std::map<FileId, GroupId> group_of = tap.GroupOfFile();
  size_t rows_total = 0;
  for (const auto& [node, msgs] : tap.messages) {
    size_t rows = 0;
    std::map<GroupId, std::vector<FileId>> staged;  // per group, in order
    for (const StageUpdatesRequest& m : msgs) {
      size_t in_msg = 0;
      for (const StageSection& s : m.sections) {
        for (const FileUpdate& u : s.updates) {
          staged[s.group].push_back(u.file);
          ++in_msg;
        }
      }
      EXPECT_LE(in_msg, cfg.client.update_batch);
      rows += in_msg;
    }
    EXPECT_EQ(msgs.size(),
              (rows + cfg.client.update_batch - 1) / cfg.client.update_batch)
        << "node " << node;
    // Each group's updates arrive in batch order across the messages.
    for (const auto& [g, files] : staged) {
      std::vector<FileId> want;
      for (const FileUpdate& u : wave) {
        if (group_of.at(u.file) == g) want.push_back(u.file);
      }
      EXPECT_EQ(files, want) << "group " << g;
    }
    rows_total += rows;
  }
  EXPECT_EQ(rows_total, wave.size());

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{5000}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files, (std::vector<FileId>{1}));
}

TEST_F(ClusterTest, SectionedStagingMatchesOneGroupAtATime) {
  auto run = [](bool per_group) {
    PropellerCluster cluster(SmallConfig());
    EXPECT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
    std::map<FileId, GroupId> group_of;
    {
      StageTap tap(&cluster);
      EXPECT_TRUE(cluster.client().BatchUpdate(Wave(100, 0), cluster.now()).ok());
      group_of = tap.GroupOfFile();
    }
    std::vector<FileUpdate> wave = Wave(100, 1000);
    for (FileId f = 1; f <= 100; f += 3) wave.push_back(Upsert(f, 7, 1, "/d/g"));
    if (per_group) {
      std::map<GroupId, std::vector<FileUpdate>> by_group;
      for (FileUpdate& u : wave) by_group[group_of.at(u.file)].push_back(u);
      for (auto& [g, updates] : by_group) {
        EXPECT_TRUE(
            cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
      }
    } else {
      EXPECT_TRUE(cluster.client().BatchUpdate(wave, cluster.now()).ok());
    }
    std::vector<std::vector<FileId>> results;
    for (int64_t lo : {0, 8, 1040, 1090}) {
      Predicate p;
      p.And("size", CmpOp::kGt, AttrValue(lo));
      auto r = cluster.client().Search(p, "by_size");
      EXPECT_TRUE(r.ok());
      results.push_back(r.ok() ? r->files : std::vector<FileId>{});
    }
    return results;
  };
  const auto sectioned = run(false);
  EXPECT_EQ(sectioned, run(true));
  EXPECT_EQ(sectioned[1].size(), 100u - 34u);
}

TEST_F(ClusterTest, MissingGroupFailsOnlyItsOwnSection) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::map<FileId, GroupId> group_of;
  {
    StageTap tap(&cluster_);
    ASSERT_TRUE(
        cluster_.client().BatchUpdate(Wave(100, 0), cluster_.now()).ok());
    group_of = tap.GroupOfFile();
  }
  // Take one group away from its node behind the master's back; the node
  // keeps its other groups.
  size_t victim = cluster_.num_index_nodes();
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    if (cluster_.index_node(i).NumGroups() >= 2) victim = i;
  }
  ASSERT_LT(victim, cluster_.num_index_nodes());
  IndexNode& node = cluster_.index_node(victim);
  const GroupId lost = node.GroupStats().front().group;
  DropGroupRequest drop;
  drop.group = lost;
  ASSERT_TRUE(node.Handle("in.drop_group", Encode(drop)).status.ok());

  auto up = cluster_.client().BatchUpdate(Wave(100, 1000), cluster_.now());
  ASSERT_FALSE(up.ok());
  EXPECT_EQ(up.status().code(), StatusCode::kNotFound);
  const std::string msg = up.status().message();
  const std::string pair = "node " + std::to_string(node.id()) + " group " +
                           std::to_string(lost) + ":";
  EXPECT_NE(msg.find(pair), std::string::npos) << msg;
  EXPECT_EQ(msg.find("; "), std::string::npos)
      << "exactly one (node, group) failed: " << msg;

  // Every other group — on the same node too — landed.
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{1000}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  size_t lost_files = 0;
  for (const auto& [f, g] : group_of) lost_files += g == lost ? 1 : 0;
  ASSERT_GT(lost_files, 0u);
  EXPECT_EQ(r->files.size(), 100u - lost_files);
  for (FileId f : r->files) EXPECT_NE(group_of.at(f), lost);
}

TEST_F(ClusterTest, ReplicatedBatchReachesQuorumPerGroup) {
  ClusterConfig cfg = SmallConfig();
  cfg.replication_factor = 3;
  cfg.recovery_journal = true;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  ASSERT_TRUE(cluster.client().BatchUpdate(Wave(100, 0), cluster.now()).ok());

  // One message per node, mixing the node's primary and secondary sections.
  std::map<GroupId, std::vector<NodeId>> replicas;
  {
    StageTap tap(&cluster);
    ASSERT_TRUE(
        cluster.client().BatchUpdate(Wave(100, 1000), cluster.now()).ok());
    bool mixed = false;
    for (const auto& [node, msgs] : tap.messages) {
      ASSERT_EQ(msgs.size(), 1u) << "node " << node;
      std::set<uint8_t> roles;
      for (const StageSection& s : msgs[0].sections) {
        roles.insert(s.replica_role);
        if (replicas.count(s.group) == 0u) {
          replicas[s.group] = cluster.master().ReplicasOfGroup(s.group);
        }
        const auto& set = replicas[s.group];
        ASSERT_EQ(set.size(), 3u);
        EXPECT_EQ(s.replica_role == kReplicaRolePrimary, set[0] == node);
      }
      mixed = mixed || roles.size() == 2u;
    }
    EXPECT_TRUE(mixed);
  }

  // One node silently down (the master does not know): a group it is a
  // secondary of still has primary + one secondary = quorum; a group it is
  // the primary of cannot land.  The verdict is per group.
  const NodeId down = cluster.index_node(0).id();
  cluster.transport().SetNodeDown(down, true);
  auto up = cluster.client().BatchUpdate(Wave(100, 2000), cluster.now());
  cluster.transport().SetNodeDown(down, false);
  std::set<GroupId> primary_on_down;
  for (const auto& [g, set] : replicas) {
    if (set[0] == down) primary_on_down.insert(g);
  }
  ASSERT_FALSE(primary_on_down.empty());
  ASSERT_LT(primary_on_down.size(), replicas.size());
  ASSERT_FALSE(up.ok());
  const std::string msg = up.status().message();
  for (const auto& [g, set] : replicas) {
    const std::string pair = "node " + std::to_string(set[0]) + " group " +
                             std::to_string(g) + ":";
    EXPECT_EQ(msg.find(pair) != std::string::npos,
              primary_on_down.count(g) != 0u)
        << "group " << g << ": " << msg;
  }
  EXPECT_EQ(msg.find("quorum"), std::string::npos) << msg;
}

}  // namespace
}  // namespace propeller::core
