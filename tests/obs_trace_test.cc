// Simulated-clock distributed tracing: one client Search over a 4-IN
// cluster — with a retried (dropped) RPC and an injected delay from a
// seeded FaultPlan — must yield a single causal span tree covering the
// client, the master, and the index nodes, with simulated timestamps that
// are bit-identical across runs and across the serial / parallel execution
// engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "net/fault.h"
#include "obs/trace.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

constexpr NodeId kDropNode = PropellerCluster::kFirstIndexNodeId;       // 10
constexpr NodeId kDelayNode = PropellerCluster::kFirstIndexNodeId + 1;  // 11

std::unique_ptr<PropellerCluster> BuildCluster(bool parallel) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.tracing = true;
  cfg.parallel_execution = parallel;
  cfg.client.fanout_threads = 4;
  cfg.index_node.search_threads = 4;
  cfg.client.retry.max_attempts = 3;
  // Small groups so the load below spreads across all four nodes.
  cfg.master.acg_policy.cluster_target = 8;
  cfg.master.acg_policy.split_threshold = 1000;
  cfg.master.acg_policy.merge_limit = 1000;
  auto cluster = std::make_unique<PropellerCluster>(cfg);
  EXPECT_TRUE(cluster->client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  std::vector<FileUpdate> updates;
  for (uint64_t f = 1; f <= 64; ++f) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("size", AttrValue(static_cast<int64_t>(f * 1000)));
    updates.push_back(std::move(u));
  }
  EXPECT_TRUE(cluster->client().BatchUpdate(std::move(updates),
                                            cluster->now()).ok());
  cluster->AdvanceTime(6.0);  // commit the staged batch
  return cluster;
}

// One traced search under a scripted fault plan: the first in.search to
// kDropNode is dropped (the retry passes), the first to kDelayNode carries
// +50ms of simulated latency.  Returns the recorded spans of that search.
std::vector<obs::Span> TracedFaultySearch(PropellerCluster& cluster) {
  auto plan = std::make_shared<net::FaultPlan>(99);
  plan->AddRule(net::FaultRule{.dst = kDropNode,
                               .method = "in.search",
                               .drop_prob = 1.0,
                               .max_triggers = 1});
  plan->AddRule(net::FaultRule{.dst = kDelayNode,
                               .method = "in.search",
                               .delay_prob = 1.0,
                               .delay_s = 0.05,
                               .max_triggers = 1});
  cluster.transport().SetFaultPlan(plan);
  cluster.tracer().Clear();  // keep only the search's tree
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
  auto r = cluster.client().Search(p, "by_size");
  cluster.transport().SetFaultPlan(nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) {
    EXPECT_FALSE(r->partial);  // the retry absorbed the drop
    EXPECT_EQ(r->files.size(), 64u);
    EXPECT_EQ(r->nodes_queried, 4u);
  }
  return cluster.tracer().Spans();
}

bool HasTag(const obs::Span& s, const std::string& k, const std::string& v) {
  for (const auto& [tk, tv] : s.tags) {
    if (tk == k && tv == v) return true;
  }
  return false;
}

TEST(ObsTraceTest, SearchWithRetryAndDelayYieldsOneCausalTree) {
  auto cluster = BuildCluster(/*parallel=*/false);
  std::vector<obs::Span> spans = TracedFaultySearch(*cluster);
  ASSERT_FALSE(spans.empty());

  // Exactly one root, and it is the client's search span.
  std::vector<const obs::Span*> roots;
  for (const auto& s : spans) {
    if (s.parent_id == 0) roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "client.search");
  EXPECT_EQ(roots[0]->node, PropellerCluster::kFirstClientId);

  // Every span belongs to that trace and no span is orphaned: parents
  // resolve within the recorded set.
  std::set<uint64_t> ids;
  for (const auto& s : spans) ids.insert(s.span_id);
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, roots[0]->trace_id) << s.name;
    if (s.parent_id != 0) {
      EXPECT_TRUE(ids.count(s.parent_id) != 0u)
          << "orphan span " << s.name << " on node " << s.node;
    }
    EXPECT_LE(s.start_s, s.end_s) << s.name;
    EXPECT_GE(s.start_s, roots[0]->start_s - 1e-12) << s.name;
    EXPECT_LE(s.end_s, roots[0]->end_s + 1e-12) << s.name;
  }

  // The tree covers master and index-node work.
  auto count_name = [&](const std::string& n) {
    return std::count_if(spans.begin(), spans.end(),
                         [&](const obs::Span& s) { return s.name == n; });
  };
  EXPECT_EQ(count_name("mn.resolve_search"), 1);
  // 4 nodes answered + 1 dropped first attempt to kDropNode.
  EXPECT_EQ(count_name("in.search"), 5);
  EXPECT_GE(count_name("group.search"), 4);

  // The dropped attempt appears, tagged, on the transport span; the client
  // side shows two rpc attempts to that node plus one backoff sleep.
  int drops = 0, delays = 0, backoffs = 0, attempts_to_drop_node = 0;
  std::set<uint64_t> in_search_nodes;
  for (const auto& s : spans) {
    if (s.name == "in.search") {
      in_search_nodes.insert(s.node);
      if (HasTag(s, "fault", "drop")) ++drops;
      if (HasTag(s, "fault", "delay")) ++delays;
    }
    if (s.name == "backoff") ++backoffs;
    if (s.name == "rpc" && HasTag(s, "method", "in.search") &&
        HasTag(s, "to", std::to_string(kDropNode))) {
      ++attempts_to_drop_node;
    }
  }
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(delays, 1);
  EXPECT_EQ(backoffs, 1);
  EXPECT_EQ(attempts_to_drop_node, 2);
  EXPECT_EQ(in_search_nodes.size(), 4u)
      << "every index node should host an in.search span";

  // The delayed node's successful span is at least delay_s long.
  double max_in_search = 0;
  for (const auto& s : spans) {
    if (s.name == "in.search" && s.node == kDelayNode &&
        !HasTag(s, "fault", "drop")) {
      max_in_search = std::max(max_in_search, s.end_s - s.start_s);
    }
  }
  EXPECT_GE(max_in_search, 0.05);
}

// Two identically-seeded runs export bit-identical traces: same span ids,
// same simulated timestamps, same tags — doubles compared exactly.
TEST(ObsTraceTest, TracesAreBitIdenticalAcrossRunsAndEngines) {
  auto run = [](bool parallel) {
    auto cluster = BuildCluster(parallel);
    return TracedFaultySearch(*cluster);
  };
  std::vector<obs::Span> a = run(false);
  std::vector<obs::Span> b = run(false);  // same seed, fresh cluster
  std::vector<obs::Span> c = run(true);   // parallel execution engine

  auto expect_identical = [](const std::vector<obs::Span>& x,
                             const std::vector<obs::Span>& y,
                             const char* label) {
    ASSERT_EQ(x.size(), y.size()) << label;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].trace_id, y[i].trace_id) << label << " #" << i;
      EXPECT_EQ(x[i].span_id, y[i].span_id) << label << " #" << i;
      EXPECT_EQ(x[i].parent_id, y[i].parent_id) << label << " #" << i;
      EXPECT_EQ(x[i].name, y[i].name) << label << " #" << i;
      EXPECT_EQ(x[i].node, y[i].node) << label << " #" << i;
      // Bit-identical simulated time, not approximately equal.
      EXPECT_EQ(x[i].start_s, y[i].start_s) << label << " " << x[i].name;
      EXPECT_EQ(x[i].end_s, y[i].end_s) << label << " " << x[i].name;
      EXPECT_EQ(x[i].tags, y[i].tags) << label << " " << x[i].name;
    }
  };
  expect_identical(a, b, "serial-vs-serial");
  expect_identical(a, c, "serial-vs-parallel");
}

// A cold search explains its own cost: every group.search span says how
// many record pages it read and whether the index alone answered.
TEST(ObsTraceTest, ColdSearchSpansTagRecordFetch) {
  ClusterConfig cfg;
  cfg.index_nodes = 2;
  cfg.tracing = true;
  cfg.master.acg_policy.cluster_target = 16;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_attrs", index::IndexType::kKdTree,
                                {"size", "mtime"}})
                  .ok());
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_path", index::IndexType::kKeyword, {"path"}})
                  .ok());
  std::vector<FileUpdate> updates;
  for (uint64_t f = 1; f <= 64; ++f) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("size", AttrValue(static_cast<int64_t>(f * 1000)));
    u.attrs.Set("mtime", AttrValue(static_cast<int64_t>(f)));
    u.attrs.Set("path", AttrValue(f % 2 == 0 ? "/even/x" : "/odd/x"));
    updates.push_back(std::move(u));
  }
  ASSERT_TRUE(
      cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
  cluster.AdvanceTime(6.0);  // commit the staged batch

  // Returns the group.search spans of one search run on cold caches.
  auto cold_search = [&](const Predicate& p, const std::string& index) {
    cluster.DropAllCaches();
    cluster.tracer().Clear();
    auto r = cluster.client().Search(p, index);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<obs::Span> group_spans;
    for (const obs::Span& s : cluster.tracer().Spans()) {
      if (s.name == "group.search") group_spans.push_back(s);
    }
    return group_spans;
  };
  auto tag = [](const obs::Span& s, const std::string& k) {
    for (const auto& [tk, tv] : s.tags) {
      if (tk == k) return tv;
    }
    ADD_FAILURE() << s.name << " has no tag " << k;
    return std::string();
  };

  // Fully covered by the K-D tree: no record page is read anywhere.
  Predicate covered;
  covered.And("size", CmpOp::kGt, AttrValue(int64_t{16000}))
      .And("mtime", CmpOp::kLe, AttrValue(int64_t{40}));
  auto spans = cold_search(covered, "by_attrs");
  ASSERT_FALSE(spans.empty());
  for (const obs::Span& s : spans) {
    EXPECT_EQ(tag(s, "index_only"), "1");
    EXPECT_EQ(tag(s, "record_pages"), "0");
  }

  // A keyword term needs verification: the spans carry the pages read.
  Predicate keyword;
  keyword.And("path", CmpOp::kContainsWord, AttrValue("even"))
      .And("mtime", CmpOp::kLe, AttrValue(int64_t{40}));
  spans = cold_search(keyword, "by_path");
  ASSERT_FALSE(spans.empty());
  uint64_t pages = 0;
  for (const obs::Span& s : spans) {
    EXPECT_EQ(tag(s, "index_only"), "0");
    pages += std::stoull(tag(s, "record_pages"));
  }
  EXPECT_GT(pages, 0u);
}

// A commit explains its own cost: every group.commit span says how many
// distinct pages it charged and how many of those were new (allocated
// rather than read from disk).
TEST(ObsTraceTest, CommitSpansTagPagesAndAllocations) {
  ClusterConfig cfg;
  cfg.index_nodes = 2;
  cfg.tracing = true;
  cfg.master.acg_policy.cluster_target = 16;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_attrs", index::IndexType::kKdTree,
                                {"size", "mtime"}})
                  .ok());
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_path", index::IndexType::kKeyword, {"path"}})
                  .ok());
  // Stages version `version` of files 1-64 and returns the group.commit
  // spans of the search that commits them.
  auto committed_by_search = [&](int64_t version) {
    std::vector<FileUpdate> updates;
    for (uint64_t f = 1; f <= 64; ++f) {
      FileUpdate u;
      u.file = f;
      u.attrs.Set("size", AttrValue(static_cast<int64_t>(f * 1000) + version));
      u.attrs.Set("mtime", AttrValue(version));
      u.attrs.Set("path", AttrValue("/d/x" + std::to_string(f)));
      updates.push_back(std::move(u));
    }
    EXPECT_TRUE(
        cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
    cluster.tracer().Clear();
    Predicate p;
    p.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
    EXPECT_TRUE(cluster.client().Search(p, "by_attrs").ok());
    std::vector<obs::Span> commits;
    for (const obs::Span& s : cluster.tracer().Spans()) {
      if (s.name == "group.commit") commits.push_back(s);
    }
    return commits;
  };
  auto tag = [](const obs::Span& s, const std::string& k) -> uint64_t {
    for (const auto& [tk, tv] : s.tags) {
      if (tk == k) return std::stoull(tv);
    }
    ADD_FAILURE() << s.name << " has no tag " << k;
    return 0;
  };

  // Fresh groups: the record heap, the keyword table and the K-D image are
  // new pages (an empty K-D tree has no page to load), so the first commit
  // touches only pages it creates.
  auto first = committed_by_search(1);
  ASSERT_FALSE(first.empty());
  for (const obs::Span& s : first) {
    EXPECT_GT(tag(s, "allocated"), 0u);
    EXPECT_EQ(tag(s, "pages"), tag(s, "allocated"));
  }
  // Rewriting the same files touches pages that exist by now.
  auto second = committed_by_search(2);
  ASSERT_EQ(second.size(), first.size());
  for (const obs::Span& s : second) {
    EXPECT_GT(tag(s, "pages"), 0u);
    EXPECT_LE(tag(s, "allocated"), tag(s, "pages"));
  }
}

// A batch update explains its whole cost: each node gets one stage message
// whose server span holds one wal.append per group, laid end to end, and
// the client root's critical path reaches back to its start with no time
// left unattributed.
TEST(ObsTraceTest, BatchUpdateCostReconcilesWithItsCriticalPath) {
  ClusterConfig cfg;
  cfg.index_nodes = 2;
  cfg.tracing = true;
  cfg.master.acg_policy.cluster_target = 8;
  cfg.master.acg_policy.split_threshold = 1000;
  cfg.master.acg_policy.merge_limit = 1000;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  auto batch = [](int64_t version) {
    std::vector<FileUpdate> updates;
    for (uint64_t f = 1; f <= 64; ++f) {
      FileUpdate u;
      u.file = f;
      u.attrs.Set("size", AttrValue(static_cast<int64_t>(f * 1000) + version));
      updates.push_back(std::move(u));
    }
    return updates;
  };
  ASSERT_TRUE(cluster.client().BatchUpdate(batch(1), cluster.now()).ok());
  cluster.tracer().Clear();
  auto cost = cluster.client().BatchUpdate(batch(2), cluster.now());
  ASSERT_TRUE(cost.ok());
  const std::vector<obs::Span> spans = cluster.tracer().Spans();

  const obs::Span* root = nullptr;
  for (const obs::Span& s : spans) {
    if (s.parent_id == 0) {
      ASSERT_EQ(root, nullptr) << "one trace root";
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "client.batch_update");
  const double eps = 1e-12;
  EXPECT_NEAR(root->end_s - root->start_s, cost->seconds(), eps);

  // Walk the root's critical path back from its end: the child ending
  // last is on it, then the one ending last before that child starts...
  std::vector<const obs::Span*> kids;
  for (const obs::Span& s : spans) {
    if (s.parent_id == root->span_id) kids.push_back(&s);
  }
  std::sort(kids.begin(), kids.end(), [](const obs::Span* a, const obs::Span* b) {
    return a->end_s > b->end_s;
  });
  double cursor = root->end_s;
  double own = 0;
  for (const obs::Span* k : kids) {
    if (k->end_s > cursor + eps) continue;
    own += cursor - k->end_s;
    cursor = k->start_s;
  }
  own += cursor - root->start_s;
  EXPECT_NEAR(own, 0.0, eps) << "client time outside every child span";

  size_t stage_spans = 0, max_groups = 0;
  for (const obs::Span& s : spans) {
    if (s.name != "in.stage_updates") continue;
    ++stage_spans;
    std::vector<const obs::Span*> wal;
    std::set<std::string> groups;
    for (const obs::Span& c : spans) {
      if (c.parent_id != s.span_id) continue;
      ASSERT_EQ(c.name, "wal.append");
      wal.push_back(&c);
      for (const auto& [k, v] : c.tags) {
        if (k == "group") groups.insert(v);
      }
    }
    EXPECT_EQ(wal.size(), groups.size()) << "one wal.append per group";
    max_groups = std::max(max_groups, groups.size());
    std::sort(wal.begin(), wal.end(), [](const obs::Span* a, const obs::Span* b) {
      return a->start_s < b->start_s;
    });
    for (size_t i = 0; i < wal.size(); ++i) {
      EXPECT_GT(wal[i]->end_s, wal[i]->start_s);
      EXPECT_GE(wal[i]->start_s, s.start_s);
      EXPECT_LE(wal[i]->end_s, s.end_s);
      if (i > 0) {
        EXPECT_EQ(wal[i]->start_s, wal[i - 1]->end_s) << "end to end";
      }
    }
  }
  EXPECT_EQ(stage_spans, cluster.num_index_nodes()) << "one message per node";
  EXPECT_GE(max_groups, 3u);
}

}  // namespace
}  // namespace propeller::core
