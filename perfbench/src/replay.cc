#include "replay.h"

#include <algorithm>
#include <limits>

#include "core/query_parser.h"
#include "index/index_group.h"
#include "index/kdtree.h"
#include "index/record_store.h"
#include "sim/io_context.h"
#include "sim/page_cache.h"

namespace perfbench {
namespace {

using propeller::sim::IoContext;
using propeller::sim::IoParams;
using propeller::sim::PageCache;
using propeller::sim::PageId;

// The evicting page stream has search_spill's per-node shape: about 100
// groups' pages cycled through a 512-page cache.
constexpr uint64_t kEvictGroups = 100;
constexpr uint64_t kEvictCapacity = 512;

// Keeps a computed value alive so the timed loop cannot be folded away.
volatile uint64_t g_sink = 0;

IoParams BigCache() {
  IoParams p;
  p.cache_pages = 1u << 22;
  return p;
}

std::vector<double> PointOf(const FileUpdate& u) {
  return {static_cast<double>(u.attrs.FindInt("size").value_or(0)),
          static_cast<double>(u.attrs.FindInt("mtime").value_or(0)),
          static_cast<double>(u.attrs.FindInt("uid").value_or(0))};
}

index::KdBox BoxFor(const Query& q) {
  index::KdBox box = index::KdBox::Unbounded(3);
  box.lo[0] = static_cast<double>(q.size_gt + 1);
  box.lo[1] = static_cast<double>(q.mtime_gt + 1);
  return box;
}

void AddSpecs(index::IndexGroup& g) {
  (void)g.CreateIndex({"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}});
  (void)g.CreateIndex({"by_path", index::IndexType::kKeyword, {"path"}});
}

// Runs `body` over `items` in rounds until `min_ops` calls were made;
// returns seconds per call.
template <typename T, typename Fn>
double TimePerCall(const std::vector<T>& items, size_t min_ops, Fn&& body) {
  if (items.empty()) return 0.0;
  size_t ops = 0;
  const WallClock::time_point t0 = WallClock::now();
  while (ops < min_ops) {
    for (const T& item : items) body(item);
    ops += items.size();
  }
  return SecondsSince(t0) / static_cast<double>(ops);
}

}  // namespace

ReplayResult RunReplay(const ReplayInput& in) {
  ReplayResult out;
  std::vector<Query> kd_queries;
  for (const Query& q : in.queries) {
    if (!q.keyword) kd_queries.push_back(q);
  }

  // --- K-D range query and record fetch (warm) ---
  IoContext io(BigCache());
  index::KdTree kd(io.CreateStore(), 3);
  std::vector<std::pair<std::vector<double>, FileId>> points;
  std::vector<std::pair<FileId, index::AttrSet>> records;
  for (const FileUpdate& u : in.rows) {
    points.emplace_back(PointOf(u), u.file);
    records.emplace_back(u.file, u.attrs);
  }
  (void)kd.BulkLoad(points);
  index::RecordStore store(io.CreateStore());
  (void)store.BulkLoad(records);
  std::vector<index::KdBox> boxes;
  for (const Query& q : kd_queries) boxes.push_back(BoxFor(q));
  (void)kd.RangeQuery(index::KdBox::Unbounded(3));  // warm the cache
  out.kd_range_query_ns =
      1e9 * TimePerCall(boxes, 20'000, [&](const index::KdBox& b) {
        g_sink = g_sink + kd.RangeQuery(b).files.size();
      });

  std::vector<FileId> ids;
  for (const FileUpdate& u : in.rows) ids.push_back(u.file);
  Gen shuffle(SubSeed(in.seed, 71));
  for (size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[shuffle.Next() % i]);
  out.record_get_ns = 1e9 * TimePerCall(ids, 200'000, [&](FileId id) {
    g_sink = g_sink + (store.Get(id).attrs ? 1 : 0);
  });

  // --- Page-cache touches: the warm search's stream and an evicting one ---
  // A warm search loads the serialized K-D image page by page, then
  // fetches one record page per hit.
  const uint64_t kd_pages = kd.NumPages();
  const uint64_t rec_pages = store.NumPages();
  std::vector<PageId> hit_stream;
  for (const index::KdBox& b : boxes) {
    for (uint64_t p = 0; p < kd_pages; ++p) hit_stream.push_back(PageId{1, p});
    for (FileId f : kd.RangeQuery(b).files) {
      Gen h(f);
      hit_stream.push_back(PageId{2, h.Next() % rec_pages});
    }
  }
  PageCache warm(1u << 22);
  for (const PageId& p : hit_stream) warm.Touch(p);
  out.touch_hit_ns = 1e9 * TimePerCall(hit_stream, 1'000'000, [&](const PageId& p) {
    g_sink = g_sink + (warm.Touch(p) ? 1 : 0);
  });

  std::vector<PageId> evict_stream;
  for (uint64_t g = 0; g < kEvictGroups; ++g) {
    for (uint64_t p = 0; p < kd_pages + rec_pages; ++p) {
      evict_stream.push_back(PageId{g + 1, p});
    }
  }
  PageCache small(kEvictCapacity);
  for (const PageId& p : evict_stream) small.Touch(p);
  out.touch_evict_ns = 1e9 * TimePerCall(evict_stream, 1'000'000, [&](const PageId& p) {
    g_sink = g_sink + (small.Touch(p) ? 1 : 0);
  });

  // --- IndexGroup search, checked against brute force ---
  IoContext gio(BigCache());
  index::IndexGroup group(1, &gio);
  AddSpecs(group);
  Model model;
  for (const FileUpdate& u : in.rows) {
    (void)group.StageUpdate(u);
    model.Apply(u);
  }
  (void)group.Commit();
  struct Parsed {
    index::Predicate pred;
    std::vector<FileId> expected;
  };
  std::vector<Parsed> parsed;
  for (const Query& q : in.queries) {
    // Parsed at the time the query was sent, as the cluster parsed it.
    auto p = propeller::core::ParseQuery(q.text, q.now_q);
    if (!p.ok()) {
      ++out.mismatches;
      continue;
    }
    parsed.push_back({p->predicate, model.Expected(q)});
  }
  for (const Parsed& p : parsed) {
    std::vector<FileId> got = group.Search(p.pred).files;
    std::sort(got.begin(), got.end());
    if (got != p.expected) ++out.mismatches;
  }
  out.group_search_us = 1e6 * TimePerCall(parsed, 4'000, [&](const Parsed& p) {
    g_sink = g_sink + group.Search(p.pred).files.size();
  });

  // --- Staging and commit of modifications to the group's own rows ---
  constexpr size_t kPerCommit = 32;
  constexpr size_t kCommits = 256;
  Gen gen(SubSeed(in.seed, 72));
  std::vector<FileUpdate> mods;
  for (size_t i = 0; i < kPerCommit * kCommits && !in.rows.empty(); ++i) {
    FileUpdate u = in.rows[gen.Next() % in.rows.size()];
    u.attrs.Set("size", index::AttrValue(static_cast<int64_t>(gen.Uniform(4096.0, 28672.0))));
    u.attrs.Set("mtime", index::AttrValue(in.now_q));
    mods.push_back(std::move(u));
  }
  double stage_s = 0, commit_s = 0;
  for (size_t c = 0; c * kPerCommit < mods.size(); ++c) {
    WallClock::time_point t0 = WallClock::now();
    for (size_t i = c * kPerCommit; i < std::min(mods.size(), (c + 1) * kPerCommit); ++i) {
      (void)group.StageUpdate(mods[i]);
    }
    stage_s += SecondsSince(t0);
    t0 = WallClock::now();
    (void)group.Commit();
    commit_s += SecondsSince(t0);
  }
  if (!mods.empty()) {
    out.group_stage_ns = 1e9 * stage_s / static_cast<double>(mods.size());
    out.group_commit_us = 1e6 * commit_s / static_cast<double>(kCommits);
  }
  return out;
}

}  // namespace perfbench
