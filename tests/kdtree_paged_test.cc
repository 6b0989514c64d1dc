// Paged on-disk K-D tree layout (the paper's future-work design) vs the
// prototype's serialized layout: identical results, radically different
// cold I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "common/rng.h"
#include "index/index_group.h"
#include "index/kdtree.h"
#include "sim/io_context.h"

namespace propeller::index {
namespace {

std::vector<std::vector<double>> RandomPoints(size_t n, size_t dims,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> pts(n);
  for (auto& p : pts) {
    p.resize(dims);
    for (auto& x : p) x = rng.UniformDouble() * 100.0;
  }
  return pts;
}

// gtest prints a parameter it has no printer for as its raw bytes, and
// that print becomes the CTest name.  So the struct has no padding (the
// layout is widened to a full word): padding bytes would carry whatever
// the stack held and change the names from one build to the next.
struct LayoutParam {
  LayoutParam(KdLayout l, size_t d, uint64_t s)
      : layout(static_cast<uint64_t>(l)), dims(d), seed(s) {}
  KdLayout kd_layout() const { return static_cast<KdLayout>(layout); }

  uint64_t layout;
  size_t dims;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<LayoutParam>);

class KdLayoutTest : public ::testing::TestWithParam<LayoutParam> {};

// Property: both layouts answer every query identically (only costs may
// differ), through inserts, removals, and rebuilds.
TEST_P(KdLayoutTest, ResultsMatchBruteForce) {
  const auto p = GetParam();
  sim::IoContext io;
  KdTree tree(io.CreateStore(), p.dims, p.kd_layout());
  auto points = RandomPoints(600, p.dims, p.seed);
  for (FileId f = 0; f < points.size(); ++f) tree.Insert(points[f], f);

  // Tombstone some, rebuild halfway through the queries.
  Rng rng(p.seed ^ 1);
  std::vector<bool> deleted(points.size(), false);
  for (int i = 0; i < 100; ++i) {
    auto f = static_cast<FileId>(rng.Uniform(points.size()));
    if (!deleted[f]) {
      tree.Remove(points[f], f);
      deleted[f] = true;
    }
  }

  for (int q = 0; q < 30; ++q) {
    if (q == 15) tree.Rebuild();
    KdBox box = KdBox::Unbounded(p.dims);
    for (size_t d = 0; d < p.dims; ++d) {
      double a = rng.UniformDouble() * 100, b = rng.UniformDouble() * 100;
      box.lo[d] = std::min(a, b);
      box.hi[d] = std::max(a, b);
    }
    auto got = tree.RangeQuery(box);
    std::vector<FileId> expect;
    for (FileId f = 0; f < points.size(); ++f) {
      if (!deleted[f] && box.Contains(points[f])) expect.push_back(f);
    }
    std::sort(got.files.begin(), got.files.end());
    ASSERT_EQ(got.files, expect) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, KdLayoutTest,
    ::testing::Values(LayoutParam{KdLayout::kSerialized, 2, 1},
                      LayoutParam{KdLayout::kPaged, 2, 1},
                      LayoutParam{KdLayout::kSerialized, 3, 2},
                      LayoutParam{KdLayout::kPaged, 3, 2},
                      LayoutParam{KdLayout::kPaged, 1, 3},
                      LayoutParam{KdLayout::kPaged, 4, 4}));

// The paged layout's payoff is FOOTPRINT: a selective query touches a
// handful of pages instead of admitting the whole image into the cache —
// which is what keeps many groups' hot sets resident on a busy Index
// Node (see bench_ablation_kdtree for the latency consequence).
TEST(KdPagedTest, ColdSelectiveQueryTouchesFarFewerPages) {
  KdBox box;
  box.lo = {50.0, 50.0};
  box.hi = {51.0, 51.0};
  auto points = RandomPoints(20'000, 2, 9);

  auto pages_touched = [&](KdLayout layout) {
    sim::IoContext io;
    KdTree tree(io.CreateStore(), 2, layout);
    for (FileId f = 0; f < points.size(); ++f) tree.Insert(points[f], f);
    tree.Rebuild();
    io.DropCaches();
    auto r = tree.RangeQuery(box);
    EXPECT_FALSE(r.files.empty());
    return io.CachedPages();  // pages admitted by the cold query
  };

  uint64_t serialized_pages = pages_touched(KdLayout::kSerialized);
  uint64_t paged_pages = pages_touched(KdLayout::kPaged);
  EXPECT_GT(serialized_pages, paged_pages * 5)
      << "serialized=" << serialized_pages << " paged=" << paged_pages;
}

TEST(KdPagedTest, PagedInsertTouchesOnlyThePath) {
  auto points = RandomPoints(20'000, 2, 10);
  auto pages_touched = [&](KdLayout layout) {
    sim::IoContext io;
    KdTree tree(io.CreateStore(), 2, layout);
    for (FileId f = 0; f < points.size(); ++f) tree.Insert(points[f], f);
    tree.Rebuild();
    io.DropCaches();
    tree.Insert({1.0, 2.0}, 999'999);
    return io.CachedPages();
  };
  uint64_t serialized_pages = pages_touched(KdLayout::kSerialized);
  uint64_t paged_pages = pages_touched(KdLayout::kPaged);
  EXPECT_GT(serialized_pages, paged_pages * 5)
      << "serialized insert must fault in the full image";
}

TEST(KdPagedTest, IndexGroupUsesPagedLayout) {
  sim::IoContext io;
  IndexGroup group(1, &io);
  ASSERT_TRUE(group
                  .CreateIndex({"kd_paged",
                                IndexType::kKdTreePaged,
                                {"size", "mtime"}})
                  .ok());
  FileUpdate u;
  u.file = 1;
  u.attrs.Set("size", AttrValue(int64_t{100}));
  u.attrs.Set("mtime", AttrValue(int64_t{5}));
  group.StageUpdate(std::move(u));

  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{50}))
      .And("mtime", CmpOp::kGe, AttrValue(int64_t{0}));
  auto r = group.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(r.access_path, "kdtree-paged:kd_paged");
}

TEST(KdPagedTest, PagedPreferredOverSerializedWhenBothExist) {
  sim::IoContext io;
  IndexGroup group(1, &io);
  ASSERT_TRUE(group
                  .CreateIndex({"kd_old", IndexType::kKdTree, {"size"}})
                  .ok());
  ASSERT_TRUE(group
                  .CreateIndex({"kd_new", IndexType::kKdTreePaged, {"size"}})
                  .ok());
  FileUpdate u;
  u.file = 1;
  u.attrs.Set("size", AttrValue(int64_t{100}));
  group.StageUpdate(std::move(u));
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{50}));
  auto r = group.Search(p);
  EXPECT_EQ(r.access_path, "kdtree-paged:kd_new");
}

TEST(KdPagedTest, SpecSerializationRoundTripsNewType) {
  IndexSpec s{"kd", IndexType::kKdTreePaged, {"a", "b"}};
  BinaryWriter w;
  s.Serialize(w);
  BinaryReader r(w.data());
  IndexSpec back;
  ASSERT_TRUE(IndexSpec::Deserialize(r, back).ok());
  EXPECT_EQ(back.type, IndexType::kKdTreePaged);
}

}  // namespace
}  // namespace propeller::index
