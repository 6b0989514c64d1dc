#include "index/index_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "kd_differential.h"
#include "sim/io_context.h"

namespace propeller::index {
namespace {

AttrSet FileAttrs(int64_t size, int64_t mtime, std::string path) {
  AttrSet a;
  a.Set("size", AttrValue(size));
  a.Set("mtime", AttrValue(mtime));
  a.Set("path", AttrValue(std::move(path)));
  return a;
}

FileUpdate Upsert(FileId f, int64_t size, int64_t mtime, std::string path) {
  FileUpdate u;
  u.file = f;
  u.attrs = FileAttrs(size, mtime, std::move(path));
  return u;
}

class IndexGroupTest : public ::testing::Test {
 protected:
  IndexGroupTest() : group_(1, &io_) {
    EXPECT_TRUE(group_.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
    EXPECT_TRUE(group_.CreateIndex({"by_kw", IndexType::kKeyword, {"path"}}).ok());
    EXPECT_TRUE(group_
                    .CreateIndex({"by_attrs",
                                  IndexType::kKdTree,
                                  {"size", "mtime"}})
                    .ok());
  }

  sim::IoContext io_;
  IndexGroup group_;
};

TEST_F(IndexGroupTest, CreateIndexValidation) {
  EXPECT_EQ(group_.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(group_.CreateIndex({"", IndexType::kBTree, {"size"}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(group_.CreateIndex({"bad", IndexType::kBTree, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      group_.CreateIndex({"bad2", IndexType::kHash, {"a", "b"}}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(group_.HasIndex("by_size"));
  EXPECT_FALSE(group_.HasIndex("nope"));
}

TEST_F(IndexGroupTest, StagedUpdatesInvisibleUntilCommitButSearchCommits) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  EXPECT_EQ(group_.PendingUpdates(), 1u);
  EXPECT_EQ(group_.NumFiles(), 0u);  // not yet applied

  // Search triggers the commit (strong consistency).
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  auto r = group_.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(group_.PendingUpdates(), 0u);
  EXPECT_EQ(group_.NumFiles(), 1u);
}

TEST_F(IndexGroupTest, UpdateReplacesOldPostings) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  group_.Commit();
  group_.StageUpdate(Upsert(1, 5, 10, "/a/b.txt"));  // shrink the file
  group_.Commit();

  Predicate big;
  big.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  EXPECT_TRUE(group_.Search(big).files.empty()) << "stale posting survived";
  Predicate small;
  small.And("size", CmpOp::kLe, AttrValue(int64_t{5}));
  EXPECT_EQ(group_.Search(small).files, (std::vector<FileId>{1}));
}

TEST_F(IndexGroupTest, DeleteRemovesEverywhere) {
  group_.StageUpdate(Upsert(1, 100, 10, "/x/firefox/a"));
  group_.StageUpdate(Upsert(2, 200, 20, "/x/firefox/b"));
  group_.Commit();

  FileUpdate del;
  del.file = 1;
  del.is_delete = true;
  group_.StageUpdate(std::move(del));

  Predicate kw;
  kw.And("path", CmpOp::kContainsWord, AttrValue("firefox"));
  EXPECT_EQ(group_.Search(kw).files, (std::vector<FileId>{2}));
  EXPECT_EQ(group_.NumFiles(), 1u);
}

TEST_F(IndexGroupTest, ConjunctionVerifiesResidualTerms) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/firefox/x"));
  group_.StageUpdate(Upsert(2, 100, 99, "/a/firefox/y"));
  group_.StageUpdate(Upsert(3, 100, 10, "/a/chrome/z"));
  group_.Commit();

  Predicate p;
  p.And("path", CmpOp::kContainsWord, AttrValue("firefox"))
      .And("mtime", CmpOp::kLt, AttrValue(int64_t{50}));
  auto r = group_.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(r.access_path, "keyword:by_kw");
}

TEST_F(IndexGroupTest, KdTreeServesTwoDimensionalRange) {
  IndexGroup g(2, &io_);
  ASSERT_TRUE(
      g.CreateIndex({"kd", IndexType::kKdTree, {"size", "mtime"}}).ok());
  for (FileId f = 1; f <= 50; ++f) {
    g.StageUpdate(Upsert(f, static_cast<int64_t>(f), static_cast<int64_t>(100 - f),
                         "/d/f"));
  }
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{10}))
      .And("size", CmpOp::kLe, AttrValue(int64_t{20}))
      .And("mtime", CmpOp::kGe, AttrValue(int64_t{85}));
  auto r = g.Search(p);
  // size in (10, 20], mtime = 100 - size >= 85  =>  size in (10, 15]
  std::sort(r.files.begin(), r.files.end());
  EXPECT_EQ(r.files, (std::vector<FileId>{11, 12, 13, 14, 15}));
  EXPECT_EQ(r.access_path, "kdtree:kd");
}

TEST_F(IndexGroupTest, FullScanFallbackWhenNoIndexApplies) {
  IndexGroup g(3, &io_);  // no indices at all
  g.StageUpdate(Upsert(1, 100, 10, "/a"));
  g.StageUpdate(Upsert(2, 10, 10, "/b"));
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  auto r = g.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(r.access_path, "scan");
}

TEST_F(IndexGroupTest, WalRecoveryRestoresPendingUpdates) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.StageUpdate(Upsert(2, 200, 20, "/b"));

  // Crash: memory state lost; WAL survives.
  group_.SimulateCrashLosingMemoryState();
  EXPECT_EQ(group_.PendingUpdates(), 0u);
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_EQ(group_.PendingUpdates(), 2u);

  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  auto r = group_.Search(p);
  std::sort(r.files.begin(), r.files.end());
  EXPECT_EQ(r.files, (std::vector<FileId>{1, 2}));
}

TEST_F(IndexGroupTest, CommittedUpdatesNotReplayedAfterRecovery) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.Commit();  // truncates WAL
  group_.StageUpdate(Upsert(2, 200, 20, "/b"));
  group_.SimulateCrashLosingMemoryState();
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_EQ(group_.PendingUpdates(), 1u);  // only the uncommitted one
  group_.Commit();
  EXPECT_EQ(group_.NumFiles(), 2u);
}

// The oldest-pending stamp drives the commit-timeout tick on IndexNode.
// It used to live outside the group as a bare atomic (racy blind stores);
// these tests pin down its semantics now that it is guarded by the group
// mutex and maintained by StageUpdate/Commit themselves.
TEST_F(IndexGroupTest, OldestPendingStampSetByFirstStagedUpdate) {
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0) << "no pending -> no stamp";
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 5.0);
  // Later updates do not advance the stamp: the timeout is measured from
  // the OLDEST uncommitted update.
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/9.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 5.0);
}

TEST_F(IndexGroupTest, OldestPendingStampClearedByCommitAndSearch) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  group_.Commit();
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
  // Search commits pending updates (search-sees-latest), so it clears the
  // stamp too.
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/7.0);
  Predicate pred;
  pred.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  group_.Search(pred);
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
  // And the next staged update re-stamps from scratch.
  group_.StageUpdate(Upsert(3, 300, 30, "/c"), /*staged_at_s=*/11.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 11.0);
}

TEST_F(IndexGroupTest, UnstampedStagingLeavesStampAlone) {
  // WAL replay and migration install stage without a timestamp; they must
  // not fabricate a commit-timeout epoch.
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/4.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 4.0);
}

TEST_F(IndexGroupTest, OldestPendingStampSurvivesCrashRecovery) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  group_.SimulateCrashLosingMemoryState();
  // The stamp survives the simulated crash: recovered pending updates are
  // at least as old as the pre-crash epoch, so keeping it makes the
  // commit timeout fire no later than it should.
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 5.0);
  group_.Commit();
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
}

TEST_F(IndexGroupTest, RecoveryWithEmptyWalClearsStaleStamp) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  group_.Commit();  // WAL now contains only committed (skippable) records
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/8.0);
  group_.Commit();
  group_.SimulateCrashLosingMemoryState();
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  // Nothing pending after replay -> no stamp, so the tick path never sees
  // a phantom timeout for an empty pending queue.
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
}

TEST_F(IndexGroupTest, StagingIsCheaperThanCommitting) {
  // The entire point of the index cache: the critical-path cost (WAL
  // append) is orders of magnitude below the structure-update cost.
  io_.DropCaches();
  sim::Cost stage = group_.StageUpdate(Upsert(1, 100, 10, "/a/b/c"));
  io_.DropCaches();
  sim::Cost commit = group_.Commit();
  EXPECT_GT(commit.seconds(), stage.seconds() * 10);
}

TEST_F(IndexGroupTest, FileUpdateSerializationRoundTrip) {
  FileUpdate u = Upsert(42, 1, 2, "/x/y");
  u.is_delete = true;
  BinaryWriter w;
  u.Serialize(w);
  BinaryReader r(w.data());
  FileUpdate back;
  ASSERT_TRUE(FileUpdate::Deserialize(r, back).ok());
  EXPECT_EQ(back.file, 42u);
  EXPECT_TRUE(back.is_delete);
  EXPECT_EQ(back.attrs.Find("path")->as_string(), "/x/y");
}

TEST_F(IndexGroupTest, IndexSpecSerializationRoundTrip) {
  IndexSpec s{"kd", IndexType::kKdTree, {"size", "mtime", "uid"}};
  BinaryWriter w;
  s.Serialize(w);
  BinaryReader r(w.data());
  IndexSpec back;
  ASSERT_TRUE(IndexSpec::Deserialize(r, back).ok());
  EXPECT_EQ(back.name, "kd");
  EXPECT_EQ(back.type, IndexType::kKdTree);
  EXPECT_EQ(back.attrs.size(), 3u);
}

TEST_F(IndexGroupTest, ExtractKeywordsTokenizes) {
  auto words = ExtractKeywords("/usr/lib/firefox-3.6/libxul.so");
  EXPECT_NE(std::find(words.begin(), words.end(), "firefox"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "libxul"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "so"), words.end());
  EXPECT_TRUE(ExtractKeywords("///...").empty());
}

// Randomized consistency: interleave stage/commit/search and compare with a
// brute-force model.
TEST(IndexGroupFuzzTest, SearchAlwaysMatchesModel) {
  sim::IoContext io;
  IndexGroup g(9, &io);
  ASSERT_TRUE(g.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  Rng rng(321);
  std::map<FileId, int64_t> model;  // file -> size

  for (int step = 0; step < 300; ++step) {
    auto f = static_cast<FileId>(rng.Uniform(40));
    if (rng.Bernoulli(0.2) && model.count(f) != 0u) {
      FileUpdate del;
      del.file = f;
      del.is_delete = true;
      g.StageUpdate(std::move(del));
      model.erase(f);
    } else {
      auto size = rng.UniformInt(0, 1000);
      g.StageUpdate(Upsert(f, size, 0, "/f"));
      model[f] = size;
    }

    if (step % 7 == 0) {
      int64_t threshold = rng.UniformInt(0, 1000);
      Predicate p;
      p.And("size", CmpOp::kGt, AttrValue(threshold));
      auto r = g.Search(p);
      std::vector<FileId> expect;
      for (auto [file, size] : model) {
        if (size > threshold) expect.push_back(file);
      }
      std::sort(r.files.begin(), r.files.end());
      ASSERT_EQ(r.files, expect) << "step " << step;
    }
  }
}

// --- K-D answers: exclusive bounds, index-only answers, precision ---

// A group with a K-D tree over (size, mtime) and a keyword index on path;
// Put() commits one file at a time.
class KdGroupTest : public ::testing::Test {
 protected:
  KdGroupTest() : group_(2, &io_) {
    EXPECT_TRUE(
        group_.CreateIndex({"kd", IndexType::kKdTree, {"size", "mtime"}}).ok());
    EXPECT_TRUE(group_.CreateIndex({"kw", IndexType::kKeyword, {"path"}}).ok());
  }
  void Put(FileId f, AttrValue size, int64_t mtime = 0) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("size", std::move(size));
    u.attrs.Set("mtime", AttrValue(mtime));
    u.attrs.Set("path", AttrValue("/d/f" + std::to_string(f)));
    group_.StageUpdate(std::move(u));
    group_.Commit();
  }
  IndexGroup::SearchResult Search(const std::string& attr, CmpOp op,
                                  AttrValue v) {
    Predicate p;
    p.And(attr, op, std::move(v));
    return group_.Search(p);
  }

  sim::IoContext io_;
  IndexGroup group_;
};

// `>` and `<` keep every row strictly beyond the bound, also when the
// bound or the stored value is not an integer.
TEST_F(KdGroupTest, ExclusiveBoundsKeepNonIntegerNeighbours) {
  Put(1, AttrValue(int64_t{2}));
  Put(2, AttrValue(2.5));
  Put(3, AttrValue(int64_t{3}));
  EXPECT_EQ(Search("size", CmpOp::kGt, AttrValue(1.5)).files,
            (std::vector<FileId>{1, 2, 3}));
  EXPECT_EQ(Search("size", CmpOp::kLt, AttrValue(2.5)).files,
            (std::vector<FileId>{1}));
  EXPECT_EQ(Search("size", CmpOp::kGt, AttrValue(int64_t{2})).files,
            (std::vector<FileId>{2, 3}));
  EXPECT_EQ(Search("size", CmpOp::kLt, AttrValue(int64_t{3})).files,
            (std::vector<FileId>{1, 2}));
}

TEST_F(KdGroupTest, CoveredPredicateIsAnsweredFromTheIndexAlone) {
  for (FileId f = 1; f <= 20; ++f) {
    Put(f, AttrValue(static_cast<int64_t>(f)), static_cast<int64_t>(f % 4));
  }
  Predicate covered;
  covered.And("size", CmpOp::kGt, AttrValue(int64_t{10}))
      .And("mtime", CmpOp::kLe, AttrValue(int64_t{1}));
  auto r = group_.Search(covered);
  EXPECT_EQ(r.files, (std::vector<FileId>{12, 13, 16, 17, 20}));
  EXPECT_TRUE(r.index_only);
  EXPECT_EQ(r.record_pages, 0u);

  // A keyword term is outside the tree: the answer needs verification,
  // fetched in one batch.
  Predicate keyword;
  keyword.And("path", CmpOp::kContainsWord, AttrValue("d"))
      .And("size", CmpOp::kGt, AttrValue(int64_t{18}));
  io_.DropCaches();
  auto v = group_.Search(keyword);
  EXPECT_EQ(v.files, (std::vector<FileId>{19, 20}));
  EXPECT_FALSE(v.index_only);
  EXPECT_EQ(v.record_pages, 1u);
}

// Precision guard: 2^53 + 1 rounds to 2^53 as a double, so the box alone
// would wrongly report it as <= 2^53.
TEST_F(KdGroupTest, InexactCoordinatesForceVerification) {
  constexpr int64_t k2p53 = int64_t{1} << 53;
  Put(1, AttrValue(k2p53 + 1));
  auto r = Search("size", CmpOp::kLe, AttrValue(k2p53));
  EXPECT_TRUE(r.files.empty());
  EXPECT_FALSE(r.index_only);
  EXPECT_GT(r.record_pages, 0u);
  EXPECT_EQ(Search("size", CmpOp::kGt, AttrValue(k2p53)).files,
            (std::vector<FileId>{1}));
}

TEST_F(KdGroupTest, InexactTermValueForcesVerification) {
  constexpr int64_t k2p53 = int64_t{1} << 53;
  Put(1, AttrValue(int64_t{5}));
  auto r = Search("size", CmpOp::kLt, AttrValue(k2p53 + 1));
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_FALSE(r.index_only);
  EXPECT_TRUE(Search("size", CmpOp::kLt, AttrValue(int64_t{5})).index_only);
}

TEST(IndexGroupDifferentialTest, KdAndKeywordSearchesMatchBruteForce) {
  for (IndexType type : {IndexType::kKdTree, IndexType::kKdTreePaged}) {
    SCOPED_TRACE(IndexTypeName(type));
    KdDifferentialStats stats =
        RunKdDifferential(IndexGroupOptions{}, type, /*seed=*/2024);
    EXPECT_EQ(stats.searches, 200);
    EXPECT_GT(stats.index_only, 20);
    EXPECT_GT(stats.verified, 20);
  }
}

// --- One-pass commit: each page once per commit, the K-D image once ---

class CommitTest : public ::testing::Test {
 protected:
  sim::IoContext io_;
};

TEST_F(CommitTest, ModifiesLoadTheKdImageOnce) {
  IndexGroup group(1, &io_);
  ASSERT_TRUE(
      group.CreateIndex({"kd", IndexType::kKdTree, {"size", "mtime"}}).ok());
  for (FileId f = 0; f < 2000; ++f) {
    group.StageUpdate(Upsert(f, static_cast<int64_t>(f), 1, "/d/f"));
  }
  group.Commit();
  // Image hits of a commit of `n` modifies of one file (whose record
  // page is one more hit).  Every page is warm; pages the tree grows
  // into are allocations, not hits.
  auto commit_hits = [&](int n) {
    for (int i = 0; i < n; ++i) {
      group.StageUpdate(Upsert(7, 5000 + i, i, "/d/f"));
    }
    const sim::PageCacheStats before = io_.CacheStats();
    group.Commit();
    EXPECT_EQ(io_.CacheStats().misses, before.misses);
    return io_.CacheStats().hits - before.hits;
  };
  const uint64_t one = commit_hits(1);
  EXPECT_GT(one, 20u);  // the ~22-page image, loaded once
  EXPECT_EQ(commit_hits(32), one);
}

TEST_F(CommitTest, GrowingTheRecordHeapByAPageCostsNoDiskAccess) {
  IndexGroup group(1, &io_);
  group.StageUpdate(Upsert(0, 1, 1, "/d/f0"));
  group.Commit();
  // Stage rows until the heap crosses into its second page.
  uint64_t bytes = FileAttrs(1, 1, "/d/f0").ByteSize();
  FileId f = 1;
  while (bytes <= 4096 + 512) {
    FileUpdate u = Upsert(f, 1, 1, "/d/f" + std::to_string(f));
    bytes += u.attrs.ByteSize();
    group.StageUpdate(std::move(u));
    ++f;
  }
  ASSERT_LT(bytes, 2 * 4096u);
  const sim::PageCacheStats before = io_.CacheStats();
  const sim::Cost cost = group.Commit();
  EXPECT_LT(cost.seconds(), io_.disk().RandomPageAccess().seconds());
  EXPECT_EQ(io_.CacheStats().allocations, before.allocations + 1);
  EXPECT_EQ(io_.CacheStats().misses, before.misses);
}

// The pin scope changes what a commit costs, never what it does: one
// batched commit leaves the same records and answers every query as the
// same updates committed one at a time.
TEST(IndexGroupDifferentialTest, BatchedCommitEqualsOneAtATime) {
  for (IndexType type : {IndexType::kKdTree, IndexType::kKdTreePaged}) {
    SCOPED_TRACE(IndexTypeName(type));
    auto io = std::make_unique<sim::IoContext>();
    auto batched = std::make_unique<IndexGroup>(1, io.get());
    auto single = std::make_unique<IndexGroup>(2, io.get());
    for (IndexGroup* g : {batched.get(), single.get()}) {
      ASSERT_TRUE(g->CreateIndex({"kd", type, {"size", "mtime"}}).ok());
      ASSERT_TRUE(g->CreateIndex({"kw", IndexType::kKeyword, {"path"}}).ok());
      ASSERT_TRUE(g->CreateIndex({"uid", IndexType::kBTree, {"uid"}}).ok());
    }
    KdDifferentialDraws draws(/*seed=*/77);
    Rng& rng = draws.rng();
    std::map<FileId, AttrSet> live;
    for (int step = 0; step < 400; ++step) {
      FileUpdate u;
      u.file = static_cast<FileId>(rng.Uniform(48));
      u.is_delete = rng.Uniform(10) < 2;
      if (u.is_delete) {
        live.erase(u.file);
      } else {
        u.attrs = draws.Row(u.file);
        live[u.file] = u.attrs;
      }
      batched->StageUpdate(u);
      single->StageUpdate(std::move(u));
      single->Commit();
    }
    batched->Commit();

    auto bytes = [](const AttrSet& attrs) {
      BinaryWriter w;
      attrs.Serialize(w);
      return std::move(w).Take();
    };
    auto records = [&](const IndexGroup& g) {
      std::map<FileId, std::string> out;
      g.ForEachRecord(
          [&](FileId f, const AttrSet& attrs) { out.emplace(f, bytes(attrs)); });
      return out;
    };
    std::map<FileId, std::string> want_records;
    for (const auto& [file, attrs] : live) want_records[file] = bytes(attrs);
    EXPECT_EQ(records(*batched), want_records);
    EXPECT_EQ(records(*single), want_records);
    EXPECT_EQ(batched->NumFiles(), single->NumFiles());
    for (int q = 0; q < 200; ++q) {
      const Predicate p = draws.Query();
      auto a = batched->Search(p).files;
      auto b = single->Search(p).files;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<FileId> want;
      for (const auto& [file, attrs] : live) {
        if (p.Matches(attrs)) want.push_back(file);
      }
      ASSERT_EQ(a, want) << p.ToString();
      ASSERT_EQ(b, want) << p.ToString();
    }
  }
}

}  // namespace
}  // namespace propeller::index
