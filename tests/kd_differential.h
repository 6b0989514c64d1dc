// Differential check shared by the commit-barrier (index_group_test) and
// segmented (segment_test) suites: a seeded stream of upserts, modifies
// and deletes against one fresh IndexGroup, where every search must equal
// a brute-force evaluation of the predicate over the live rows.
//
// The stream is built to stress the K-D paths that index-only answers
// depend on: tiny value domains (so many points tie on the split axis),
// half-integer doubles next to integers, deletes of absent files, and
// re-inserts of a point whose earlier copy is already tombstoned.  Queries
// mix K-D-covered predicates (answered from the index alone), K-D plus a
// term on the unindexed `uid`, keyword + mtime (both verified against the
// record store) and double exclusive bounds.  The draws (rows and queries)
// live in KdDifferentialDraws so other differential checks can reuse them.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/index_group.h"
#include "sim/io_context.h"

namespace propeller::index {

// The seeded draws the differential checks share: attribute values, rows
// and queries.
class KdDifferentialDraws {
 public:
  explicit KdDifferentialDraws(uint64_t seed) : rng_(seed) {}

  Rng& rng() { return rng_; }

  // Values 0..6, a quarter of them nudged to x.5.
  AttrValue Value() {
    const int64_t base = rng_.UniformInt(0, 6);
    if (rng_.Bernoulli(0.25)) return AttrValue(static_cast<double>(base) + 0.5);
    return AttrValue(base);
  }

  // A fresh row for file `f`, in one of three directories.
  AttrSet Row(FileId f) {
    AttrSet a;
    a.Set("size", Value());
    a.Set("mtime", Value());
    a.Set("uid", AttrValue(rng_.UniformInt(0, 2)));
    const std::string dir = "/d" + std::to_string(rng_.Uniform(3));
    a.Set("path", AttrValue(dir + "/f" + std::to_string(f)));
    return a;
  }

  Predicate Query() {
    const CmpOp kRangeOps[] = {CmpOp::kEq, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                               CmpOp::kGe};
    Predicate p;
    switch (rng_.Uniform(4)) {
      case 0:  // K-D covered: 1-3 comparisons on the tree's dimensions
        for (uint64_t n = 1 + rng_.Uniform(3); n > 0; --n) {
          const char* attr = rng_.Bernoulli(0.5) ? "size" : "mtime";
          const CmpOp op = kRangeOps[rng_.Uniform(5)];
          p.And(attr, op, Value());
        }
        break;
      case 1: {  // keyword + mtime (the paper's Query #2 shape)
        const std::string word = "d" + std::to_string(rng_.Uniform(3));
        const CmpOp op = rng_.Bernoulli(0.5) ? CmpOp::kLt : CmpOp::kGe;
        p.And("path", CmpOp::kContainsWord, AttrValue(word))
            .And("mtime", op, Value());
        break;
      }
      case 2: {  // K-D plus a residual term the tree does not hold
        const CmpOp op = kRangeOps[rng_.Uniform(5)];
        p.And("size", op, Value())
            .And("uid", CmpOp::kEq, AttrValue(rng_.UniformInt(0, 2)));
        break;
      }
      default: {  // double exclusive bounds
        const double lo = static_cast<double>(rng_.UniformInt(-1, 6)) + 0.5;
        const double mtime = rng_.UniformDouble() * 6.0;
        p.And("size", CmpOp::kGt, AttrValue(lo))
            .And("size", CmpOp::kLt, AttrValue(lo + 2.0))
            .And("mtime", CmpOp::kGt, AttrValue(mtime));
        break;
      }
    }
    return p;
  }

 private:
  Rng rng_;
};

struct KdDifferentialStats {
  int searches = 0;
  int index_only = 0;  // answered without a record fetch
  int verified = 0;    // read record pages to verify
};

inline KdDifferentialStats RunKdDifferential(const IndexGroupOptions& options,
                                             IndexType kd_type, uint64_t seed) {
  KdDifferentialStats stats;
  // On the heap: ThreadSanitizer cannot see a std::mutex on the stack die,
  // so stack groups of successive tests would share lock-order history.
  auto io = std::make_unique<sim::IoContext>();
  auto group = std::make_unique<IndexGroup>(1, io.get(), options);
  IndexGroup& g = *group;
  EXPECT_TRUE(g.CreateIndex({"kd", kd_type, {"size", "mtime"}}).ok());
  EXPECT_TRUE(g.CreateIndex({"kw", IndexType::kKeyword, {"path"}}).ok());
  KdDifferentialDraws draws(seed);
  Rng& rng = draws.rng();
  std::map<FileId, AttrSet> live;

  auto upsert = [&](FileId f, AttrSet attrs) {
    FileUpdate u;
    u.file = f;
    u.attrs = attrs;
    g.StageUpdate(std::move(u));
    live[f] = std::move(attrs);
  };
  auto erase = [&](FileId f) {
    FileUpdate u;
    u.file = f;
    u.is_delete = true;
    g.StageUpdate(std::move(u));
    live.erase(f);
  };

  for (int step = 0; step < 600; ++step) {
    const auto f = static_cast<FileId>(rng.Uniform(48));
    const uint64_t roll = rng.Uniform(10);
    if (roll < 2) {
      erase(f);  // may delete an absent (or already deleted) file
    } else if (roll < 3 && live.count(f) != 0u) {
      // Delete, then re-insert the very same point: the tree now holds a
      // tombstoned copy next to the live one.
      AttrSet same = live[f];
      erase(f);
      if (rng.Bernoulli(0.5)) g.Commit();
      upsert(f, std::move(same));
    } else {
      upsert(f, draws.Row(f));
    }
    if (step % 13 == 0) g.Commit();
    if (step % 97 == 0) g.MaintainIndexes();
    if (step % 3 != 0) continue;

    const Predicate p = draws.Query();
    auto r = g.Search(p);
    std::vector<FileId> got = r.files;
    std::sort(got.begin(), got.end());
    std::vector<FileId> want;
    for (const auto& [file, attrs] : live) {
      if (p.Matches(attrs)) want.push_back(file);
    }
    EXPECT_EQ(got, want) << "step " << step << ": " << p.ToString() << " via "
                         << r.access_path;
    if (got != want) return stats;
    ++stats.searches;
    if (r.index_only) {
      ++stats.index_only;
      EXPECT_EQ(r.record_pages, 0u) << p.ToString();
    }
    if (r.record_pages > 0) ++stats.verified;
  }
  return stats;
}

}  // namespace propeller::index
