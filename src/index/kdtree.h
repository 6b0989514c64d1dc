// K-D tree over numeric attribute vectors.  Two on-disk layouts:
//
//  * kSerialized — the paper's prototype: the tree is one serialized blob
//    that must be wholly loaded into RAM before any operation ("which
//    accounts for most of its latency", Section V-E).  A query charges a
//    sequential load of every page (cache-aware: warm queries are
//    RAM-speed), then walks the tree at CPU cost.
//
//  * kPaged — the paper's stated future work: a page-structured on-disk
//    layout.  Nodes are packed into pages (DFS order on rebuild, so
//    subtrees cluster); an operation charges only the distinct pages its
//    traversal actually touches, cutting cold-query I/O by orders of
//    magnitude on selective queries.
//
// Inserts append classically (no rebalance); `Rebuild()` re-bulk-loads by
// median splitting, which Propeller runs as background maintenance.
//
// Insert and Remove take an optional PinScope: a group commit passes one
// scope to every operation it applies, so the serialized image is loaded
// once per commit (the first operation pays, the rest find it pinned) and
// each page is charged once.  Like RangeQuery, both charge CPU per visited
// node for walking the resident tree.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "index/attr.h"
#include "sim/io_context.h"

namespace propeller::index {

// Axis-aligned box; one [lo, hi] (inclusive) interval per dimension.
struct KdBox {
  std::vector<double> lo;
  std::vector<double> hi;

  static KdBox Unbounded(size_t dims) {
    KdBox b;
    b.lo.assign(dims, -std::numeric_limits<double>::infinity());
    b.hi.assign(dims, std::numeric_limits<double>::infinity());
    return b;
  }
  bool Contains(const std::vector<double>& p) const {
    for (size_t d = 0; d < p.size(); ++d) {
      if (p[d] < lo[d] || p[d] > hi[d]) return false;
    }
    return true;
  }
};

enum class KdLayout : uint8_t { kSerialized = 0, kPaged = 1 };

// True when a double holds `v` exactly, so comparing coordinates in double
// space orders `v` as AttrValue::Compare does: ints with |v| <= 2^53 and
// finite doubles.
bool HeldExactlyAsDouble(const AttrValue& v);

class KdTree {
 public:
  KdTree(sim::PageStore store, size_t dims,
         KdLayout layout = KdLayout::kSerialized);

  KdLayout layout() const { return layout_; }

  size_t dims() const { return dims_; }
  uint64_t NumPoints() const { return num_points_; }
  // Pages of the on-disk image: every page HomePage can name, 0 when the
  // tree is empty.
  uint64_t NumPages() const;
  uint32_t Depth() const;

  // Appends a point (classic kd insertion).  point.size() must equal dims.
  // `exact` is false when some coordinate came from a value a double
  // cannot hold exactly (see exact()).
  sim::Cost Insert(const std::vector<double>& point, FileId file,
                   bool exact = true, sim::PinScope* scope = nullptr);

  // Builds a balanced tree from a batch in one sequential write.  Only
  // valid on an empty tree (segment builds).  `exact` as for Insert, for
  // the whole batch.
  sim::Cost BulkLoad(std::vector<std::pair<std::vector<double>, FileId>> points,
                     bool exact = true);

  // False once any point given to Insert or BulkLoad had an inexact
  // coordinate.  Sticky: removing that point does not clear it.  A box
  // query on an inexact tree may return files whose true values lie
  // outside the box, so its answers always need verification.
  bool exact() const { return exact_; }

  // Marks a point deleted (tombstone); compaction happens on Rebuild.
  sim::Cost Remove(const std::vector<double>& point, FileId file,
                   sim::PinScope* scope = nullptr);

  struct QueryResult {
    std::vector<FileId> files;
    sim::Cost cost;
  };
  QueryResult RangeQuery(const KdBox& box) const;

  // Median-split re-bulk-load; drops tombstones.  Returns the simulated
  // cost (sequential rewrite of the whole tree).
  sim::Cost Rebuild();

  // True when insert-order growth has left the tree pathologically deeper
  // than a balanced build; Propeller uses this as a rebuild trigger.
  bool NeedsRebuild() const;

 private:
  struct Node {
    std::vector<double> point;
    FileId file = 0;
    uint64_t page = 0;  // home page (see HomePage)
    bool deleted = false;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };

  uint64_t TreeBytes() const;
  uint64_t NodesPerPage() const;
  // The page holding the node in image slot `slot`: its byte offset's
  // page in the serialized image, whole-node packing in the paged one.
  uint64_t HomePage(uint64_t slot) const;
  sim::Cost ChargeFullLoad(sim::PinScope* scope = nullptr) const;
  std::unique_ptr<Node> Build(std::vector<Node*>& nodes, size_t begin,
                              size_t end, size_t depth, uint64_t* next_slot);

  sim::PageStore store_;
  size_t dims_;
  KdLayout layout_;
  std::unique_ptr<Node> root_;
  uint64_t num_points_ = 0;   // live (non-tombstoned) points
  uint64_t num_nodes_ = 0;    // including tombstones
  bool exact_ = true;
};

}  // namespace propeller::index
