#include "index/kdtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace propeller::index {
namespace {

constexpr uint64_t kPageBytes = 4096;
// point doubles + file id + child offsets + flags
uint64_t NodeBytes(size_t dims) { return dims * 8 + 8 + 16 + 4; }
constexpr double kCpuPerNodeUs = 0.05;

}  // namespace

bool HeldExactlyAsDouble(const AttrValue& v) {
  constexpr int64_t kMaxExactInt = int64_t{1} << 53;
  if (v.is_int()) {
    return v.as_int() >= -kMaxExactInt && v.as_int() <= kMaxExactInt;
  }
  return v.is_double() && std::isfinite(v.as_double());
}

KdTree::KdTree(sim::PageStore store, size_t dims, KdLayout layout)
    : store_(store), dims_(dims), layout_(layout) {
  assert(dims_ > 0);
}

uint64_t KdTree::TreeBytes() const { return num_nodes_ * NodeBytes(dims_); }

uint64_t KdTree::NumPages() const {
  if (layout_ == KdLayout::kSerialized) {
    return (TreeBytes() + kPageBytes - 1) / kPageBytes;
  }
  return (num_nodes_ + NodesPerPage() - 1) / NodesPerPage();
}

uint64_t KdTree::NodesPerPage() const {
  return std::max<uint64_t>(1, kPageBytes / NodeBytes(dims_));
}

uint64_t KdTree::HomePage(uint64_t slot) const {
  if (layout_ == KdLayout::kSerialized) {
    return slot * NodeBytes(dims_) / kPageBytes;
  }
  return slot / NodesPerPage();
}

sim::Cost KdTree::ChargeFullLoad(sim::PinScope* scope) const {
  return store_.SequentialLoad(NumPages(), scope);
}

sim::Cost KdTree::Insert(const std::vector<double>& point, FileId file,
                         bool exact, sim::PinScope* scope) {
  assert(point.size() == dims_);
  exact_ = exact_ && exact;
  sim::Cost cost;
  sim::PinScope op_pins;  // this operation's own, without a caller scope
  sim::PinScope* pins = scope != nullptr ? scope : &op_pins;
  // Serialized layout: the blob must be resident to modify it.
  if (layout_ == KdLayout::kSerialized) cost += ChargeFullLoad(scope);

  std::unique_ptr<Node>* slot = &root_;
  uint64_t visited = 0;
  size_t depth = 0;
  while (*slot != nullptr) {
    Node& n = **slot;
    ++visited;
    if (layout_ == KdLayout::kPaged) cost += store_.Read(n.page, pins);
    size_t axis = depth % dims_;
    slot = point[axis] < n.point[axis] ? &n.left : &n.right;
    ++depth;
  }
  auto node = std::make_unique<Node>();
  node->point = point;
  node->file = file;
  // Appended nodes land at the image's tail (near their insertion order,
  // not their subtree — Rebuild restores clustering).
  node->page = HomePage(num_nodes_);
  *slot = std::move(node);
  ++num_points_;
  ++num_nodes_;
  // Serialized: the page holding the image's new last byte.
  cost += store_.Write(layout_ == KdLayout::kPaged
                           ? (*slot)->page
                           : (TreeBytes() - 1) / kPageBytes,
                       scope);
  cost += sim::Cost(static_cast<double>(visited) * kCpuPerNodeUs / 1e6);
  return cost;
}

sim::Cost KdTree::BulkLoad(
    std::vector<std::pair<std::vector<double>, FileId>> points, bool exact) {
  assert(num_nodes_ == 0);
  exact_ = exact_ && exact;
  if (points.empty()) return sim::Cost::Zero();
  // Deterministic build regardless of input order: nth_element ties are
  // broken by the pre-sort below.
  std::sort(points.begin(), points.end(),
            [](const std::pair<std::vector<double>, FileId>& a,
               const std::pair<std::vector<double>, FileId>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  std::vector<std::unique_ptr<Node>> scratch;
  scratch.reserve(points.size());
  std::vector<Node*> raw;
  raw.reserve(points.size());
  for (auto& [point, file] : points) {
    auto n = std::make_unique<Node>();
    n->point = std::move(point);
    n->file = file;
    raw.push_back(n.get());
    scratch.push_back(std::move(n));
  }
  uint64_t next_slot = 0;
  root_ = Build(raw, 0, raw.size(), 0, &next_slot);
  num_nodes_ = num_points_ = raw.size();
  // One sequential pass writes the whole (serialized or paged) image.
  return store_.SequentialLoad(NumPages());
}

sim::Cost KdTree::Remove(const std::vector<double>& point, FileId file,
                         sim::PinScope* scope) {
  assert(point.size() == dims_);
  sim::Cost cost;
  sim::PinScope op_pins;  // this operation's own, without a caller scope
  sim::PinScope* pins = scope != nullptr ? scope : &op_pins;
  if (layout_ == KdLayout::kSerialized) cost += ChargeFullLoad(scope);
  uint64_t visited = 0;
  // Ties on the split axis can land on either side (inserts go right,
  // median rebuilds may put equals left), so descend both sides on a tie.
  struct Frame {
    Node* node;
    size_t depth;
  };
  std::vector<Frame> stack;
  if (root_ != nullptr) stack.push_back({root_.get(), 0});
  while (!stack.empty()) {
    auto [n, depth] = stack.back();
    stack.pop_back();
    ++visited;
    if (layout_ == KdLayout::kPaged) cost += store_.Read(n->page, pins);
    if (!n->deleted && n->file == file && n->point == point) {
      n->deleted = true;
      --num_points_;
      cost += store_.Write(n->page, scope);
      break;
    }
    size_t axis = depth % dims_;
    if (n->left != nullptr && point[axis] <= n->point[axis]) {
      stack.push_back({n->left.get(), depth + 1});
    }
    if (n->right != nullptr && point[axis] >= n->point[axis]) {
      stack.push_back({n->right.get(), depth + 1});
    }
  }
  // An absent point still pays for the search.
  cost += sim::Cost(static_cast<double>(visited) * kCpuPerNodeUs / 1e6);
  return cost;
}

KdTree::QueryResult KdTree::RangeQuery(const KdBox& box) const {
  assert(box.lo.size() == dims_ && box.hi.size() == dims_);
  QueryResult out;
  sim::PinScope pins;  // each page once per query
  if (layout_ == KdLayout::kSerialized) out.cost += ChargeFullLoad();

  uint64_t visited = 0;
  struct Frame {
    const Node* node;
    size_t depth;
  };
  std::vector<Frame> stack;
  if (root_ != nullptr) stack.push_back({root_.get(), 0});
  while (!stack.empty()) {
    auto [n, depth] = stack.back();
    stack.pop_back();
    ++visited;
    if (layout_ == KdLayout::kPaged) out.cost += store_.Read(n->page, &pins);
    if (!n->deleted && box.Contains(n->point)) out.files.push_back(n->file);
    size_t axis = depth % dims_;
    if (n->left != nullptr && box.lo[axis] <= n->point[axis]) {
      stack.push_back({n->left.get(), depth + 1});
    }
    if (n->right != nullptr && box.hi[axis] >= n->point[axis]) {
      stack.push_back({n->right.get(), depth + 1});
    }
  }
  out.cost += sim::Cost(static_cast<double>(visited) * kCpuPerNodeUs / 1e6);
  return out;
}

std::unique_ptr<KdTree::Node> KdTree::Build(std::vector<Node*>& nodes,
                                            size_t begin, size_t end,
                                            size_t depth, uint64_t* next_slot) {
  if (begin >= end) return nullptr;
  size_t axis = depth % dims_;
  size_t mid = begin + (end - begin) / 2;
  std::nth_element(nodes.begin() + static_cast<long>(begin),
                   nodes.begin() + static_cast<long>(mid),
                   nodes.begin() + static_cast<long>(end),
                   [axis](const Node* a, const Node* b) {
                     return a->point[axis] < b->point[axis];
                   });
  auto root = std::make_unique<Node>();
  root->point = std::move(nodes[mid]->point);
  root->file = nodes[mid]->file;
  // DFS slot assignment packs each subtree onto contiguous pages, so a
  // paged range query touching one region touches few pages.
  root->page = HomePage((*next_slot)++);
  root->left = Build(nodes, begin, mid, depth + 1, next_slot);
  root->right = Build(nodes, mid + 1, end, depth + 1, next_slot);
  return root;
}

sim::Cost KdTree::Rebuild() {
  sim::Cost cost = ChargeFullLoad();  // both layouts read everything once

  // Collect live nodes.
  std::vector<Node*> live;
  live.reserve(num_points_);
  std::vector<Node*> stack;
  if (root_ != nullptr) stack.push_back(root_.get());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (!n->deleted) live.push_back(n);
    if (n->left != nullptr) stack.push_back(n->left.get());
    if (n->right != nullptr) stack.push_back(n->right.get());
  }

  uint64_t next_slot = 0;
  std::unique_ptr<Node> new_root = Build(live, 0, live.size(), 0, &next_slot);
  root_ = std::move(new_root);  // old tree (and tombstones) released here
  num_nodes_ = num_points_ = live.size();

  cost += store_.Rewrite(NumPages(), NumPages());  // image rewritten
  return cost;
}

uint32_t KdTree::Depth() const {
  struct Frame {
    const Node* node;
    uint32_t depth;
  };
  uint32_t max_depth = 0;
  std::vector<Frame> stack;
  if (root_ != nullptr) stack.push_back({root_.get(), 1});
  while (!stack.empty()) {
    auto [n, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (n->left != nullptr) stack.push_back({n->left.get(), d + 1});
    if (n->right != nullptr) stack.push_back({n->right.get(), d + 1});
  }
  return max_depth;
}

bool KdTree::NeedsRebuild() const {
  if (num_nodes_ < 64) return false;
  double balanced = std::log2(static_cast<double>(num_nodes_)) + 1.0;
  // Tombstone bloat also triggers a rebuild.
  if (num_points_ * 2 < num_nodes_) return true;
  return static_cast<double>(Depth()) > 2.5 * balanced;
}

}  // namespace propeller::index
