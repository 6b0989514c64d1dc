#include "span_stats.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {
namespace {

using propeller::obs::Span;

struct Tree {
  std::vector<const Span*> spans;
  std::unordered_map<uint64_t, size_t> index;  // span id -> position
  std::vector<std::vector<size_t>> children;
  std::vector<size_t> roots;

  explicit Tree(std::vector<const Span*> s) : spans(std::move(s)) {
    children.resize(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) index[spans[i]->span_id] = i;
    for (size_t i = 0; i < spans.size(); ++i) {
      auto it = index.find(spans[i]->parent_id);
      if (spans[i]->parent_id == 0 || it == index.end()) {
        roots.push_back(i);
      } else {
        children[it->second].push_back(i);
      }
    }
  }
};

// Duration of `s` not covered by any child interval (clipped to `s`).
double SelfTime(const Tree& t, size_t i) {
  const Span& s = *t.spans[i];
  std::vector<std::pair<double, double>> cover;
  for (size_t c : t.children[i]) {
    const double lo = std::max(s.start_s, t.spans[c]->start_s);
    const double hi = std::min(s.end_s, t.spans[c]->end_s);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0, reach = s.start_s;
  for (const auto& [lo, hi] : cover) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return std::max(0.0, (s.end_s - s.start_s) - covered);
}

// Splits span i's interval along its critical path: walking back from the
// end, the child that ends last (at or before the cursor) is on the path;
// gaps between path children are the span's own time.
void CriticalPath(const Tree& t, size_t i,
                  std::map<std::string, SpanStats::NameTotals>& out,
                  double* below_root, bool is_root) {
  const Span& s = *t.spans[i];
  std::vector<size_t> kids = t.children[i];
  std::sort(kids.begin(), kids.end(), [&](size_t a, size_t b) {
    return t.spans[a]->end_s > t.spans[b]->end_s;
  });
  const double eps = 1e-12;
  double cursor = s.end_s;
  double own = 0;
  for (size_t c : kids) {
    const Span& k = *t.spans[c];
    if (k.end_s > cursor + eps || k.start_s < s.start_s - eps) continue;
    own += std::max(0.0, cursor - k.end_s);
    CriticalPath(t, c, out, below_root, false);
    cursor = std::min(cursor, k.start_s);
  }
  own += std::max(0.0, cursor - s.start_s);
  out[s.name].critical_s += own;
  if (!is_root) *below_root += own;
}

bool UnderSearch(const Tree& t, size_t i) {
  const Span* s = t.spans[i];
  while (s->parent_id != 0) {
    auto it = t.index.find(s->parent_id);
    if (it == t.index.end()) return false;
    s = t.spans[it->second];
    if (s->name == "in.search") return true;
  }
  return false;
}

}  // namespace

void SpanStats::AddOp(const std::vector<Span>& spans, double op_cost_s) {
  std::unordered_map<uint64_t, std::vector<const Span*>> traces;
  for (const Span& s : spans) traces[s.trace_id].push_back(&s);
  for (auto& [id, members] : traces) {
    Tree t(std::move(members));
    for (size_t i = 0; i < t.spans.size(); ++i) {
      NameTotals& n = by_name_[t.spans[i]->name];
      ++n.count;
      n.self_s += SelfTime(t, i);
      if (t.spans[i]->name == "group.commit") {
        ++commits_;
        if (UnderSearch(t, i)) ++commits_on_search_;
      }
    }
    if (op_cost_s < 0) continue;
    for (size_t r : t.roots) {
      if (t.spans[r]->name.rfind("client.", 0) != 0) continue;
      double below = 0;
      CriticalPath(t, r, by_name_, &below, true);
      cost_s_ += op_cost_s;
      unattributed_s_ += op_cost_s - below;
    }
  }
}

uint64_t SpanStats::Count(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.count;
}

double SpanStats::SelfSeconds(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.self_s;
}

}  // namespace perfbench
