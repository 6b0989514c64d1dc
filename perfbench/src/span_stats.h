// Simulated-time layer attribution over the program's own span tree
// (ClusterConfig::tracing).  Nothing here changes the program: the walker
// reads the finished spans of one benchmark op and folds them into totals.
//
//  * Self time of a span = its duration minus the part of that interval
//    its children cover (overlapping children count once).  Summed per
//    span name, this is the work each layer did.
//  * Critical-path attribution splits a client op's root interval along
//    the chain of children that ends last, so the parts add up to the
//    root's duration exactly.  The op's returned cost minus what the
//    layers below the root explain is "unattributed": a tracing gap.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util.h"

namespace perfbench {

class SpanStats {
 public:
  struct NameTotals {
    uint64_t count = 0;
    double self_s = 0;
    double critical_s = 0;  // self time on client ops' critical paths
  };

  // Folds the spans of one op.  `op_cost_s` is the cost the client call
  // returned, or a negative value for ops without one (clock ticks).
  void AddOp(const std::vector<propeller::obs::Span>& spans, double op_cost_s);

  const std::map<std::string, NameTotals>& by_name() const { return by_name_; }
  uint64_t Count(const std::string& name) const;
  double SelfSeconds(const std::string& name) const;
  // group.commit spans nested under an in.search call vs all of them.
  uint64_t commits_on_search() const { return commits_on_search_; }
  uint64_t commits() const { return commits_; }
  // Sum of client op costs and the part no span below the root explains.
  double cost_s() const { return cost_s_; }
  double unattributed_s() const { return unattributed_s_; }

 private:
  std::map<std::string, NameTotals> by_name_;
  uint64_t commits_on_search_ = 0;
  uint64_t commits_ = 0;
  double cost_s_ = 0;
  double unattributed_s_ = 0;
};

}  // namespace perfbench
