// Standalone index-layer replay: builds IndexGroup / KdTree / RecordStore /
// PageCache objects from one real group's rows through their public
// constructors and replays the workload's own predicates and page-touch
// streams against them, timing each layer with no cluster around it.
#pragma once

#include <cstdint>
#include <vector>

#include "workload.h"

namespace perfbench {

struct ReplayInput {
  std::vector<FileUpdate> rows;  // one group's committed rows
  std::vector<Query> queries;    // the workload's predicates
  int64_t now_q = kEpochNow;     // clock at the end of the run: mtime of the replayed writes
  uint64_t seed = 0;
};

struct ReplayResult {
  double kd_range_query_ns = 0;
  double record_get_ns = 0;
  double touch_hit_ns = 0;
  double touch_evict_ns = 0;
  double group_search_us = 0;
  double group_stage_ns = 0;
  double group_commit_us = 0;
  // Replayed group searches that disagreed with a brute-force evaluation.
  uint64_t mismatches = 0;
};

ReplayResult RunReplay(const ReplayInput& in);

}  // namespace perfbench
