// Analytic HDD cost model.
//
// Defaults approximate the paper's Seagate Barracuda ST31000524AS
// (7200 rpm, 32 MB cache): ~8.5 ms average seek, ~4.17 ms half-rotation
// latency, ~100 MB/s sustained transfer.  A random 4 KiB page access is
// therefore ~12.7 ms; sequential I/O is bandwidth-bound.
#pragma once

#include <cstdint>

#include "sim/cost.h"

namespace propeller::sim {

struct DiskParams {
  double seek_ms = 8.5;
  double rotational_ms = 4.17;
  double transfer_mb_per_s = 100.0;
  uint32_t page_size_bytes = 4096;
};

class DiskModel {
 public:
  explicit DiskModel(DiskParams params = {}) : params_(params) {}

  const DiskParams& params() const { return params_; }
  uint32_t page_size() const { return params_.page_size_bytes; }

  // One random page read or write: seek + rotate + one-page transfer.
  Cost RandomPageAccess() const {
    return Cost((params_.seek_ms + params_.rotational_ms) / 1e3 +
                TransferSeconds(params_.page_size_bytes));
  }

  // N pages at sequentially increasing offsets after one initial seek.
  Cost SequentialPages(uint64_t pages) const {
    if (pages == 0) return Cost::Zero();
    return Cost((params_.seek_ms + params_.rotational_ms) / 1e3 +
                TransferSeconds(pages * static_cast<uint64_t>(params_.page_size_bytes)));
  }

  Cost SequentialBytes(uint64_t bytes) const {
    if (bytes == 0) return Cost::Zero();
    return Cost((params_.seek_ms + params_.rotational_ms) / 1e3 +
                TransferSeconds(bytes));
  }

  // Appending to an already-open log: no seek, pure transfer.
  Cost AppendBytes(uint64_t bytes) const { return Cost(TransferSeconds(bytes)); }

  // True when reading through `gap_pages` unwanted pages costs less than
  // the seek plus rotation a fresh access would pay instead (at the
  // defaults: gaps of up to ~309 pages).
  bool SweepAbsorbsGap(uint64_t gap_pages) const {
    uint64_t bytes = gap_pages * static_cast<uint64_t>(params_.page_size_bytes);
    return TransferSeconds(bytes) <
           (params_.seek_ms + params_.rotational_ms) / 1e3;
  }

 private:
  double TransferSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / (params_.transfer_mb_per_s * 1e6);
  }

  DiskParams params_;
};

}  // namespace propeller::sim
