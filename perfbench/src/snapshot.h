// One snapshot of every public stats surface the galloper libraries expose,
// flattened into named monotone counters (see metrics.h: diff), plus the
// few gauges that cannot be diffed.
#pragma once

#include <cstdint>

#include "metrics.h"

namespace galloper::store {
class FileStore;
}  // namespace galloper::store
namespace galloper::cluster {
class Coordinator;
}  // namespace galloper::cluster

namespace perfbench {

// The store's read counters and, when set, the cluster's node and repair
// counters are added to the process-wide ones.
struct Sources {
  const galloper::store::FileStore* store = nullptr;
  galloper::cluster::Coordinator* coordinator = nullptr;
};

Counters take_counters(const Sources& src);

// Gauges read at the end of a phase. Buffer-pool peak is reset by
// reset_gauges() so it covers one phase; the async-I/O latency quantiles and
// queue peak cover the whole process (the library offers no reset).
struct Gauges {
  double pool_peak_outstanding_mib = 0;
  double io_fetch_p50_us = 0;
  double io_fetch_p99_us = 0;
  uint64_t io_queue_peak = 0;
};
void reset_gauges();
Gauges read_gauges();

}  // namespace perfbench
