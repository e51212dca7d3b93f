// The four benchmark workloads. Each drives the public APIs of one layer
// stack from at most four load threads, checks every delivered byte, and
// reports raw per-op samples; main.cc turns them into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "snapshot.h"

namespace perfbench {

// A delivered byte differed from the oracle. Never counted as a failure:
// it aborts the run.
class WrongBytes : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One completed op of a timed phase.
struct OpRecord {
  double end_s = 0;     // completion, seconds after the phase started
  double ms = 0;        // latency
  uint64_t bytes = 0;   // bytes it moved, for data_mib_per_s
  bool side = false;    // the workload's second op kind
  bool counted = true;  // counts in ops_per_s
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  // data_mib_per_s: the bytes of a window's ops over its wall time, or,
  // when set, over the summed latency of the ops that carry bytes (MR jobs,
  // rebuilds).
  bool rate_over_op_time = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;   // refused or unavailable (nullopt) ops
  double wall_s = 0;
  // Read calls and the bytes they delivered (read amplification base).
  uint64_t reads = 0;
  uint64_t bytes_delivered = 0;
  // Workload-specific per-layer metrics (mr.*, cluster.*).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the data set (ingest) and warms plans, cache and buffer pool.
  // Called several times, each after teardown().
  virtual void setup(Tracer* tracer, double* ingest_s, double* warm_s) = 0;

  // Drops the data set of the last setup().
  virtual void teardown() = 0;

  // Closed-loop timed phase of about `seconds`, every op recorded with its
  // completion time so the caller can cut the phase into windows.
  virtual PhaseResult run(double seconds, Tracer* tracer) = 0;

  // Stats sources the snapshots around run() should include.
  virtual Sources sources() = 0;

  // Extra per-layer numbers of the traced run, measured after the timed
  // phases (mr.map_ratio_vs_pyramid).
  virtual void traced_extras(std::map<std::string, double>& layer) {
    (void)layer;
  }

  // Chunk size of the workload's code layout, for the GF kernel probe.
  virtual size_t chunk_bytes() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed);

}  // namespace perfbench
