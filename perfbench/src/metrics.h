// Measurement helpers of the benchmark: exact percentiles over raw samples,
// a monotone-counter snapshot diff, and an in-memory span recorder with
// self-time analysis. Nothing here touches the galloper libraries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- Percentiles ----------------------------------------------------------

// Nearest-rank percentile of raw samples: the smallest sample with at least
// q·n samples at or below it (q in (0, 1]). Exact — no bucketing or
// interpolation. Throws std::invalid_argument on an empty set or q outside
// (0, 1].
double percentile(std::vector<double> samples, double q);

// Median of a small set (mean of the two middle values for even n).
double median(std::vector<double> values);

// ---- Counter snapshots ----------------------------------------------------

// A named set of process-wide counters taken at one instant. Counters are
// monotone (they only grow), so the work done by a phase is the difference
// of the snapshots taken around it.
using Counters = std::map<std::string, uint64_t>;

// after − before for every counter of `after`. Throws std::logic_error when
// a counter is missing from `before` or went backwards — either means the
// two snapshots are not of one monotone source.
Counters diff(const Counters& before, const Counters& after);

// ---- Spans ----------------------------------------------------------------

struct Span {
  const char* name = "";  // a string literal: recording allocates nothing
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // id of the root span of the same request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Collects spans in memory; written out by the caller when the run ends.
// Thread-safe: recording threads spread over kShards locked buffers. A null
// Tracer* means tracing is off: ScopedSpan is then a no-op that never reads
// the clock.
class Tracer {
 public:
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  // Every span recorded so far, ordered by id.
  std::vector<Span> spans() const;

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Span> spans;
  };
  std::atomic<uint64_t> next_id_{0};
  Shard shards_[kShards];
};

class ScopedSpan {
 public:
  // A root span (parent == nullptr) starts a new op; a child inherits its
  // parent's op id.
  ScopedSpan(Tracer* tracer, const char* name,
             const ScopedSpan* parent = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

// Self time of every span: its duration minus the part of its interval
// covered by its direct children (overlapping children are merged, parts
// outside the parent are clipped). Indexed like `spans`.
std::vector<int64_t> self_times_ns(const std::vector<Span>& spans);

struct SpanTotals {
  size_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
// Per span name: how many, total duration and total self time.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

// Writes spans as a JSON array (one object per span).
std::string spans_json(const std::vector<Span>& spans);

}  // namespace perfbench
