// Self-test of the benchmark's measurement helpers: exact percentiles,
// monotone counter diffs and span self time. Exits non-zero on the first
// failed check. Run it with `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  // 1..100 shuffled: nearest rank gives the q·n-th smallest exactly.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
  check(percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  check(percentile(v, 1.0) == 100, "p100 is the maximum");
  check(percentile(v, 0.001) == 1, "a tiny rank is the minimum");
  // No interpolation: p50 of {1, 2} is a sample, not 1.5.
  check(percentile({2, 1}, 0.5) == 1, "p50 of {1,2} is 1");
  check(percentile({7}, 0.99) == 7, "single sample");
  // A tail outlier moves p99 only when it is inside the top 1%.
  std::vector<double> tail(1000, 1.0);
  tail[0] = 500;
  check(percentile(tail, 0.99) == 1.0, "one outlier in 1000 is beyond p99");
  for (int i = 0; i < 11; ++i) tail[i] = 500;
  check(percentile(tail, 0.99) == 500, "eleven outliers in 1000 set p99");
  check(throws([] { percentile({}, 0.5); }), "empty set throws");
  check(throws([] { percentile({1}, 0.0); }), "q = 0 throws");
  check(throws([] { percentile({1}, 1.5); }), "q > 1 throws");

  check(percentile(v, 0.90) == 90, "p90 of 1..100 is 90");
  check(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_counter_diff() {
  const Counters before = {{"a", 10}, {"b", 0}, {"c", 5}};
  const Counters after = {{"a", 15}, {"b", 7}, {"c", 5}};
  const Counters d = diff(before, after);
  check(d.at("a") == 5 && d.at("b") == 7 && d.at("c") == 0,
        "diff subtracts per counter");
  check(throws([&] { diff(after, before); }),
        "a counter that went backwards throws");
  check(throws([&] { diff({{"a", 1}}, after); }),
        "a counter missing from the first snapshot throws");
}

Span span(const char* name, uint64_t id, uint64_t parent, int64_t start,
          int64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: covered
  // 10..50 = 40) and [90,120) clipped to [90,100) → covered 50, self 50.
  // Child [20,50) has a grandchild [25,35) → self 20. Grandchildren do not
  // count against the root.
  const std::vector<Span> spans = {
      span("s1", 1, 0, 0, 100),   span("s2", 2, 1, 10, 30),
      span("s3", 3, 1, 20, 50),   span("s4", 4, 1, 90, 120),
      span("s5", 5, 3, 25, 35),   span("s6", 6, 0, 200, 210)};
  const std::vector<int64_t> self = self_times_ns(spans);
  check(self[0] == 50, "root self time merges and clips children");
  check(self[1] == 20, "leaf self time is its duration");
  check(self[2] == 20, "inner span subtracts its own child");
  check(self[5] == 10, "childless root");

  const auto totals = totals_by_name(spans);
  check(totals.at("s1").count == 1 && totals.at("s1").total_ns == 100 &&
            totals.at("s1").self_ns == 50,
        "totals by name");

  // ScopedSpan: children inherit the op id; a null tracer records nothing.
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "root");
    ScopedSpan child(&tracer, "child", &root);
  }
  {
    ScopedSpan off(nullptr, "off");
  }
  const std::vector<Span> rec = tracer.spans();
  check(rec.size() == 2, "two spans recorded");
  if (rec.size() != 2) return;
  const Span& root = rec[0];  // spans() orders by id: root first
  const Span& child = rec[1];
  check(std::string(root.name) == "root" && std::string(child.name) == "child",
        "spans ordered by id");
  check(child.parent == root.id && child.op == root.id && root.op == root.id,
        "child links to its parent and op");
  check(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns,
        "child nested in parent");
}

}  // namespace

int main() {
  test_percentiles();
  test_counter_diff();
  test_self_time();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
