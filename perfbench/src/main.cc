// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload <hot_read|cold_mixed|analytics|rebuild>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Sets the workload up kSetups times, then runs its closed-loop timed
// phase. With --trace 0 it prints the end-to-end metrics, which are
// measured in process CPU time (see cpu_s below), and the wall-clock
// figures of the phase as ungated lines; with --trace 1 it runs the phase
// untraced for half the time and traced for the other half, and prints the
// per-layer metrics of the traced half (counter diffs, gauges and span self
// times), the wall-clock figures of the untraced half and the traced ÷
// untraced ratios. Human-readable lines come first; the last line of
// standard output is one JSON object. Exit 3 when any delivered byte was
// wrong, 2 on bad arguments, 1 on any other error.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/cache.h"
#include "codes/plan.h"
#include "gf/region.h"
#include "gf/region_dispatch.h"
#include "io/async.h"
#include "metrics.h"
#include "rt/pool.h"
#include "snapshot.h"
#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kSetups = 5;
constexpr size_t kWindows = 20;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count or attribution remark, printed only
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// CPU time of the whole process, all threads. Time the host hands the vCPUs
// to other guests (steal) is not charged to it; on the shared 4-vCPU host
// this benchmark was tuned on, steal episodes of 10-30% lasting tens of
// minutes cut wall-clock throughput by up to 3.5× while CPU time per MiB
// moved by about 20% at most. It does not cancel slower periods of the host
// itself (see perfbench/README.md).
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Payload MiB of a phase's ops (read, written, rebuilt or MR input) per
// second of process CPU time.
Metric mib_per_cpu_s(const PhaseResult& r, double cpu) {
  double bytes = 0;
  for (const OpRecord& op : r.ops) bytes += static_cast<double>(op.bytes);
  char note[64];
  std::snprintf(note, sizeof note, "%.4g MiB over %.4g cpu-s", bytes / (1 << 20),
                cpu);
  return {"mib_per_cpu_s", ratio(bytes / (1 << 20), cpu), "MiB/cpu-s", note};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Wall-clock figures of a phase. The phase is cut into `windows` equal time
// windows by op completion time; each figure is computed per window and the
// median over the windows that have samples for it is reported, so a burst
// of outside load in one window moves nothing. Notes carry sample counts and
// the range over windows.
std::vector<Metric> wall_metrics(const PhaseResult& r, size_t windows) {
  struct Window {
    double ops = 0;
    std::vector<double> main_ms, side_ms;
    double bytes = 0, op_s = 0;
  };
  std::vector<Window> win(windows);
  const double len = r.wall_s / static_cast<double>(windows);
  size_t main_n = 0, side_n = 0, ops = 0;
  const auto index = [&](double t) {
    return std::min(windows - 1, static_cast<size_t>(std::max(0.0, t) / len));
  };
  for (const OpRecord& op : r.ops) {
    Window& w = win[index(op.end_s)];
    // An op counts towards each window in proportion to the part of its
    // run time that falls there, so windows holding only a few long ops
    // (MR jobs) do not read in whole-op steps.
    const double begin_s = std::max(0.0, op.end_s - op.ms / 1e3);
    if (op.counted && op.end_s > begin_s) {
      for (size_t k = index(begin_s); k <= index(op.end_s); ++k) {
        const double lo = std::max(begin_s, static_cast<double>(k) * len);
        const double hi = std::min(op.end_s, static_cast<double>(k + 1) * len);
        if (hi > lo) win[k].ops += (hi - lo) / (op.end_s - begin_s);
      }
    } else if (op.counted) {
      w.ops += 1;
    }
    (op.side ? w.side_ms : w.main_ms).push_back(op.ms);
    if (op.bytes > 0) {
      w.bytes += static_cast<double>(op.bytes);
      w.op_s += op.ms / 1e3;
    }
    ops += op.counted;
    (op.side ? side_n : main_n) += 1;
  }
  std::vector<double> values[6];
  for (const Window& w : win) {
    values[0].push_back(w.ops / len);
    if (!w.main_ms.empty()) {
      values[1].push_back(percentile(w.main_ms, 0.50));
      values[2].push_back(percentile(w.main_ms, 0.90));
      values[3].push_back(percentile(w.main_ms, 0.99));
    }
    if (!w.side_ms.empty()) values[4].push_back(percentile(w.side_ms, 0.5));
    const double rate_s = r.rate_over_op_time ? w.op_s : len;
    if (rate_s > 0) values[5].push_back(w.bytes / (1 << 20) / rate_s);
  }
  const char* names[6] = {"ops_per_s",   "main_p50_ms", "main_p90_ms",
                          "main_p99_ms", "side_p50_ms", "data_mib_per_s"};
  const char* units[6] = {"1/s", "ms", "ms", "ms", "ms", "MiB/s"};
  const std::string counts[6] = {
      "ops=" + std::to_string(ops),    "n=" + std::to_string(main_n),
      "n=" + std::to_string(main_n),   "n=" + std::to_string(main_n),
      "n=" + std::to_string(side_n),   ""};
  std::vector<Metric> out;
  for (size_t i = 0; i < 6; ++i) {
    std::string note = counts[i] + (counts[i].empty() ? "" : ", ") +
                       "median over " + std::to_string(values[i].size()) +
                       " windows";
    if (!values[i].empty()) {
      const auto [lo, hi] =
          std::minmax_element(values[i].begin(), values[i].end());
      char range[64];
      std::snprintf(range, sizeof range, " (%.4g..%.4g)", *lo, *hi);
      note += range;
    }
    out.push_back({names[i], median(values[i]), units[i], note});
  }
  return out;
}

// Direct GF(2^8) region-kernel probe at the workload's chunk size: one
// multiply-accumulate pass over ~256 MiB, median of 3 timings.
double gf_mul_acc_gib_per_s(size_t chunk) {
  galloper::Buffer src(chunk, 0x5a), dst(chunk, 0);
  const size_t iters = std::max<size_t>(1, (size_t{256} << 20) / chunk);
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i)
      galloper::gf::mul_acc_region(dst, static_cast<galloper::gf::Elem>(3 + i),
                                   src);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    rates.push_back(static_cast<double>(iters * chunk) / (1 << 30) / s);
  }
  // Consume the output so the kernel calls cannot be dropped.
  volatile uint8_t sink = dst[chunk / 2];
  (void)sink;
  return median(rates);
}

const char* const kSpanNames[] = {
    "op.read",       "op.update",       "op.write",      "job",
    "mr.map",        "mr.shuffle",      "mr.reduce",     "rebuild.cycle",
    "rebuild.fail",  "rebuild.restart", "rebuild.drain", "setup.ingest",
    "setup.warm"};
const char* const kRootOps[] = {"op.read", "op.update", "op.write", "job",
                                "rebuild.cycle"};

uint64_t get(const Counters& d, const std::string& key) {
  const auto it = d.find(key);
  return it == d.end() ? 0 : it->second;
}

double exec_us(const Counters& d, const char* op) {
  const std::string p = std::string("plan.") + op;
  return ratio(static_cast<double>(get(d, p + ".exec_ns")) / 1e3,
               static_cast<double>(get(d, p + ".execs")));
}

// Per-layer metrics of the traced phase: `d` is the counter diff around
// it, `r` its records, `spans` what the benchmark's own spans recorded.
std::vector<Metric> layer_metrics(const Counters& d, const Gauges& g,
                                  const PhaseResult& r,
                                  const std::vector<Span>& spans) {
  const auto f = [&](const char* key) {
    return static_cast<double>(get(d, key));
  };
  const auto n = [](const char* key, double v, const char* unit,
                    std::string note = "") {
    return Metric{key, v, unit, std::move(note)};
  };
  std::vector<Metric> m;
  m.push_back(n("client.cache_hit_rate",
                ratio(f("cache.hits"), f("cache.hits") + f("cache.misses")),
                "frac"));
  m.push_back(n("client.cache_served_frac",
                ratio(f("client.cache_reads"), f("client.reads")), "frac"));
  m.push_back(n("client.cache_invalidations", f("cache.invalidations"),
                "count"));
  m.push_back(n("client.cache_evictions", f("cache.evictions"), "count"));
  m.push_back(n("client.admission_wait_frac",
                ratio(f("admission.waited"), f("admission.admitted")), "frac"));
  m.push_back(n("client.batches_per_read",
                ratio(f("client.batches"), f("client.reads")), "count"));
  m.push_back(n("client.fallbacks", f("client.fallbacks"), "count"));
  m.push_back(n("store.degraded_read_frac",
                ratio(f("store.degraded_reads"), f("store.verified_reads")),
                "frac"));
  m.push_back(n("store.crc_failures", f("store.crc_failures"), "count"));
  m.push_back(n("store.auto_repairs", f("store.auto_repairs"), "count"));
  m.push_back(n("plan.cache_hit_rate",
                ratio(f("plan.hits"), f("plan.hits") + f("plan.misses")),
                "frac"));
  double compiles = 0;
  for (size_t op = 0; op < galloper::codes::kNumPlanOps; ++op)
    compiles += static_cast<double>(get(
        d, std::string("plan.") +
               galloper::codes::plan_op_name(
                   static_cast<galloper::codes::PlanOp>(op)) +
               ".plans"));
  m.push_back(n("plan.compiles", compiles, "count"));
  for (const char* op : {"encode", "update", "decode_fast", "repair"}) {
    const uint64_t execs = get(d, std::string("plan.") + op + ".execs");
    m.push_back(n(("codes." + std::string(op) + ".exec_us").c_str(),
                  exec_us(d, op), "us",
                  "execs=" + std::to_string(execs) +
                      (execs == 0 ? " (unattributed: no counter on this "
                                    "path; the time is in the op span's self "
                                    "time)"
                                  : "")));
  }
  m.push_back(n("exec.batch_gib_per_s",
                ratio(f("exec.bytes") / (1 << 30), f("exec.ns") * 1e-9),
                "GiB/s"));
  m.push_back(n("io.fetch_p50_us", g.io_fetch_p50_us, "us",
                "whole-process quantile"));
  m.push_back(n("io.fetch_p99_us", g.io_fetch_p99_us, "us",
                "whole-process quantile"));
  m.push_back(n("io.queue_peak", static_cast<double>(g.io_queue_peak),
                "count", "whole-process peak"));
  const double reads = static_cast<double>(r.reads);
  m.push_back(n("io.fetches_per_read", ratio(f("io.fetches"), reads), "count",
                "reads=" + std::to_string(r.reads)));
  m.push_back(n("io.read_amplification",
                ratio(f("io.bytes_read"),
                      static_cast<double>(r.bytes_delivered)),
                "ratio"));
  m.push_back(n("io.hedges_issued", f("io.hedges_issued"), "count"));
  m.push_back(n("io.hedge_win_rate",
                ratio(f("io.hedges_won"), f("io.hedges_issued")), "frac"));
  m.push_back(n("io.cancelled", f("io.cancelled"), "count"));
  m.push_back(n("pool.hit_rate",
                ratio(f("pool.hits"), f("pool.hits") + f("pool.misses")),
                "frac"));
  m.push_back(n("pool.peak_outstanding_mib", g.pool_peak_outstanding_mib,
                "MiB"));

  // Workload-specific layers; 0 on workloads that do not exercise them.
  const auto layer = [&](const char* key) {
    const auto it = r.layer.find(key);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  for (const char* key :
       {"mr.wordcount.map_s", "mr.wordcount.shuffle_s", "mr.wordcount.reduce_s",
        "mr.terasort.map_s", "mr.terasort.shuffle_s", "mr.terasort.reduce_s"})
    m.push_back(n(key, layer(key), "s"));
  m.push_back(n("mr.original_mib_per_s", layer("mr.original_mib_per_s"),
                "MiB/s"));
  m.push_back(n("mr.degraded_splits", layer("mr.degraded_splits"), "count"));
  m.push_back(n("mr.map_ratio_vs_pyramid", layer("mr.map_ratio_vs_pyramid"),
                "ratio", "ideal (k+l+g)/k = 1.75"));

  // Cluster: drain time per rebuild, wasted repair attempts, helper bytes
  // read per rebuilt byte and the spread of rebuilt bytes across nodes.
  m.push_back(n("cluster.drain_s", layer("cluster.drain_s"), "s"));
  const double done = f("repair.completed");
  const double waste = f("repair.requeued") + f("repair.dropped");
  m.push_back(n("cluster.repair_waste_frac", ratio(waste, done + waste),
                "frac"));
  double helper = 0, rebuilt = 0, most = 0, least = 0;
  for (const auto& [key, value] : d) {
    if (!key.starts_with("node.")) continue;
    const double v = static_cast<double>(value);
    if (key.ends_with(".io_bytes_read")) helper += v;
    if (key.ends_with(".repair_bytes") && v > 0) {
      rebuilt += v;
      most = std::max(most, v);
      least = least == 0 ? v : std::min(least, v);
    }
  }
  m.push_back(n("cluster.helper_bytes_per_rebuilt_byte", ratio(helper, rebuilt),
                "ratio"));
  m.push_back(n("cluster.node_repair_skew", ratio(most, least), "ratio"));

  // Spans: mean self time per span name, and the share of root-op time no
  // child span covers — the time this benchmark cannot yet attribute.
  const auto totals = totals_by_name(spans);
  double root_total = 0, root_self = 0;
  for (const char* name : kRootOps) {
    const auto it = totals.find(name);
    if (it == totals.end()) continue;
    root_total += static_cast<double>(it->second.total_ns);
    root_self += static_cast<double>(it->second.self_ns);
  }
  m.push_back(n("trace.unattributed_frac", ratio(root_self, root_total),
                "frac"));
  for (const char* name : kSpanNames) {
    const auto it = totals.find(name);
    const SpanTotals t = it == totals.end() ? SpanTotals{} : it->second;
    m.push_back(n(("span." + std::string(name) + ".self_ms").c_str(),
                  ratio(static_cast<double>(t.self_ns) / 1e6,
                        static_cast<double>(t.count)),
                  "ms", "spans=" + std::to_string(t.count)));
  }
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_lines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-40s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  print_lines(metrics);
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

void print_context(const std::string& workload, uint64_t seed, double seconds,
                   bool trace) {
  std::printf(
      "context: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "gf_isa=%s pool_threads=%zu io_threads=%zu cache_mib=%zu "
      "cache_shards=%zu plan_cache_entries=%zu\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, std::thread::hardware_concurrency(),
      galloper::gf::isa_name(galloper::gf::active_isa()),
      galloper::rt::ThreadPool::default_threads(),
      galloper::io::AsyncIo::global().threads(),
      galloper::client::BlockCache::global().capacity_bytes() >> 20,
      galloper::client::BlockCache::global().shard_count(),
      galloper::codes::PlanCache::global().capacity());
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("malformed arguments");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  for (const char* need : {"workload", "seed", "seconds", "trace"})
    if (args.count(need) == 0) return usage("missing a required flag");
  const std::string name = args["workload"];
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return usage("--seed must be an integer");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0)) return usage("--seconds must be > 0");
  if (args["trace"] != "0" && args["trace"] != "1")
    return usage("--trace must be 0 or 1");
  const bool trace = args["trace"] == "1";

  std::unique_ptr<Workload> w;
  try {
    w = make_workload(name, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!w) return usage("unknown workload");
  print_context(name, seed, seconds, trace);

  uint64_t attempted = 0, failed = 0;
  try {
    Tracer tracer;
    Tracer* tr = trace ? &tracer : nullptr;
    std::vector<double> setup_cpu_s, setup_wall_s, ingest_s, warm_s;
    for (int i = 0; i < kSetups; ++i) {
      // Hand the previous data set's memory back first, so the peak RSS is
      // one data set's and not the allocator's leftovers of several.
      w->teardown();
      galloper::util::BufferPool::global().trim();
      malloc_trim(0);
      double ingest = 0, warm = 0;
      const double c0 = cpu_s();
      const auto t0 = std::chrono::steady_clock::now();
      w->setup(tr, &ingest, &warm);
      setup_wall_s.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
      setup_cpu_s.push_back(cpu_s() - c0);
      ingest_s.push_back(ingest);
      warm_s.push_back(warm);
    }

    std::vector<Metric> out;
    if (!trace) {
      const double c0 = cpu_s();
      const PhaseResult r = w->run(seconds, nullptr);
      const double cpu = cpu_s() - c0;
      attempted = r.attempted;
      failed = r.failed;
      std::printf("wall-clock figures (not gated):\n");
      print_lines(wall_metrics(r, kWindows));
      print_lines({{"setup_wall_s", median(setup_wall_s), "s",
                    "median of " + std::to_string(kSetups) + " set-ups"}});
      std::printf("end-to-end metrics:\n");
      out.push_back({"setup_s", median(setup_cpu_s), "s",
                     "process CPU time, median of " +
                         std::to_string(kSetups) + " set-ups"});
      out.push_back(mib_per_cpu_s(r, cpu));
      out.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", "getrusage"});
    } else {
      // Half the time untraced, half traced; the layer numbers come from
      // the traced half only.
      double c0 = cpu_s();
      const PhaseResult plain = w->run(seconds / 2, nullptr);
      const double plain_cpu = cpu_s() - c0;
      const Sources src = w->sources();
      const Counters before = take_counters(src);
      reset_gauges();
      c0 = cpu_s();
      PhaseResult traced = w->run(seconds / 2, &tracer);
      const double traced_cpu = cpu_s() - c0;
      const Counters d = diff(before, take_counters(src));
      const Gauges g = read_gauges();
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      w->traced_extras(traced.layer);
      const std::vector<Span> spans = tracer.spans();
      out = layer_metrics(d, g, traced, spans);
      out.push_back({"gf.mul_acc_gib_per_s",
                     gf_mul_acc_gib_per_s(w->chunk_bytes()), "GiB/s",
                     "chunk=" + std::to_string(w->chunk_bytes())});
      out.push_back({"setup.ingest_s", median(ingest_s), "s", ""});
      out.push_back({"setup.warm_s", median(warm_s), "s", ""});
      out.push_back({"setup.wall_s", median(setup_wall_s), "s", ""});
      // Wall-clock figures of the untraced half, and the tracing cost:
      // each figure and the CPU-time metric, traced ÷ untraced.
      std::vector<Metric> a = wall_metrics(plain, kWindows / 2);
      std::vector<Metric> b = wall_metrics(traced, kWindows / 2);
      for (const Metric& m : a)
        out.push_back({"wall." + m.name, m.value, m.unit, m.note});
      a.push_back(mib_per_cpu_s(plain, plain_cpu));
      b.push_back(mib_per_cpu_s(traced, traced_cpu));
      for (size_t i = 0; i < a.size(); ++i)
        out.push_back({"trace.overhead." + a[i].name,
                       ratio(b[i].value, a[i].value), "ratio",
                       "traced÷untraced"});
      const double cost = ratio(a.back().value, b.back().value);
      out.push_back({"trace.overhead_frac", cost > 0 ? cost - 1 : 0, "frac",
                     "CPU per MiB traced÷untraced − 1"});
      if (args.count("trace-out")) {
        std::ofstream f(args["trace-out"]);
        f << spans_json(spans);
        if (!f) throw std::runtime_error("cannot write " + args["trace-out"]);
      }
    }
    print_result(true, std::max<uint64_t>(attempted, 1), failed, out);
    return 0;
  } catch (const WrongBytes& e) {
    std::fprintf(stderr, "perfbench: WRONG BYTES: %s\n", e.what());
    print_result(false, std::max<uint64_t>(attempted, 1), failed, {});
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
