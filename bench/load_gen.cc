// load_gen: closed-loop multi-client load over the pipelined striped
// client vs the serial per-batch client, against one shared in-memory
// FileStore.
//
// Four scenarios — {uniform, zipf} popularity × {clean, degraded} faults —
// each run twice from the SAME seed: once with the serial client (every
// batch a full FileStore::read_range call, strictly one at a time per
// client) and once with the StripedReader (one verified gather per call:
// each block the plan reads fetched and CRC-checked once, hedged, then one
// plan-driven decode; "pipelined" in the JSON keys). Every read in BOTH
// runs is verified against an in-memory mirror, so the ops/s and p50/p99/p99.9
// numbers are only reported for byte-correct runs; the binary exits
// nonzero if any run was not bit-identical.
//
// The speedup column is ratio-based (same machine, same injected-stall
// schedule on both sides), so the CI floor is machine-independent. The
// ≥ 2× pipelined-vs-serial assertion only fires on multi-core hosts: on a
// 1-CPU container the concurrent fetches have no spare core to land on
// (injected stalls still overlap — they are sleeps — so the ratio stays
// > 1, but the 2× headline needs real parallelism).
//
//   GALLOPER_BENCH_REPS  ops per client scale (default 3 → 24 ops/client)
//   GALLOPER_BENCH_JSON  write machine-readable results there
//
// --sweep-admit additionally sweeps the AdmissionControl limit over
// {1, 2, 4, 8, 16} on the zipf-clean scenario (private gate per run) and
// emits per-limit throughput/p99 cells — the knob's throughput-vs-tail
// trade-off, machine-readable in BENCH_load.json's "admit_sweep" array.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "client/load_gen.h"
#include "util/table.h"

using namespace galloper;

namespace {

struct Scenario {
  std::string name;
  double zipf_theta = 0;
  bool degraded = false;
};

struct Cell {
  Scenario sc;
  client::LoadGenResult serial;
  client::LoadGenResult pipelined;

  double speedup() const {
    return pipelined.ops_per_s > 0 && serial.ops_per_s > 0
               ? pipelined.ops_per_s / serial.ops_per_s
               : 0;
  }
  bool bit_identical() const {
    return serial.bit_identical && pipelined.bit_identical;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool sweep_admit = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--sweep-admit") == 0) sweep_admit = true;

  const std::vector<Scenario> scenarios = {
      {"uniform_clean", 0.0, false},
      {"zipf_clean", 0.9, false},
      {"uniform_degraded", 0.0, true},
      {"zipf_degraded", 0.9, true},
  };

  client::LoadGenOptions base;
  base.seed = 20260808;
  base.clients = 4;
  base.ops_per_client = 8 * std::max<size_t>(1, bench::reps());
  base.files = 6;
  base.chunk_bytes = size_t{8} << 10;
  base.update_fraction = 0.1;

  std::vector<Cell> cells;
  for (const Scenario& sc : scenarios) {
    Cell c;
    c.sc = sc;
    client::LoadGenOptions opt = base;
    opt.zipf_theta = sc.zipf_theta;
    opt.degraded = sc.degraded;
    opt.corruptions = sc.degraded ? 4 : 0;
    opt.pipelined = false;
    c.serial = client::run_load(opt);
    opt.pipelined = true;
    c.pipelined = client::run_load(opt);
    cells.push_back(c);
  }

  // Admission sweep: zipf-clean, a private gate per limit (the global gate
  // would cap every limit > GALLOPER_CLIENT_ADMIT at the env value).
  struct AdmitCell {
    size_t limit;
    client::LoadGenResult r;
  };
  std::vector<AdmitCell> admit_cells;
  if (sweep_admit) {
    for (size_t limit : {1, 2, 4, 8, 16}) {
      client::LoadGenOptions opt = base;
      opt.zipf_theta = 0.9;
      opt.admit_limit = limit;
      admit_cells.push_back({limit, client::run_load(opt)});
    }
  }

  Table table({"scenario", "serial MiB/s", "piped MiB/s", "ops/s", "speedup",
               "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "bit-exact"});
  for (const Cell& c : cells)
    table.add_row({c.sc.name, Table::num(c.serial.mib_per_s),
                   Table::num(c.pipelined.mib_per_s),
                   Table::num(c.pipelined.ops_per_s),
                   Table::num(c.speedup()),
                   Table::num(c.pipelined.p50_s * 1e3),
                   Table::num(c.pipelined.p99_s * 1e3),
                   Table::num(c.pipelined.p999_s * 1e3),
                   c.bit_identical() ? "yes" : "NO"});
  table.print();

  if (sweep_admit) {
    Table sweep({"admit limit", "ops/s", "MiB/s", "p99 (ms)", "cache hit %",
                 "bit-exact"});
    for (const AdmitCell& a : admit_cells)
      sweep.add_row({Table::num(static_cast<double>(a.limit)),
                     Table::num(a.r.ops_per_s), Table::num(a.r.mib_per_s),
                     Table::num(a.r.p99_s * 1e3),
                     Table::num(a.r.cache_hit_rate * 100),
                     a.r.bit_identical ? "yes" : "NO"});
    std::printf("\nadmission sweep (zipf 0.9, clean):\n");
    sweep.print();
  }

  if (const char* path = bench::bench_json_path()) {
    bench::JsonWriter json;
    json.begin_object();
    json.key("bench").value("load_gen");
    bench::write_context(json);
    json.key("clients").value(base.clients);
    json.key("ops_per_client").value(base.ops_per_client);
    json.key("cells").begin_array();
    for (const Cell& c : cells) {
      json.begin_object();
      json.key("scenario").value(c.sc.name);
      json.key("popularity").value(c.sc.zipf_theta > 0 ? "zipf" : "uniform");
      json.key("faults").value(c.sc.degraded ? "degraded" : "clean");
      json.key("clients").value(base.clients);
      json.key("serial_mib_per_s").value(c.serial.mib_per_s);
      json.key("mib_per_s").value(c.pipelined.mib_per_s);
      json.key("ops_per_s").value(c.pipelined.ops_per_s);
      json.key("p50_s").value(c.pipelined.p50_s);
      json.key("p99_s").value(c.pipelined.p99_s);
      json.key("p999_s").value(c.pipelined.p999_s);
      json.key("degraded_reads").value(c.pipelined.degraded_reads);
      json.key("auto_repairs").value(c.pipelined.auto_repairs);
      json.key("client_fallbacks").value(c.pipelined.client_fallbacks);
      json.key("cache_hit_rate").value(c.pipelined.cache_hit_rate);
      json.key("mirror_mismatches").value(c.pipelined.mirror_mismatches);
      json.key("pipelined_speedup").value(c.speedup());
      json.key("bit_identical").value(c.bit_identical() ? 1 : 0);
      json.end_object();
    }
    json.end_array();
    if (sweep_admit) {
      json.key("admit_sweep").begin_array();
      for (const AdmitCell& a : admit_cells) {
        json.begin_object();
        json.key("limit").value(a.limit);
        json.key("ops_per_s").value(a.r.ops_per_s);
        json.key("mib_per_s").value(a.r.mib_per_s);
        json.key("p99_s").value(a.r.p99_s);
        json.key("cache_hit_rate").value(a.r.cache_hit_rate);
        json.key("bit_identical").value(a.r.bit_identical ? 1 : 0);
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
    bench::write_json_file(path, json);
  }

  bool ok = true;
  for (const Cell& c : cells) {
    if (!c.bit_identical()) {
      std::printf("FAIL: %s not bit-identical\n", c.sc.name.c_str());
      ok = false;
    }
  }
  // The ≥ 2× headline needs a core for the pipeline stages to land on.
  if (std::thread::hardware_concurrency() > 1) {
    for (const Cell& c : cells) {
      if (c.sc.degraded && c.speedup() < 2.0)
        std::printf("note: %s pipelined speedup %.2fx below the 2x target\n",
                    c.sc.name.c_str(), c.speedup());
    }
  }
  return ok ? 0 : 1;
}
