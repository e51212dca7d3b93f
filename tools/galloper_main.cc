// The `galloper` command-line tool: encode/decode/repair/inspect coded
// archives on the local filesystem.
//
//   galloper encode --k=4 --l=2 --g=1 [--perf=1,0.4,...] <file> <dir>
//   galloper decode <dir> <output-file>
//   galloper repair <dir> --block=N
//   galloper inspect <dir>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <memory>

#include "cli/archive.h"
#include "client/load_gen.h"
#include "client/striped.h"
#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "cluster/repair_queue.h"
#include "codes/pyramid.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "fault/soak.h"
#include "mr/grep.h"
#include "mr/store_runner.h"
#include "mr/terasort.h"
#include "mr/wordcount.h"
#include "rt/pool.h"
#include "sim/cluster.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  galloper encode --k=K --l=L --g=G [--perf=p0,p1,...]\n"
      "                  [--resolution=R] [--chunk=BYTES]\n"
      "                  <input-file> <archive-dir>\n"
      "  galloper decode <archive-dir> <output-file>\n"
      "  galloper repair <archive-dir> --block=N\n"
      "  galloper inspect <archive-dir>\n"
      "  galloper verify <archive-dir>\n"
      "  galloper update <archive-dir> <bytes-file> --offset=N\n"
      "          (offset and size must be chunk-aligned; see inspect)\n"
      "  galloper soak [--seed=S] [--ops=N] [--seconds=T] [--files=F]\n"
      "                [--k=K --l=L --g=G]\n"
      "          (randomized fault-injection soak: kill/corrupt/read/\n"
      "          update/repair against an in-memory store, asserting every\n"
      "          read is bit-identical; deterministic per seed)\n"
      "  galloper loadgen [--clients=N] [--ops=N] [--files=F] [--seed=S]\n"
      "                   [--k=K --l=L --g=G] [--chunk=BYTES] [--batch=C]\n"
      "                   [--zipf=THETA] [--updates=FRAC] [--degraded]\n"
      "                   [--corruptions=N] [--serial] [--cache=MiB]\n"
      "                   [--admit=N]\n"
      "          (closed-loop multi-client load over the striped client\n"
      "          against an in-memory store: every read verified\n"
      "          against a mirror; reports throughput and p50/p99/p99.9;\n"
      "          --serial uses direct reads of --batch chunks each for\n"
      "          comparison,\n"
      "          --degraded adds injected stalls, --corruptions flips\n"
      "          bytes mid-run to exercise fallback + auto-repair;\n"
      "          --cache pins a private block cache in MiB (0 = off),\n"
      "          --admit pins a private admission-gate limit)\n"
      "  galloper cluster [--rolls=N] [--files=F] [--readers=R] [--seed=S]\n"
      "                   [--k=K --l=L --g=G] [--chunk=BYTES] [--workers=W]\n"
      "                   [--throttle=MBps]\n"
      "          (multi-node rolling-restart soak: a coordinator places\n"
      "          blocks one-per-node, then kills and restarts every hosting\n"
      "          node N times in sequence — waiting for the prioritized\n"
      "          background repair queue to drain between steps — while R\n"
      "          reader threads stream ranges through the pipelined client\n"
      "          and verify every byte against a mirror; --throttle caps\n"
      "          each node's repair bandwidth, --workers sizes the repair\n"
      "          worker pool; exits non-zero on any wrong byte or a queue\n"
      "          that fails to drain)\n"
      "  galloper mr --job=wordcount|terasort|grep [--mb=MB]\n"
      "              [--k=K --l=L --g=G] [--split=BYTES] [--threads=N]\n"
      "              [--reducers=R] [--seed=S] [--pyramid] [--degraded]\n"
      "              [--needle=STR]\n"
      "          (store-backed parallel MapReduce: generates ~MB of input,\n"
      "          encodes it into an in-memory store, runs the job with map\n"
      "          tasks reading original-data splits from all k+l+g blocks\n"
      "          — only the k data blocks with --pyramid — and checks the\n"
      "          output bit-identical to a plain single-split run; --split\n"
      "          caps the map split size (rounded down to whole chunks),\n"
      "          --degraded fails server 0 first so its splits fall back\n"
      "          to degraded decode)\n"
      "\n"
      "  encode/decode/repair stream segment by segment through bounded\n"
      "  read/codec/write queues, so memory stays O(segment) for any file\n"
      "  size. --chunk sets the per-stripe segment chunk on encode\n"
      "  (default 256 KiB; files fitting one segment use the v1 layout).\n"
      "  encode/decode/repair/update accept --threads=N (default: CPU\n"
      "  count, or GALLOPER_THREADS); results are identical for any N.\n"
      "  any command accepts --stats to print plan-cache, batched-executor,\n"
      "  buffer-pool, and plan-vs-execute timing counters on exit (cache\n"
      "  sized/disabled via GALLOPER_PLAN_CACHE=off|<entries>, default\n"
      "  1024; pool disabled via GALLOPER_BUFFER_POOL=off).\n"
      "  unknown --flags are an error (exit 2). archive commands sweep\n"
      "  orphaned *.tmp staging files (crash debris) from the archive dir\n"
      "  before running.\n"
      "\n"
      "exit codes: 0 ok, 1 failure, 2 usage, 3 CRC mismatch (corrupt\n"
      "data), 4 persistent transient read faults\n");
  return 2;
}

// The full flag vocabulary across every subcommand: a typo like --thread=8
// or --Seed=1 dies with exit 2 instead of silently running with defaults.
const std::set<std::string> kKnownFlags = {
    "k",     "l",       "g",    "perf",    "resolution", "chunk",
    "block", "offset",  "threads", "stats", "seed",      "ops",
    "seconds", "files", "clients", "zipf",  "updates",   "degraded",
    "serial", "batch",  "corruptions", "cache", "admit",
    "job",   "mb",      "split", "reducers", "pyramid",  "needle",
    "rolls", "readers", "throttle", "workers",
};

// Removes crash debris (orphaned .tmp staging files) before operating on an
// archive directory. Quiet when there is nothing to do.
void sweep_archive_dir(const std::string& dir) {
  const auto removed = galloper::cli::recover_archive_dir(dir);
  if (!removed.empty())
    std::fprintf(stderr,
                 "recovered %s: removed %zu orphaned .tmp staging file(s)\n",
                 dir.c_str(), removed.size());
}

// --threads=N; defaults to the pool's size (GALLOPER_THREADS env or the
// hardware thread count).
size_t threads_flag(const galloper::Flags& flags) {
  const int64_t n = flags.get_int(
      "threads",
      static_cast<int64_t>(galloper::rt::ThreadPool::default_threads()));
  GALLOPER_CHECK_MSG(n >= 1, "--threads must be >= 1");
  return static_cast<size_t>(n);
}

int run(const galloper::Flags& flags);

}  // namespace

int main(int argc, char** argv) {
  using galloper::Flags;
  namespace cli = galloper::cli;
  try {
    Flags flags(argc, argv,
                /*boolean_flags=*/{"stats", "degraded", "serial", "pyramid"});
    try {
      flags.restrict_to(kKnownFlags);
    } catch (const galloper::CheckError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return usage();
    }
    const int rc = run(flags);
    // --stats: plan-cache hit rate + per-path plan/execute timing, after
    // the command's own output so scripts can keep parsing stdout.
    if (flags.has("stats"))
      std::fputs(cli::format_plan_stats().c_str(), stdout);
    return rc;
  } catch (const cli::CrcMismatchError& e) {
    // Distinct exit code: the input data itself is rotten (a repair's
    // helpers fail the manifest CRC) — retrying cannot help, re-verify.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const galloper::fault::TransientError& e) {
    // Reads kept failing past the retry budget — worth retrying later.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

namespace {

int run(const galloper::Flags& flags) {
  namespace cli = galloper::cli;
  {
    const auto& pos = flags.positional();
    if (pos.empty()) return usage();
    const std::string& command = pos[0];

    if (command == "encode") {
      if (pos.size() != 3) return usage();
      const auto m = cli::encode_archive(
          pos[1], pos[2], flags.get_size("k", 4), flags.get_size("l", 2),
          flags.get_size("g", 1), flags.get_doubles("perf"),
          flags.get_int("resolution", 12), threads_flag(flags),
          flags.get_size("chunk", 0));
      std::printf("encoded %zu bytes into %zu blocks of %zu bytes in %s\n",
                  m.original_bytes, m.k + m.l + m.g, m.block_bytes,
                  pos[2].c_str());
      return 0;
    }
    if (command == "soak") {
      if (pos.size() != 1) return usage();
      // Flag fallbacks defer to the SoakOptions defaults (notably g = 2:
      // the harness wants slack beyond the erasures it schedules).
      galloper::fault::SoakOptions opt;
      opt.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
      opt.ops = flags.get_size("ops", opt.ops);
      opt.files = flags.get_size("files", opt.files);
      opt.k = flags.get_size("k", opt.k);
      opt.l = flags.get_size("l", opt.l);
      opt.g = flags.get_size("g", opt.g);
      opt.verbose = true;
      const double seconds = flags.get_double("seconds", 0);
      // --seconds: repeat --ops-sized rounds on derived seeds until the
      // wall-clock budget is spent. Each round stays deterministic (its
      // seed is printed); only the number of rounds depends on timing.
      const auto start = std::chrono::steady_clock::now();
      size_t round = 0;
      do {
        opt.seed = static_cast<uint64_t>(flags.get_int("seed", 1)) + round++;
        galloper::fault::run_soak(opt);
      } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count() < seconds);
      std::printf("soak passed: %zu round(s), every read bit-identical\n",
                  round);
      return 0;
    }
    if (command == "loadgen") {
      if (pos.size() != 1) return usage();
      galloper::client::LoadGenOptions opt;
      opt.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
      opt.clients = flags.get_size("clients", opt.clients);
      opt.ops_per_client = flags.get_size("ops", opt.ops_per_client);
      opt.files = flags.get_size("files", opt.files);
      opt.k = flags.get_size("k", opt.k);
      opt.l = flags.get_size("l", opt.l);
      opt.g = flags.get_size("g", opt.g);
      opt.chunk_bytes = flags.get_size("chunk", opt.chunk_bytes);
      opt.batch_chunks = flags.get_size("batch", opt.batch_chunks);
      opt.zipf_theta = flags.get_double("zipf", 0);
      opt.update_fraction = flags.get_double("updates", 0);
      opt.degraded = flags.has("degraded");
      opt.corruptions = flags.get_size("corruptions", 0);
      opt.pipelined = !flags.has("serial");
      // --cache=MiB pins a private block cache (0 = off); default -1
      // shares the process-wide GALLOPER_CLIENT_CACHE one. --admit=N pins
      // a private admission gate.
      opt.cache_mib = static_cast<int>(flags.get_int("cache", -1));
      opt.admit_limit = flags.get_size("admit", 0);
      const auto result = galloper::client::run_load(opt);
      std::printf("%s\n", galloper::client::format_result(result).c_str());
      return result.bit_identical ? 0 : 3;
    }
    if (command == "cluster") {
      if (pos.size() != 1) return usage();
      namespace cluster = galloper::cluster;
      const size_t k = flags.get_size("k", 4);
      const size_t l = flags.get_size("l", 2);
      const size_t g = flags.get_size("g", 1);
      const size_t rolls = flags.get_size("rolls", 1);
      const size_t num_files = flags.get_size("files", 3);
      const size_t num_readers = flags.get_size("readers", 3);
      const size_t chunk_bytes = flags.get_size("chunk", 4096);
      const double throttle_mbps = flags.get_double("throttle", 0);
      GALLOPER_CHECK_MSG(rolls >= 1 && num_files >= 1 && chunk_bytes >= 1,
                         "--rolls/--files/--chunk must be >= 1");

      galloper::core::GalloperCode code(k, l, g);
      galloper::sim::Simulation sim;
      galloper::sim::Cluster sim_cluster(sim, code.num_blocks() + 2,
                                         galloper::sim::ServerSpec{});
      galloper::store::FileStore fs(sim_cluster, code);
      cluster::CoordinatorOptions copt;
      copt.repair_workers = flags.get_size("workers", 2);
      copt.repair_bytes_per_s = throttle_mbps * 1e6;
      cluster::Coordinator coord(fs, copt);

      galloper::Rng rng(static_cast<uint64_t>(flags.get_int("seed", 1)));
      std::vector<galloper::Buffer> files;
      std::vector<galloper::store::FileId> ids;
      for (size_t i = 0; i < num_files; ++i) {
        files.push_back(galloper::random_buffer(
            code.engine().num_chunks() * chunk_bytes, rng));
        ids.push_back(fs.write(galloper::ConstByteSpan(files.back())));
      }

      std::atomic<bool> stop{false};
      std::atomic<uint64_t> reads{0}, mismatches{0}, unavailable{0};
      std::vector<std::thread> readers;
      for (size_t t = 0; t < num_readers; ++t) {
        readers.emplace_back([&, t] {
          galloper::client::StripedReader reader(fs);
          galloper::Rng trng(0x600d + t);
          while (!stop.load(std::memory_order_relaxed)) {
            const size_t i = trng.next_below(num_files);
            const size_t len = files[i].size();
            const size_t off = trng.next_below(len / 2);
            const size_t n = 1 + trng.next_below(len - off);
            const auto out = reader.read_range(ids[i], off, n);
            reads.fetch_add(1, std::memory_order_relaxed);
            if (!out.has_value()) {
              unavailable.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (!std::equal(out->begin(), out->end(),
                            files[i].begin() + off))
              mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }

      bool drained = true;
      const auto placement = fs.placement();
      for (size_t round = 0; round < rolls; ++round) {
        for (size_t srv : placement) {
          coord.fail_node(srv);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          coord.restart_node(srv);
          drained = coord.repair_queue().drain(300.0) && drained;
        }
      }
      stop.store(true);
      for (auto& t : readers) t.join();

      bool final_ok = true;
      for (size_t i = 0; i < num_files; ++i) {
        const auto back = fs.read(ids[i]);
        if (!back.has_value() || *back != files[i]) final_ok = false;
      }
      const auto qstats = coord.repair_queue().stats();
      std::printf(
          "rolled %zu node(s) x %zu round(s) over %zu file(s) "
          "(%zu+%zu+%zu, chunk %zu):\n"
          "  %llu concurrent reads (%llu transient-unavailable), "
          "%llu mismatches\n"
          "  repair queue: %zu completed, %zu requeued, %zu dropped-stale, "
          "%zu dropped-dead, drained %s\n"
          "  final reads %s\n",
          placement.size(), rolls, num_files, k, l, g, chunk_bytes,
          static_cast<unsigned long long>(reads.load()),
          static_cast<unsigned long long>(unavailable.load()),
          static_cast<unsigned long long>(mismatches.load()),
          qstats.completed, qstats.requeued, qstats.dropped_stale,
          qstats.dropped_dead, drained ? "yes" : "NO",
          final_ok ? "bit-identical" : "MISMATCH");
      if (mismatches.load() != 0 || !final_ok) return 3;
      return drained ? 0 : 1;
    }
    if (command == "mr") {
      if (pos.size() != 1) return usage();
      namespace mr = galloper::mr;
      const std::string job = flags.get_or("job", "wordcount");
      const size_t k = flags.get_size("k", 4);
      const size_t l = flags.get_size("l", 2);
      const size_t g = flags.get_size("g", 1);
      const double mb = flags.get_double("mb", 8);
      GALLOPER_CHECK_MSG(mb > 0, "--mb must be positive");

      std::unique_ptr<galloper::codes::ErasureCode> code;
      if (flags.has("pyramid"))
        code = std::make_unique<galloper::codes::PyramidCode>(k, l, g);
      else
        code = std::make_unique<galloper::core::GalloperCode>(k, l, g);

      // Chunk = a whole number of 200-byte record groups (200 divides into
      // both the 50-byte wordcount and 100-byte terasort records), so no
      // split boundary ever tears a record.
      const size_t chunks = code->engine().num_chunks();
      constexpr size_t kRecordLcm = 200;
      const size_t per_chunk = std::max<size_t>(
          1, static_cast<size_t>(mb * 1e6) / chunks / kRecordLcm);
      const size_t chunk_bytes = per_chunk * kRecordLcm;
      const size_t file_bytes = chunks * chunk_bytes;

      galloper::Rng rng(static_cast<uint64_t>(flags.get_int("seed", 1)));
      const std::string needle = flags.get_or("needle", "zqzq");
      galloper::Buffer file;
      std::unique_ptr<mr::Mapper> mapper;
      std::unique_ptr<mr::Reducer> reducer;
      if (job == "wordcount") {
        file = mr::generate_text(file_bytes, rng);
        mapper = std::make_unique<mr::WordCountMapper>();
        reducer = std::make_unique<mr::WordCountReducer>();
      } else if (job == "terasort") {
        file = mr::generate_records(file_bytes, rng);
        mapper = std::make_unique<mr::TeraSortMapper>();
        reducer = std::make_unique<mr::TeraSortReducer>();
      } else if (job == "grep") {
        file = mr::generate_grep_corpus(file_bytes, chunk_bytes, needle, rng);
        mapper = std::make_unique<mr::GrepMapper>(needle);
        reducer = std::make_unique<mr::GrepReducer>();
      } else {
        return usage();
      }

      galloper::sim::Simulation sim;
      galloper::sim::Cluster cluster(sim, code->num_blocks() + 2,
                                     galloper::sim::ServerSpec{});
      galloper::store::FileStore fs(cluster, *code);
      const galloper::store::FileId id = fs.write(file);
      if (flags.has("degraded")) fs.fail_server(0);

      mr::StoreRunnerOptions opt;
      opt.threads = threads_flag(flags);
      opt.reduce_tasks = flags.get_size("reducers", 0);
      // Split cap rounded down to whole chunks, so every map boundary
      // stays chunk- (hence record-) aligned. Default: ~4 tasks per block
      // — several tasks per map slot without tiny splits.
      const int64_t split = flags.get_int(
          "split",
          static_cast<int64_t>(std::max<size_t>(
              chunk_bytes, file_bytes / (4 * code->num_blocks()))));
      GALLOPER_CHECK_MSG(split >= 1, "--split must be >= 1");
      opt.max_split_bytes =
          std::max(chunk_bytes,
                   static_cast<size_t>(split) / chunk_bytes * chunk_bytes);
      mr::StoreRunner runner(*mapper, *reducer, opt);
      const mr::StoreJobReport report = runner.run_report(fs, id);

      const mr::LocalRunner oracle(*mapper, *reducer);
      const bool identical = report.output == oracle.run_plain(file);
      std::printf(
          "%s over %zu bytes (%s %zu+%zu+%zu, %zu map slots): %zu splits "
          "(%zu degraded), %.1f MB original / %.1f MB decoded\n"
          "  map %.1f ms, shuffle %.1f ms, reduce %.1f ms, %zu output "
          "records, %s\n",
          job.c_str(), file_bytes, flags.has("pyramid") ? "pyramid" : "galloper",
          k, l, g, opt.threads, report.splits, report.degraded_splits,
          static_cast<double>(report.bytes_original) * 1e-6,
          static_cast<double>(report.bytes_decoded) * 1e-6,
          static_cast<double>(report.map_ns) * 1e-6,
          static_cast<double>(report.shuffle_ns) * 1e-6,
          static_cast<double>(report.reduce_ns) * 1e-6, report.output.size(),
          identical ? "bit-identical to plain run" : "OUTPUT MISMATCH");
      return identical ? 0 : 3;
    }
    if (command == "decode") {
      if (pos.size() != 3) return usage();
      sweep_archive_dir(pos[1]);
      // Streaming: decoded segments flow straight to the output file, so
      // the decode never holds the whole file in memory.
      if (!cli::decode_archive_to(pos[1], pos[2], threads_flag(flags))) {
        std::fprintf(stderr, "decode failed: not enough blocks present\n");
        return 1;
      }
      std::printf("decoded %zu bytes to %s\n",
                  cli::read_manifest(pos[1]).original_bytes, pos[2].c_str());
      return 0;
    }
    if (command == "repair") {
      if (pos.size() != 2 || !flags.has("block")) return usage();
      sweep_archive_dir(pos[1]);
      const size_t block = flags.get_size("block", 0);
      const auto helpers =
          cli::repair_archive(pos[1], block, threads_flag(flags));
      if (!helpers) {
        std::fprintf(stderr, "repair failed: insufficient blocks present\n");
        return 1;
      }
      std::printf("repaired block %zu reading blocks:", block);
      for (size_t h : *helpers) std::printf(" %zu", h);
      std::printf("\n");
      return 0;
    }
    if (command == "inspect") {
      if (pos.size() != 2) return usage();
      std::fputs(cli::describe_archive(pos[1]).c_str(), stdout);
      return 0;
    }
    if (command == "update") {
      if (pos.size() != 3 || !flags.has("offset")) return usage();
      sweep_archive_dir(pos[1]);
      std::ifstream in(pos[2], std::ios::binary);
      if (!in.good()) {
        std::fprintf(stderr, "cannot open %s\n", pos[2].c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string bytes = ss.str();
      const auto touched = cli::update_archive(
          pos[1], flags.get_size("offset", 0),
          galloper::ConstByteSpan(
              reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()),
          threads_flag(flags));
      std::printf("updated %zu bytes; rewrote blocks:", bytes.size());
      for (size_t b : touched) std::printf(" %zu", b);
      std::printf("\n");
      return 0;
    }
    if (command == "verify") {
      if (pos.size() != 2) return usage();
      sweep_archive_dir(pos[1]);
      const auto report = cli::verify_archive(pos[1]);
      if (report.clean()) {
        std::printf("all blocks present and CRC-clean\n");
        return 0;
      }
      for (size_t b : report.missing) std::printf("block %zu: MISSING\n", b);
      for (size_t b : report.corrupt) std::printf("block %zu: CORRUPT\n", b);
      std::printf("file %s recoverable from the clean blocks\n",
                  report.decodable ? "IS" : "is NOT");
      return report.decodable ? 1 : 2;
    }
    return usage();
  }
}

}  // namespace
