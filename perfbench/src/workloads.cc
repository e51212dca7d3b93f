#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "client/striped.h"
#include "cluster/coordinator.h"
#include "codes/pyramid.h"
#include "core/galloper.h"
#include "mr/framework.h"
#include "mr/store_runner.h"
#include "mr/terasort.h"
#include "mr/wordcount.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

using namespace galloper;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kMiB = 1 << 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Pseudo-random file content addressable by (key, offset), so the oracle of
// a large data set needs no in-memory mirror: any range can be regenerated.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void fill_content(uint64_t key, size_t off, uint8_t* dst, size_t n) {
  const uint64_t k = mix64(key);
  for (size_t i = 0; i < n;) {
    const size_t p = off + i;
    const uint64_t word = mix64(k ^ (p >> 3));
    size_t lane = p & 7;
    for (; lane < 8 && i < n; ++lane, ++i)
      dst[i] = static_cast<uint8_t>(word >> (8 * lane));
  }
}

// Content key of file f of the data set a seed generates.
uint64_t file_key(uint64_t seed, size_t f) { return seed * 1000 + f; }

Buffer content(uint64_t key, size_t n) {
  Buffer out(n, 0);
  fill_content(key, 0, out.data(), n);
  return out;
}

void check_content(uint64_t key, size_t off, ConstByteSpan got,
                   const char* what) {
  thread_local Buffer expect;
  expect.resize(got.size());
  fill_content(key, off, expect.data(), got.size());
  if (std::memcmp(expect.data(), got.data(), got.size()) != 0)
    throw WrongBytes(std::string(what) + ": delivered bytes differ from the "
                     "written content");
}

// Zipf(theta) popularity over n items by inverting a precomputed CDF.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double theta) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += std::pow(1.0 / static_cast<double>(i + 1), theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t pick(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(),
                                     rng.next_double());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Traffic shape: the defaults of the repository's closed-loop load
// generator (`galloper loadgen`, src/client/load_gen.{h,cc}), on which
// `galloper loadgen --cache=0 --stats` shows a clean read fetching about
// 8.9× the bytes it returns. Chunks are 8 KiB, so a (4,2,1) file is 28
// chunks = 224 KiB in 7 blocks of 56 KiB; a read starts at a uniform offset
// and runs 1 B up to the end of the file; an update rewrites one whole
// chunk. cold_mixed's new-file writes are one file of this size.
constexpr size_t kChunk = 8 << 10;

struct ReadRange {
  size_t offset, length;
};
ReadRange draw_read(Rng& rng, size_t file_size) {
  const size_t off = rng.next_below(file_size);
  return {off, 1 + rng.next_below(file_size - off)};
}

// One simulated cluster and the store on it. Extra servers beyond the
// code's blocks are spares (cluster::Coordinator uses them).
struct StoreEnv {
  StoreEnv(const codes::ErasureCode& code, size_t servers)
      : cluster(sim, servers, sim::ServerSpec{}), store(cluster, code) {}
  sim::Simulation sim;
  sim::Cluster cluster;
  store::FileStore store;
};

// Appends the op that started at t0 and has just completed.
void record_op(std::vector<OpRecord>& ops, Clock::time_point start,
               Clock::time_point t0, uint64_t bytes, bool side,
               bool counted = true) {
  const auto now = Clock::now();
  ops.push_back({std::chrono::duration<double>(now - start).count(),
                 std::chrono::duration<double, std::milli>(now - t0).count(),
                 bytes, side, counted});
}

// Per-thread op records, merged into the phase result when a thread ends.
struct ThreadResult {
  std::vector<OpRecord> ops;
  uint64_t attempted = 0, failed = 0, reads = 0, bytes_delivered = 0;

  void merge_into(PhaseResult& r) const {
    r.ops.insert(r.ops.end(), ops.begin(), ops.end());
    r.attempted += attempted;
    r.failed += failed;
    r.reads += reads;
    r.bytes_delivered += bytes_delivered;
  }
};

// Runs body(thread_index, result) on `threads` load threads, joins them all
// (also when one throws), merges their records and rethrows the first error.
template <typename Body>
void run_load_threads(size_t threads, PhaseResult& r, Body body) {
  std::vector<ThreadResult> results(threads);
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        body(t, results[t]);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  for (auto& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  for (const auto& tr : results) tr.merge_into(r);
}

// Chunk-sized layout of the shipped (4,2,1) Galloper code: 28 chunks per
// file, 7 blocks of 7 chunk-sized stripes each.
const core::GalloperCode& galloper_code() {
  static const core::GalloperCode code(4, 2, 1);
  return code;
}

// Bytes of one file of the hot_read, cold_mixed and rebuild data sets.
size_t file_bytes() { return galloper_code().engine().num_chunks() * kChunk; }

// ---- hot_read ------------------------------------------------------------
//
// A ~32 MiB stored data set (half the 64 MiB block cache) read by 4 clients
// with Zipf(0.99) popularity over files; 10% of ops are chunk-aligned
// in-place updates, which bump block generations and so invalidate cached
// blocks.
class HotRead final : public Workload {
 public:
  // 84 files × 392 KiB stored ≈ 32.9 MiB.
  static constexpr size_t kFiles = 84;
  static constexpr size_t kClients = 4;

  explicit HotRead(uint64_t seed) : seed_(seed) {}

  size_t chunk_bytes() const override { return kChunk; }
  Sources sources() override { return {&env_->store, nullptr}; }
  void teardown() override { env_.reset(); }

  void setup(Tracer* tracer, double* ingest_s, double* warm_s) override {
    env_ = std::make_unique<StoreEnv>(galloper_code(), 9);
    mirror_.clear();
    file_mu_.clear();
    auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "setup.ingest");
      client::StripedWriter writer(env_->store);
      for (size_t f = 0; f < kFiles; ++f) {
        mirror_.push_back(content(file_key(seed_, f), file_bytes()));
        const store::FileId id = writer.write(ConstByteSpan(mirror_.back()));
        GALLOPER_CHECK(id == f);
        file_mu_.push_back(std::make_unique<std::shared_mutex>());
      }
    }
    *ingest_s = seconds_since(t0);
    t0 = Clock::now();
    {
      // Compile the update plans and fill the cache with every block.
      ScopedSpan span(tracer, "setup.warm");
      client::StripedReader reader(env_->store);
      for (size_t f = 0; f < kFiles; ++f) {
        env_->store.update_range(
            f, 0, ConstByteSpan(mirror_[f].data(), kChunk));
        for (int pass = 0; pass < 2; ++pass) {
          const auto got = reader.read_range(f, 0, file_bytes());
          GALLOPER_CHECK(got.has_value());
          if (!std::equal(got->begin(), got->end(), mirror_[f].begin()))
            throw WrongBytes("hot_read warm-up read differs from mirror");
        }
      }
    }
    *warm_s = seconds_since(t0);
  }

  PhaseResult run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    const size_t chunks = galloper_code().engine().num_chunks();
    const ZipfPicker picker(kFiles, 0.99);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Rng base(seed_ ^ (0x5eed0000ULL + phase_++));
    std::vector<Rng> rngs;
    for (size_t t = 0; t < kClients; ++t) rngs.push_back(base.fork());

    run_load_threads(kClients, r, [&](size_t t, ThreadResult& res) {
      Rng& rng = rngs[t];
      client::StripedReader reader(env_->store);
      Buffer data(kChunk, 0);
      while (Clock::now() < deadline) {
        const size_t f = picker.pick(rng);
        ++res.attempted;
        if (rng.next_double() < 0.1) {
          const size_t off = rng.next_below(chunks) * kChunk;
          rng.fill_bytes(data);
          std::unique_lock<std::shared_mutex> lock(*file_mu_[f]);
          ScopedSpan span(tracer, "op.update");
          const auto t0 = Clock::now();
          try {
            env_->store.update_range(f, off, ConstByteSpan(data));
          } catch (const CheckError&) {
            ++res.failed;
            continue;
          }
          record_op(res.ops, start, t0, kChunk, /*side=*/true);
          std::copy(data.begin(), data.end(), mirror_[f].begin() + off);
        } else {
          const auto [off, len] = draw_read(rng, file_bytes());
          std::shared_lock<std::shared_mutex> lock(*file_mu_[f]);
          std::optional<Buffer> got;
          {
            ScopedSpan span(tracer, "op.read");
            const auto t0 = Clock::now();
            got = reader.read_range(f, off, len);
            if (got) record_op(res.ops, start, t0, len, /*side=*/false);
          }
          if (!got) {
            ++res.failed;
            continue;
          }
          if (!std::equal(got->begin(), got->end(), mirror_[f].begin() + off))
            throw WrongBytes("hot_read read differs from mirror");
          ++res.reads;
          res.bytes_delivered += len;
        }
      }
    });
    r.wall_s = seconds_since(start);
    return r;
  }

 private:
  const uint64_t seed_;
  uint64_t phase_ = 0;
  std::unique_ptr<StoreEnv> env_;
  std::vector<Buffer> mirror_;
  std::vector<std::unique_ptr<std::shared_mutex>> file_mu_;
};

// ---- cold_mixed ----------------------------------------------------------
//
// A ~512 MiB stored data set (8× the block cache) with one of the seven
// servers dead for the whole timed phase; 4 clients do uniform range reads
// through StripedReader and 10% fixed-size new-file writes through
// StripedWriter. Written files land in a per-client write store of
// kWritesPerStore files; a full store goes to a WriteVerifier thread that
// reads every file back and drops the store, so memory stays bounded however
// fast writes get (FileStore has no delete) and the read-back is not part
// of any client's closed loop.
class WriteVerifier {
 public:
  struct Batch {
    std::unique_ptr<StoreEnv> env;
    std::vector<std::pair<store::FileId, uint64_t>> files;  // id, content key
  };

  WriteVerifier() : thread_([this] { loop(); }) {}
  ~WriteVerifier() { stop(); }

  // Blocks only while kMaxQueued batches wait, which bounds memory.
  void submit(Batch batch) {
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock, [&] { return queue_.size() < kMaxQueued; });
    queue_.push_back(std::move(batch));
    ready_.notify_one();
  }

  // Verifies what is still queued, ends the thread and rethrows the first
  // mismatch it found.
  void finish() {
    stop();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  static constexpr size_t kMaxQueued = 8;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      ready_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    for (;;) {
      Batch batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        batch = std::move(queue_.front());
        queue_.pop_front();
        space_.notify_one();
      }
      if (error_) continue;  // drop the rest after a mismatch
      try {
        for (const auto& [id, key] : batch.files) {
          const auto back = batch.env->store.read(id);
          if (!back) throw WrongBytes("cold_mixed written file unreadable");
          check_content(key, 0, ConstByteSpan(*back), "cold_mixed write");
        }
      } catch (...) {
        error_ = std::current_exception();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable ready_, space_;
  std::deque<Batch> queue_;
  bool done_ = false;
  std::exception_ptr error_;  // written and read by the verifier thread,
                              // read by finish() after the join
  std::thread thread_;
};

class ColdMixed final : public Workload {
 public:
  // 1338 files × 392 KiB stored ≈ 512 MiB.
  static constexpr size_t kFiles = 1338;
  static constexpr size_t kClients = 4;
  static constexpr size_t kWritesPerStore = 16;
  // The same server is dead on every seed: which block is lost sets how
  // much a degraded read decodes, so a seed-chosen victim would make the
  // figures differ by seed rather than by code.
  static constexpr size_t kDeadServer = 0;

  explicit ColdMixed(uint64_t seed) : seed_(seed) {}

  size_t chunk_bytes() const override { return kChunk; }
  Sources sources() override { return {&env_->store, nullptr}; }
  void teardown() override { env_.reset(); }

  void setup(Tracer* tracer, double* ingest_s, double* warm_s) override {
    env_ = std::make_unique<StoreEnv>(galloper_code(), 9);
    auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "setup.ingest");
      client::StripedWriter writer(env_->store);
      Buffer file(file_bytes(), 0);
      for (size_t f = 0; f < kFiles; ++f) {
        fill_content(file_key(seed_, f), 0, file.data(), file.size());
        const store::FileId id = writer.write(ConstByteSpan(file));
        GALLOPER_CHECK(id == f);
      }
      env_->store.fail_server(kDeadServer);
    }
    *ingest_s = seconds_since(t0);
    t0 = Clock::now();
    {
      // A read of every run of consecutive chunks (first, last) compiles
      // the decode plans around the dead server; one file write warms the
      // writer path.
      ScopedSpan span(tracer, "setup.warm");
      client::StripedReader reader(env_->store);
      const size_t chunks = galloper_code().engine().num_chunks();
      size_t f = 0;
      for (size_t first = 0; first < chunks; ++first) {
        for (size_t last = first; last < chunks; ++last) {
          f = (f + 7) % kFiles;
          const size_t off = first * kChunk + 1;
          const size_t len = (last + 1) * kChunk - 1 - off;
          const auto got = reader.read_range(f, off, len);
          GALLOPER_CHECK(got.has_value());
          check_content(file_key(seed_, f), off, ConstByteSpan(*got),
                        "cold_mixed warm-up read");
        }
      }
      StoreEnv wenv(galloper_code(), 9);
      client::StripedWriter writer(wenv.store);
      const Buffer data = content(~seed_, file_bytes());
      const store::FileId id = writer.write(ConstByteSpan(data));
      const auto back = wenv.store.read(id);
      if (!back || !std::equal(back->begin(), back->end(), data.begin()))
        throw WrongBytes("cold_mixed warm-up write did not read back");
    }
    *warm_s = seconds_since(t0);
  }

  PhaseResult run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const uint64_t phase = phase_++;
    Rng base(seed_ ^ (0xc01d0000ULL + phase));
    std::vector<Rng> rngs;
    for (size_t t = 0; t < kClients; ++t) rngs.push_back(base.fork());
    WriteVerifier verifier;

    run_load_threads(kClients, r, [&](size_t t, ThreadResult& res) {
      Rng& rng = rngs[t];
      client::StripedReader reader(env_->store);
      WriteVerifier::Batch batch;
      uint64_t write_seq = 0;
      Buffer data(file_bytes(), 0);
      while (Clock::now() < deadline) {
        ++res.attempted;
        if (rng.next_double() < 0.1) {
          if (!batch.env)
            batch.env = std::make_unique<StoreEnv>(galloper_code(), 9);
          const uint64_t k = ((seed_ * 31 + phase) * 8 + t) << 32 | write_seq++;
          fill_content(k, 0, data.data(), data.size());
          client::StripedWriter writer(batch.env->store);
          {
            ScopedSpan span(tracer, "op.write");
            const auto t0 = Clock::now();
            batch.files.emplace_back(writer.write(ConstByteSpan(data)), k);
            record_op(res.ops, start, t0, data.size(), /*side=*/true);
          }
          if (batch.files.size() == kWritesPerStore)
            verifier.submit(std::exchange(batch, {}));
        } else {
          const size_t f = rng.next_below(kFiles);
          const auto [off, len] = draw_read(rng, file_bytes());
          std::optional<Buffer> got;
          {
            ScopedSpan span(tracer, "op.read");
            const auto t0 = Clock::now();
            got = reader.read_range(f, off, len);
            if (got) record_op(res.ops, start, t0, len, /*side=*/false);
          }
          if (!got) {
            ++res.failed;
            continue;
          }
          check_content(file_key(seed_, f), off, ConstByteSpan(*got),
                        "cold_mixed read");
          ++res.reads;
          res.bytes_delivered += len;
        }
      }
      if (batch.env) verifier.submit(std::move(batch));
    });
    r.wall_s = seconds_since(start);
    verifier.finish();
    return r;
  }

 private:
  const uint64_t seed_;
  uint64_t phase_ = 0;
  std::unique_ptr<StoreEnv> env_;
};

// ---- analytics -----------------------------------------------------------
//
// mr::StoreRunner runs wordcount and terasort alternately over a
// store-resident corpus, one map slot per data-holding server (7). Every
// job's output is compared with LocalRunner::run_plain. Corpus, chunk and
// split cap are those of `galloper mr` run with its defaults (--mb=8): a
// chunk is the largest multiple of the 200-byte record group with 28 chunks
// in 8 MB, and a split is one chunk (the CLI's ~4 tasks per block).
class Analytics final : public Workload {
 public:
  static constexpr size_t kChunk = 8000000 / 28 / 200 * 200;  // 285 600 B
  static constexpr size_t kSlots = 7;

  explicit Analytics(uint64_t seed) : seed_(seed) {
    const size_t bytes = galloper_code().engine().num_chunks() * kChunk;
    Rng rng(seed);
    text_ = mr::generate_text(bytes, rng);
    records_ = mr::generate_records(bytes, rng);
    plain_wc_ = mr::LocalRunner(wc_map_, wc_red_).run_plain(text_);
    plain_ts_ = mr::LocalRunner(ts_map_, ts_red_).run_plain(records_);
  }

  size_t chunk_bytes() const override { return kChunk; }
  Sources sources() override { return {&env_->store, nullptr}; }
  void teardown() override { env_.reset(); }

  void setup(Tracer* tracer, double* ingest_s, double* warm_s) override {
    env_ = std::make_unique<StoreEnv>(galloper_code(), 9);
    auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "setup.ingest");
      client::StripedWriter writer(env_->store);
      text_id_ = writer.write(ConstByteSpan(text_));
      records_id_ = writer.write(ConstByteSpan(records_));
    }
    *ingest_s = seconds_since(t0);
    t0 = Clock::now();
    {
      // The first job of a process pays one-off costs; discard one of each.
      ScopedSpan span(tracer, "setup.warm");
      run_job(0, nullptr);
      run_job(1, nullptr);
    }
    *warm_s = seconds_since(t0);
  }

  PhaseResult run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    r.rate_over_op_time = true;
    const auto start = Clock::now();
    std::vector<double> phase_s[2][3];
    double map_s = 0;
    uint64_t original = 0, degraded = 0;
    for (size_t i = 0; i < 2 || seconds_since(start) < seconds; ++i) {
      const size_t job = i % 2;
      ++r.attempted;
      const auto t0 = Clock::now();
      const mr::StoreJobReport rep = run_job(job, tracer);
      record_op(r.ops, start, t0, text_.size(), /*side=*/job == 1);
      r.reads += rep.splits;
      r.bytes_delivered += rep.bytes_original + rep.bytes_decoded;
      phase_s[job][0].push_back(rep.map_ns * 1e-9);
      phase_s[job][1].push_back(rep.shuffle_ns * 1e-9);
      phase_s[job][2].push_back(rep.reduce_ns * 1e-9);
      map_s += rep.map_ns * 1e-9;
      original += rep.bytes_original;
      degraded += rep.degraded_splits;
    }
    r.wall_s = seconds_since(start);
    const char* jobs[2] = {"mr.wordcount.", "mr.terasort."};
    const char* phases[3] = {"map_s", "shuffle_s", "reduce_s"};
    for (size_t j = 0; j < 2; ++j)
      for (size_t p = 0; p < 3; ++p)
        r.layer[std::string(jobs[j]) + phases[p]] = median(phase_s[j][p]);
    r.layer["mr.original_mib_per_s"] =
        map_s > 0 ? static_cast<double>(original) / kMiB / map_s : 0;
    r.layer["mr.degraded_splits"] = static_cast<double>(degraded);
    return r;
  }

  // Same wordcount over a Pyramid(4,2,1) store, whose original data sits on
  // k = 4 blocks only (4 map slots), at the same split cap: the paper's
  // map-phase ratio, Pyramid map wall ÷ Galloper map wall (medians of 3).
  void traced_extras(std::map<std::string, double>& layer) override {
    const codes::PyramidCode pyramid(4, 2, 1);
    StoreEnv penv(pyramid, 9);
    const store::FileId pid = penv.store.write(ConstByteSpan(text_));
    const auto map_wall = [&](store::FileStore& fs, store::FileId id,
                              size_t slots) {
      mr::StoreRunnerOptions opt;
      opt.threads = slots;
      opt.max_split_bytes = kChunk;
      const mr::StoreRunner runner(wc_map_, wc_red_, opt);
      std::vector<double> walls;
      for (int rep = 0; rep < 4; ++rep) {
        const mr::StoreJobReport report = runner.run_report(fs, id);
        if (report.output != plain_wc_)
          throw WrongBytes("wordcount output differs from the plain run");
        if (rep > 0) walls.push_back(report.map_ns * 1e-9);
      }
      return median(walls);
    };
    const double gal = map_wall(env_->store, text_id_, kSlots);
    const double pyr = map_wall(penv.store, pid, 4);
    layer["mr.map_ratio_vs_pyramid"] = gal > 0 ? pyr / gal : 0;
  }

 private:
  mr::StoreJobReport run_job(size_t job, Tracer* tracer) {
    mr::StoreRunnerOptions opt;
    opt.threads = kSlots;
    opt.max_split_bytes = kChunk;
    const mr::Mapper& mapper =
        job == 0 ? static_cast<const mr::Mapper&>(wc_map_) : ts_map_;
    const mr::Reducer& reducer =
        job == 0 ? static_cast<const mr::Reducer&>(wc_red_) : ts_red_;
    const mr::StoreRunner runner(mapper, reducer, opt);
    mr::StoreJobReport rep;
    {
      ScopedSpan span(tracer, "job");
      const int64_t t0 = Tracer::now_ns();
      rep = runner.run_report(env_->store, job == 0 ? text_id_ : records_id_);
      if (tracer != nullptr) {
        // The runner reports phase walls, not timestamps; the phases run
        // back to back, so lay them out in order from the job's start.
        int64_t at = t0;
        const std::pair<const char*, uint64_t> phases[3] = {
            {"mr.map", rep.map_ns},
            {"mr.shuffle", rep.shuffle_ns},
            {"mr.reduce", rep.reduce_ns}};
        for (const auto& [name, ns] : phases) {
          Span s;
          s.name = name;
          s.id = tracer->next_id();
          s.parent = span.id();
          s.op = span.id();
          s.start_ns = at;
          s.end_ns = at + static_cast<int64_t>(ns);
          at = s.end_ns;
          tracer->record(s);
        }
      }
    }
    if (rep.output != (job == 0 ? plain_wc_ : plain_ts_))
      throw WrongBytes(std::string(job == 0 ? "wordcount" : "terasort") +
                       " output differs from the plain run");
    return rep;
  }

  const uint64_t seed_;
  mr::WordCountMapper wc_map_;
  mr::WordCountReducer wc_red_;
  mr::TeraSortMapper ts_map_;
  mr::TeraSortReducer ts_red_;
  Buffer text_, records_;
  std::vector<mr::KeyValue> plain_wc_, plain_ts_;
  std::unique_ptr<StoreEnv> env_;
  store::FileId text_id_ = 0, records_id_ = 0;
};

// ---- rebuild -------------------------------------------------------------
//
// A cluster::Coordinator (repair throttle off) loops fail_node →
// restart_node → RepairQueue drain, rotating the victim over all 7 block
// slots per round, while 2 StripedReader clients read throughout. After
// every drain the victim's blocks must be back and byte-identical.
class Rebuild final : public Workload {
 public:
  // 836 files × 392 KiB ≈ 320 MiB stored, 5× the block cache: most
  // foreground reads miss, so their median sits inside the miss mode
  // instead of on the edge between cache hits and misses, where it would
  // jump from run to run.
  static constexpr size_t kFiles = 836;
  static constexpr size_t kReaders = 2;

  explicit Rebuild(uint64_t seed) : seed_(seed) {}

  size_t chunk_bytes() const override { return kChunk; }
  Sources sources() override {
    return {&env_->store.store, &env_->coord};
  }
  void teardown() override { env_.reset(); }

  void setup(Tracer* tracer, double* ingest_s, double* warm_s) override {
    env_ = std::make_unique<ClusterEnv>();
    auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "setup.ingest");
      client::StripedWriter writer(env_->store.store);
      Buffer file(file_bytes(), 0);
      for (size_t f = 0; f < kFiles; ++f) {
        fill_content(file_key(seed_, f), 0, file.data(), file.size());
        GALLOPER_CHECK(writer.write(ConstByteSpan(file)) == f);
      }
    }
    *ingest_s = seconds_since(t0);
    t0 = Clock::now();
    {
      // One rebuild of every slot pins every repair plan.
      ScopedSpan span(tracer, "setup.warm");
      std::vector<OpRecord> ignored;
      rebuild_round(0, nullptr, Clock::now(), ignored);
    }
    *warm_s = seconds_since(t0);
  }

  PhaseResult run(double seconds, Tracer* tracer) override {
    PhaseResult r;
    r.rate_over_op_time = true;
    store::FileStore& fs = env_->store.store;
    const auto start = Clock::now();
    Rng base(seed_ ^ (0x4eb0000ULL + phase_++));
    std::vector<Rng> rngs;
    for (size_t t = 0; t < kReaders; ++t) rngs.push_back(base.fork());
    std::atomic<bool> stop{false};

    run_load_threads(kReaders + 1, r, [&](size_t t, ThreadResult& res) {
      if (t == kReaders) {
        // Control thread: whole rounds, so every slot rebuilds equally
        // often; always at least one round. Readers stop with it, also
        // when a check throws.
        try {
          size_t round = 0;
          do {
            res.attempted += 7;
            rebuild_round(round++, tracer, start, res.ops);
          } while (seconds_since(start) < seconds);
        } catch (...) {
          stop.store(true);
          throw;
        }
        stop.store(true);
        return;
      }
      Rng& rng = rngs[t];
      client::StripedReader reader(fs);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t f = rng.next_below(kFiles);
        const auto [off, len] = draw_read(rng, file_bytes());
        ++res.attempted;
        std::optional<Buffer> got;
        {
          ScopedSpan span(tracer, "op.read");
          const auto t0 = Clock::now();
          got = reader.read_range(f, off, len);
          // No bytes: data_mib_per_s here is the rebuild rate.
          if (got) record_op(res.ops, start, t0, 0, /*side=*/false);
        }
        if (!got) {
          ++res.failed;
          continue;
        }
        check_content(file_key(seed_, f), off, ConstByteSpan(*got),
                      "rebuild read");
        ++res.reads;
        res.bytes_delivered += len;
      }
    });
    r.wall_s = seconds_since(start);
    std::vector<double> drain_s;
    for (const OpRecord& op : r.ops)
      if (op.side) drain_s.push_back(op.ms / 1e3);
    r.layer["cluster.drain_s"] = median(drain_s);
    return r;
  }

 private:
  struct ClusterEnv {
    ClusterEnv() : store(galloper_code(), 9), coord(store.store) {}
    StoreEnv store;
    cluster::Coordinator coord;
  };

  // Fails, restarts and drains each of the 7 slots once (in an order
  // rotated by the round), recording each restart → drained time with the
  // bytes it rebuilt as a side op that ops_per_s does not count. The blocks
  // are copied before the failure and compared after the drain with
  // read_block_for_cache, which copies under the store lock: the readers
  // run on, and a block span could be replaced under a plain block() view.
  void rebuild_round(size_t round, Tracer* tracer, Clock::time_point start,
                     std::vector<OpRecord>& ops) {
    store::FileStore& fs = env_->store.store;
    cluster::Coordinator& coord = env_->coord;
    std::vector<Buffer> saved(kFiles);
    for (size_t i = 0; i < 7; ++i) {
      const size_t slot = (seed_ + round + i) % 7;
      const size_t node = fs.server_of(slot);
      size_t lost = 0;
      for (size_t f = 0; f < kFiles; ++f) {
        auto b = fs.read_block_for_cache(f, slot);
        GALLOPER_CHECK(b.has_value());
        lost += b->bytes.size();
        saved[f] = std::move(b->bytes);
      }
      bool drained = false;
      {
        ScopedSpan cycle(tracer, "rebuild.cycle");
        {
          ScopedSpan span(tracer, "rebuild.fail", &cycle);
          coord.fail_node(node);
        }
        const auto t0 = Clock::now();
        {
          ScopedSpan span(tracer, "rebuild.restart", &cycle);
          coord.restart_node(node);
        }
        {
          ScopedSpan span(tracer, "rebuild.drain", &cycle);
          drained = coord.repair_queue().drain(60.0);
        }
        record_op(ops, start, t0, lost, /*side=*/true, /*counted=*/false);
      }
      if (!drained)
        throw std::runtime_error("rebuild: repair queue did not drain in 60 s");
      // Every cycle frees one slot's blocks and allocates their rebuilt
      // copies on other threads, so freed pages pile up in glibc's
      // per-thread arenas: without this trim the peak RSS of one run swung
      // between about 730 and 950 MiB from run to run. Outside the timed
      // restart → drained interval.
      malloc_trim(0);
      for (size_t f = 0; f < kFiles; ++f) {
        const auto b = fs.read_block_for_cache(f, slot);
        if (!b || b->bytes != saved[f])
          throw WrongBytes("rebuild: rebuilt block differs from the original");
      }
    }
  }

  const uint64_t seed_;
  uint64_t phase_ = 0;
  std::unique_ptr<ClusterEnv> env_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed) {
  if (name == "hot_read") return std::make_unique<HotRead>(seed);
  if (name == "cold_mixed") return std::make_unique<ColdMixed>(seed);
  if (name == "analytics") return std::make_unique<Analytics>(seed);
  if (name == "rebuild") return std::make_unique<Rebuild>(seed);
  return nullptr;
}

}  // namespace perfbench
