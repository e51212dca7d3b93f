#include "client/striped.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "codes/plan.h"
#include "util/check.h"

namespace galloper::client {

namespace {

struct ClientCounters {
  std::atomic<uint64_t> reads{0}, writes{0};
  std::atomic<uint64_t> bytes_read{0}, bytes_written{0};
  std::atomic<uint64_t> batches{0}, fallbacks{0};
  std::atomic<uint64_t> cache_reads{0};
};

ClientCounters& counters() {
  static ClientCounters c;
  return c;
}

}  // namespace

// ---- AdmissionControl ----------------------------------------------------

AdmissionControl::AdmissionControl(size_t limit) : limit_(limit) {
  GALLOPER_CHECK(limit_ > 0);
}

AdmissionControl& AdmissionControl::global() {
  static AdmissionControl* gate = [] {
    size_t limit = 8;
    if (const char* env = std::getenv("GALLOPER_CLIENT_ADMIT")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) limit = std::min<size_t>(static_cast<size_t>(n), 1024);
    }
    return new AdmissionControl(limit);  // leaked: outlives static dtors
  }();
  return *gate;
}

AdmissionControl::Ticket::~Ticket() {
  if (ac_) ac_->release();
}

AdmissionControl::Ticket AdmissionControl::admit() {
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight_ >= limit_) {
    ++waited_;
    cv_.wait(lock, [&] { return in_flight_ < limit_; });
  }
  ++in_flight_;
  ++admitted_;
  peak_ = std::max(peak_, in_flight_);
  return Ticket(this);
}

void AdmissionControl::release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  cv_.notify_one();
}

AdmissionControl::Stats AdmissionControl::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.admitted = admitted_;
  s.waited = waited_;
  s.in_flight = in_flight_;
  s.peak = peak_;
  s.limit = limit_;
  return s;
}

// ---- process-wide client stats -------------------------------------------

ClientStats client_stats() {
  ClientStats s;
  const ClientCounters& c = counters();
  s.reads = c.reads.load(std::memory_order_relaxed);
  s.writes = c.writes.load(std::memory_order_relaxed);
  s.bytes_read = c.bytes_read.load(std::memory_order_relaxed);
  s.bytes_written = c.bytes_written.load(std::memory_order_relaxed);
  s.batches = c.batches.load(std::memory_order_relaxed);
  s.fallbacks = c.fallbacks.load(std::memory_order_relaxed);
  s.cache_reads = c.cache_reads.load(std::memory_order_relaxed);
  return s;
}

util::LatencyHistogram& client_latency_histogram() {
  static util::LatencyHistogram* hist = new util::LatencyHistogram();
  return *hist;
}

// ---- StripedReader -------------------------------------------------------

StripedReader::StripedReader(store::FileStore& store, ReaderOptions opt)
    : store_(store), opt_(opt) {}

std::optional<Buffer> StripedReader::read_range(store::FileId id,
                                                size_t offset, size_t length) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto record = [&] {
    client_latency_histogram().record_ns(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  };
  // Cache-first: a range fully covered by current-generation verified
  // entries skips the admission gate too — a hot-head hit does no I/O, so
  // making it queue for a pool ticket would throttle exactly the traffic
  // the cache exists to absorb.
  if (auto cached = store_.read_range_cached(id, offset, length)) {
    counters().reads.fetch_add(1, std::memory_order_relaxed);
    counters().cache_reads.fetch_add(1, std::memory_order_relaxed);
    counters().bytes_read.fetch_add(length, std::memory_order_relaxed);
    record();
    return cached;
  }
  AdmissionControl& gate =
      opt_.admission ? *opt_.admission : AdmissionControl::global();
  const AdmissionControl::Ticket ticket = gate.admit();
  counters().reads.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_read.fetch_add(length, std::memory_order_relaxed);
  counters().batches.fetch_add(1, std::memory_order_relaxed);

  using Status = store::FileStore::Gather::Status;
  const store::FileStore::Gather g = store_.gather_range(id, offset, length);
  std::optional<Buffer> out;
  if (g.status == Status::kStaged) {
    // Slots the range does not read stay null; execute_range never touches
    // them (the pieces were walked from the same rows).
    std::vector<const uint8_t*> bases(g.blocks.size(), nullptr);
    for (size_t s = 0; s < bases.size(); ++s)
      if (g.blocks[s]) bases[s] = g.blocks[s]->data();
    out.emplace(length);
    const codes::ExecTimer timer(codes::PlanOp::kDecodeFast);
    g.plan->execute_range(bases.data(), g.chunk, offset, length, out->data());
  } else if (g.status != Status::kUnsolvable) {
    // The nofault direct read re-verifies everything from scratch with the
    // fault schedule PINNED: the gather already drew (and served) this
    // call's schedule, and re-drawing for the retry would make the
    // process-wide seeded fault sequence depend on whether a race hit, so
    // degraded chaos runs would stop replaying deterministically. Only a
    // stale snapshot counts as a fallback; corruption the gather caught
    // itself is a degraded read, counted by the store.
    if (g.status == Status::kStale)
      counters().fallbacks.fetch_add(1, std::memory_order_relaxed);
    out = store_.read_range_nofault(id, offset, length);
  }
  record();
  return out;
}

// ---- StripedWriter -------------------------------------------------------

StripedWriter::StripedWriter(store::FileStore& store, WriterOptions opt)
    : store_(store), opt_(opt) {}

store::FileId StripedWriter::write(ConstByteSpan file) {
  AdmissionControl& gate =
      opt_.admission ? *opt_.admission : AdmissionControl::global();
  const AdmissionControl::Ticket ticket = gate.admit();
  counters().writes.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_written.fetch_add(file.size(), std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const store::FileId fid = store_.write(file);
  client_latency_histogram().record_ns(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return fid;
}

}  // namespace galloper::client
