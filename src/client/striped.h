// Striped client. StripedReader serves a ranged read of a coded file by
// fetching exactly the blocks its decode plan reads; a StripedWriter write
// is an admission ticket plus one FileStore::write (encode, then the
// checksum-then-write-fault store-back) on the calling thread — no stage
// threads, no queues.
//
// A StripedReader read, after a cache miss (below), is one
// FileStore::gather_range and one CodecPlan::execute_range on the calling
// thread:
//  - the plan is decode_fast keyed by the blocks available at one
//    shared-lock snapshot (the same plan, cache hit or deterministic
//    recompile, FileStore::read_range executes for that pattern), so the
//    client's bytes are bit-identical to direct ones by construction;
//  - one walk of the covered rows (CodecPlan::range_pieces) names each
//    block's byte pieces, and one FetchSet fetches each block the plan
//    reads once — hedged when a fetch stalls past the deadline;
//  - each fetch CRC-checks its block in the same shared-lock hold that
//    copies it, so a client read verifies every block whose bytes it uses
//    and never a block it does not use (stripe-wide checks stay with
//    FileStore::read_range, update, repair and scrub);
//  - AdmissionControl caps how many clients occupy the shared AsyncIo pool
//    at once, so N clients queue at the door instead of convoying all
//    their fetches into one saturated pool.
//
// Fallback: if a fetched block vanished or failed its CRC, the store has
// already quarantined and self-healed what was still corrupt, and the
// reader falls back to FileStore::read_range_nofault for that call — the
// gather already drew the read's fault schedule, so the retry draws none.
// ClientStats::fallbacks counts the stale snapshots (a planned block
// vanished under a concurrent quarantine, kill or repair); corruption the
// gather caught itself is a degraded read, counted in the store's
// ReadStats.
//
// Caching: when the store has a client::BlockCache attached (the default
// process-wide one), read_range tries FileStore::read_range_cached FIRST —
// a range fully covered by current-generation verified entries is served
// with no gather, no admission ticket, and no I/O pool — and the gather
// stages a current-generation entry for every planned block that has one,
// fetching only the missing blocks through FileStore::load_verified_block
// (whole blocks, CRC-verified and cached by the store, so future hits are
// as trustworthy as verified reads). The client never touches the cache
// or a checksum itself.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "io/async.h"
#include "store/file_store.h"
#include "util/bytes.h"
#include "util/stats.h"

namespace galloper::client {

// Counting-semaphore admission gate shared by all clients of one process
// (or a private instance per test). admit() blocks while `limit` tickets
// are out; the RAII Ticket releases on destruction.
class AdmissionControl {
 public:
  explicit AdmissionControl(size_t limit);

  AdmissionControl(const AdmissionControl&) = delete;
  AdmissionControl& operator=(const AdmissionControl&) = delete;

  // Process-wide gate: GALLOPER_CLIENT_ADMIT when set to a positive
  // integer (clamped to [1, 1024]), else 8 — enough concurrent streams to
  // keep a small I/O pool busy without convoying.
  static AdmissionControl& global();

  class Ticket {
   public:
    Ticket(Ticket&& o) noexcept : ac_(o.ac_) { o.ac_ = nullptr; }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    Ticket& operator=(Ticket&&) = delete;
    ~Ticket();

   private:
    friend class AdmissionControl;
    explicit Ticket(AdmissionControl* ac) : ac_(ac) {}
    AdmissionControl* ac_;
  };

  // Blocks until a slot frees up.
  Ticket admit();

  struct Stats {
    uint64_t admitted = 0;  // tickets handed out
    uint64_t waited = 0;    // admissions that had to block
    size_t in_flight = 0;
    size_t peak = 0;
    size_t limit = 0;
  };
  Stats stats() const;

 private:
  void release();

  const size_t limit_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  size_t peak_ = 0;
  uint64_t admitted_ = 0;
  uint64_t waited_ = 0;
};

// Process-wide client counters (all StripedReader/StripedWriter instances
// share them, like the AsyncIo ledger) — snapshotted for --stats and the
// load generator.
struct ClientStats {
  uint64_t reads = 0;          // StripedReader read_range calls
  uint64_t writes = 0;         // StripedWriter write calls
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t batches = 0;        // store gathers (reads not served by cache)
  uint64_t fallbacks = 0;      // stale gathers retried via direct read
  uint64_t cache_reads = 0;    // reads served entirely from the block cache
};
ClientStats client_stats();

// Shared log2-ns histogram of whole-call client latencies (read_range /
// write), feeding the load generator's p50/p99/p999.
util::LatencyHistogram& client_latency_histogram();

struct ReaderOptions {
  // null → AdmissionControl::global().
  AdmissionControl* admission = nullptr;
};

class StripedReader {
 public:
  explicit StripedReader(store::FileStore& store, ReaderOptions opt = {});

  // Same bytes as FileStore::read_range, same nullopt-when-
  // unreconstructable semantics. Thread-safe (stateless between calls
  // beyond the shared counters).
  std::optional<Buffer> read_range(store::FileId id, size_t offset,
                                   size_t length);

 private:
  store::FileStore& store_;
  ReaderOptions opt_;
};

struct WriterOptions {
  // null → AdmissionControl::global().
  AdmissionControl* admission = nullptr;
};

class StripedWriter {
 public:
  explicit StripedWriter(store::FileStore& store, WriterOptions opt = {});

  // FileStore::write behind the admission gate, counted in ClientStats
  // and the client latency histogram — the same stored blocks, checksums
  // and injector write-fault schedule as a direct write.
  store::FileId write(ConstByteSpan file);

 private:
  store::FileStore& store_;
  WriterOptions opt_;
};

}  // namespace galloper::client
