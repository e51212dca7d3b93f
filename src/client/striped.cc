#include "client/striped.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <utility>

#include "client/cache.h"
#include "codes/engine.h"
#include "codes/plan.h"
#include "fault/fault.h"
#include "io/fetch.h"
#include "rt/queue.h"
#include "util/check.h"

namespace galloper::client {

namespace {

// Thrown when a session's clean-set snapshot went stale mid-stream (a
// concurrent reader quarantined a block the plan reads). The caller falls
// back to direct FileStore::read_range, which re-verifies from scratch.
struct SessionInvalid : std::runtime_error {
  SessionInvalid() : std::runtime_error("client read session went stale") {}
};

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
    : store_(store), opt_(opt) {
  GALLOPER_CHECK(opt_.batch_chunks > 0);
}

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
  try {
    auto out = read_pipelined(id, offset, length);
    record();
    return out;
  } catch (const SessionInvalid&) {
    // The snapshot went stale (concurrent quarantine). The nofault direct
    // read re-verifies everything from scratch — strictly slower, always
    // right — with the fault schedule PINNED: this call already drew (and
    // served) its schedule through the session + batch fetches above, and
    // re-drawing for the retry would make the process-wide seeded fault
    // sequence depend on whether the race hit, so degraded chaos runs
    // would stop replaying deterministically.
    counters().fallbacks.fetch_add(1, std::memory_order_relaxed);
    auto out = store_.read_range_nofault(id, offset, length);
    record();
    return out;
  }
}

namespace {

// One pipeline batch: delivers file bytes [lo, hi) covering chunk ids
// [cstart, cend).
struct BatchDesc {
  size_t index = 0;
  size_t lo = 0, hi = 0;
  size_t cstart = 0, cend = 0;
};

// First-wins landing slot for one plan source block. A hedged re-fetch may
// still be copying into its own scratch when the primary publishes; the
// per-slot mutex makes publication atomic and the loser's buffer dies with
// the loser — no writer ever touches a published buffer. With the block
// cache on, the fetch publishes a shared cache entry instead of a private
// scratch; base() serves either form.
struct SlotStage {
  std::mutex mu;
  bool filled = false;
  Buffer data;
  BlockCache::EntryRef entry;
  const uint8_t* base() const { return entry ? entry->data() : data.data(); }
  void publish(Buffer bytes, BlockCache::EntryRef shared) {
    std::lock_guard<std::mutex> lk(mu);
    if (filled) return;
    data = std::move(bytes);
    entry = std::move(shared);
    filled = true;
  }
};

// A batch's fetch in flight: one FetchSet keyed by plan slot, plus the
// per-slot byte ranges ([lo, hi) block coordinates) the decode will read.
// cached[s] holds a slot served straight from the block cache — no fetch
// op was submitted for it.
struct InFlightBatch {
  BatchDesc desc;
  std::vector<std::vector<std::pair<size_t, size_t>>> pieces;  // per slot
  std::vector<std::unique_ptr<SlotStage>> slots;               // per slot
  std::vector<BlockCache::EntryRef> cached;                    // per slot
  std::unique_ptr<io::FetchSet> fetches;
};

// A fetched batch handed to the decode stage.
struct FetchedBatch {
  BatchDesc desc;
  std::vector<std::unique_ptr<SlotStage>> slots;
  std::vector<BlockCache::EntryRef> cached;
};

}  // namespace

std::optional<Buffer> StripedReader::read_pipelined(store::FileId id,
                                                    size_t offset,
                                                    size_t length) {
  const codes::CodecEngine& eng = store_.code().engine();
  const store::FileStore::ReadSession session = store_.begin_verified_read(id);
  const size_t chunk = session.block_bytes / eng.stripes_per_block();
  const size_t file_bytes = eng.num_chunks() * chunk;
  GALLOPER_CHECK_MSG(offset + length <= file_bytes,
                     "range [" << offset << ", " << offset + length
                               << ") beyond file size " << file_bytes);
  if (length == 0) return Buffer();

  // The SESSION plan: plan_decode_fast keyed by the exact clean set the
  // probe phase verified — the same plan (cache hit, or a deterministic
  // recompile) FileStore::read_range would execute for this pattern, which
  // is what makes the pipelined bytes bit-identical to the direct ones.
  const auto plan = eng.plan_decode_fast(session.clean);
  if (!plan->range_solvable(chunk, offset, length))
    return std::nullopt;  // matches direct
  const size_t first_chunk = offset / chunk;
  const size_t last_chunk = (offset + length - 1) / chunk;

  const BlockCache* cache = store_.block_cache();
  const bool use_cache = cache != nullptr && cache->enabled();
  // Generation snapshot, taken once per stream: entries are served only at
  // the generation this stream saw, so a concurrent update/repair can never
  // slip refreshed bytes into a range the session verified differently.
  const std::vector<uint64_t> gens =
      use_cache ? store_.block_generations(id) : std::vector<uint64_t>{};

  // Batch descriptors over the covered chunks.
  std::vector<BatchDesc> batches;
  for (size_t c = first_chunk; c <= last_chunk; c += opt_.batch_chunks) {
    BatchDesc d;
    d.index = batches.size();
    d.cstart = c;
    d.cend = std::min(c + opt_.batch_chunks, last_chunk + 1);
    d.lo = std::max(offset, d.cstart * chunk);
    d.hi = std::min(offset + length, d.cend * chunk);
    batches.push_back(d);
  }

  const size_t depth = opt_.queue_depth ? opt_.queue_depth : rt::queue_depth();
  const size_t num_slots = plan->source_blocks().size();
  Buffer out(length);  // decode stage writes disjoint [lo, hi) regions

  rt::BoundedQueue<FetchedBatch> fetched_q(depth);
  rt::BoundedQueue<size_t> done_q(depth);
  const auto abort = [&](std::exception_ptr e) {
    fetched_q.poison(e);
    done_q.poison(e);
  };

  // The per-slot byte ranges one batch needs, from the plan's own source
  // lists: for every covered chunk's row, each (slot, pos) source
  // contributes [pos·chunk + il, pos·chunk + ih) of its block, where
  // [il, ih) is the intra-chunk overlap with the request. Copy rows read
  // (copy_slot, copy_pos) the same way.
  const auto batch_pieces = [&](const BatchDesc& d) {
    std::vector<std::vector<std::pair<size_t, size_t>>> pieces(num_slots);
    for (size_t c = d.cstart; c < d.cend; ++c) {
      const size_t clo = std::max(d.lo, c * chunk);
      const size_t chi = std::min(d.hi, (c + 1) * chunk);
      const size_t il = clo - c * chunk;
      const size_t ih = chi - c * chunk;
      const codes::CodecPlan::Row& row = plan->row(c);
      if (row.copy_slot >= 0) {
        pieces[static_cast<size_t>(row.copy_slot)].emplace_back(
            row.copy_pos * chunk + il, row.copy_pos * chunk + ih);
      } else {
        for (const codes::CodecPlan::Source& s : plan->row_sources(row))
          pieces[s.slot].emplace_back(s.pos * chunk + il, s.pos * chunk + ih);
      }
    }
    return pieces;
  };

  // One fetch op for slot s of batch f: the primary (with its pre-drawn
  // stall) or a stall-free hedge running the same probe, charged to the
  // hedge budget by the bytes it moves.
  //
  // Pieces mode (cache off): copy exactly the byte ranges the decode plan
  // touches into a private scratch block.
  //
  // Cache mode: the store's verified load — a whole-block copy, CRC-checked
  // and inserted into the cache at the copy's own generation — staged as
  // the shared entry for this batch's decode. A vanished or corrupt block
  // reports kCorrupt, so the stream falls back to direct read_range, which
  // quarantines and repairs; nothing is ever cached unverified.
  const auto submit = [&](InFlightBatch& f, size_t s, double stall_s,
                          bool hedge) {
    auto& store = store_;
    const size_t block_id = plan->source_blocks()[s];
    const size_t block_bytes = session.block_bytes;
    SlotStage* slot = f.slots[s].get();
    if (use_cache) {
      return f.fetches->fetch(
          s, stall_s,
          [&store, id, block_id, slot] {
            auto entry = store.load_verified_block(id, block_id);
            if (entry == nullptr) return false;
            slot->publish(Buffer(), std::move(entry));
            return true;
          },
          hedge, block_bytes);
    }
    const auto* pieces = &f.pieces[s];
    size_t piece_bytes = 0;
    for (const auto& [lo, hi] : *pieces) piece_bytes += hi - lo;
    return f.fetches->fetch(
        s, stall_s,
        [&store, id, block_id, pieces, slot, block_bytes] {
          Buffer scratch(block_bytes);  // pooled, indeterminate
          if (!store.fetch_block_pieces(id, block_id, *pieces,
                                        ByteSpan(scratch.data(),
                                                 scratch.size())))
            return false;  // block vanished → stale session
          slot->publish(std::move(scratch), nullptr);
          return true;
        },
        hedge, piece_bytes);
  };

  // Fetch stage: keeps up to `depth` batches' FetchSets in flight, so one
  // batch's injected stalls overlap its neighbors' (and the decode of
  // whatever already landed). With the cache on, each needed slot is first
  // looked up at the stream's generation snapshot — a hit stages the shared
  // entry with NO fetch op (a fully-hot batch never touches the I/O pool),
  // a miss fetches the whole block and caches it. Per batch, ONE fetch op
  // per missing slot; hedged re-fetches run the same probe stall-free with
  // first-wins publication (see SlotStage). Injector latency is pre-drawn
  // on this stage thread in slot order — one draw per block actually
  // fetched (cache hits draw nothing, like any elided I/O).
  const auto start_batch = [&](const BatchDesc& d) {
    InFlightBatch f;
    f.desc = d;
    f.pieces = batch_pieces(d);
    f.slots.resize(num_slots);
    f.cached.resize(num_slots);
    f.fetches = std::make_unique<io::FetchSet>();
    fault::FaultInjector* inj = store_.fault_injector();
    for (size_t s = 0; s < num_slots; ++s) {
      if (f.pieces[s].empty()) continue;
      if (use_cache) {
        const size_t block_id = plan->source_blocks()[s];
        f.cached[s] = store_.cached_block(id, block_id, gens[block_id]);
        if (f.cached[s]) continue;
      }
      f.slots[s] = std::make_unique<SlotStage>();
      submit(f, s, inj ? inj->read_latency() : 0, /*hedge=*/false);
    }
    return f;
  };

  const auto finish_batch = [&](InFlightBatch f) {
    // Exhaustive await (every slot op resolves); a slot still parked in
    // its injected stall past the hedge deadline is re-fetched stall-free,
    // so the batch's tail is the deadline, not the stall. A budget-denied
    // hedge leaves hedged[s] unset, exactly as if it never fired.
    std::vector<bool> hedged(num_slots, false);
    f.fetches->await(
        [](const std::vector<size_t>&) { return false; },
        [&](const std::vector<size_t>& pending) {
          for (size_t s : pending)
            if (!hedged[s]) hedged[s] = submit(f, s, 0.0, /*hedge=*/true);
        });
    f.fetches->join();
    f.fetches->rethrow_any_failure();
    for (size_t s = 0; s < num_slots; ++s) {
      if (f.pieces[s].empty() || f.cached[s]) continue;
      if (f.fetches->outcome(s) != io::FetchSet::Outcome::kClean)
        throw SessionInvalid();
    }
    counters().batches.fetch_add(1, std::memory_order_relaxed);
    return FetchedBatch{f.desc, std::move(f.slots), std::move(f.cached)};
  };

  // Decode one fetched batch: executes the session plan's rows over the
  // staged slot buffers — the same execute_range FileStore::read_range
  // runs, reading sources at bases[slot] + pos·chunk + offset. Unstaged
  // slots stay nullptr (rows never touch them: the bases table is driven
  // by the same source lists the fetch staged). Output lands straight in
  // `out` (disjoint per-batch regions), so deliver is just completion
  // tokens.
  const auto decode_batch = [&](const FetchedBatch& item) {
    const BatchDesc& d = item.desc;
    std::vector<const uint8_t*> bases(num_slots, nullptr);
    for (size_t s = 0; s < num_slots; ++s) {
      if (item.cached[s]) {
        bases[s] = item.cached[s]->data();
      } else if (item.slots[s]) {
        bases[s] = item.slots[s]->base();
      }
    }
    plan->execute_range(bases.data(), chunk, d.lo, d.hi - d.lo,
                        out.data() + (d.lo - offset));
  };

  // Single-batch fast path: nothing to overlap, so skip the stage threads
  // and queues entirely — fetch, decode, done, all on the caller. Short
  // reads are the common case under skewed popularity; two thread spawns
  // per call would dominate them.
  if (batches.size() == 1) {
    decode_batch(finish_batch(start_batch(batches[0])));
    return out;
  }

  rt::StageThread fetch_stage(
      [&] {
        std::deque<InFlightBatch> window;
        size_t next = 0;
        while (next < batches.size() || !window.empty()) {
          if (next < batches.size() && window.size() < depth) {
            window.push_back(start_batch(batches[next++]));
            continue;
          }
          FetchedBatch done = finish_batch(std::move(window.front()));
          window.pop_front();
          if (!fetched_q.push(std::move(done))) return;  // downstream died
        }
        fetched_q.close();
        // Window teardown on the error path: ~FetchSet cancel_and_joins,
        // so no probe outlives this stage.
      },
      abort);

  rt::StageThread decode_stage(
      [&] {
        while (auto item = fetched_q.pop()) {
          decode_batch(*item);
          if (!done_q.push(item->desc.index)) return;
        }
        done_q.close();
      },
      abort);

  // Deliver: the caller thread drains completion tokens (order is the
  // batch order — one decode stage), then joins and rethrows. On a caller
  // exception the queues are poisoned first, so the stage joins in the
  // unwind cannot block on a full/empty queue.
  size_t delivered = 0;
  try {
    while (delivered < batches.size()) {
      const auto token = done_q.pop();
      if (!token) break;  // poisoned or closed early
      GALLOPER_CHECK(*token == delivered);
      ++delivered;
    }
  } catch (...) {
    abort(std::current_exception());
    throw;
  }
  fetch_stage.join();
  decode_stage.join();
  fetched_q.rethrow_if_poisoned();
  done_q.rethrow_if_poisoned();
  fetch_stage.rethrow();
  decode_stage.rethrow();
  GALLOPER_CHECK(delivered == batches.size());
  return out;
}

// ---- StripedWriter -------------------------------------------------------

StripedWriter::StripedWriter(store::FileStore& store, WriterOptions opt)
    : store_(store), opt_(opt) {
  GALLOPER_CHECK(opt_.slice_bytes > 0);
}

namespace {

// One writer slice: the intra-chunk byte range [lo, lo + len) of every
// chunk, gathered into a contiguous (num_chunks × len) sub-file.
struct SliceJob {
  size_t lo = 0, len = 0;
  Buffer sub;  // gathered sub-file (slice stage) — num_chunks · len bytes
};

struct EncodedSlice {
  size_t lo = 0, len = 0;
  std::vector<Buffer> blocks;  // stripes_per_block · len bytes each
};

}  // namespace

store::FileId StripedWriter::write(ConstByteSpan file) {
  const codes::CodecEngine& eng = store_.code().engine();
  const size_t n = eng.num_chunks();
  GALLOPER_CHECK_MSG(!file.empty() && file.size() % n == 0,
                     "file size must be a positive multiple of the "
                         << n << "-chunk stripe");
  AdmissionControl& gate =
      opt_.admission ? *opt_.admission : AdmissionControl::global();
  const AdmissionControl::Ticket ticket = gate.admit();
  counters().writes.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_written.fetch_add(file.size(), std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();

  const size_t chunk = file.size() / n;
  const size_t spb = eng.stripes_per_block();
  const size_t depth = opt_.queue_depth ? opt_.queue_depth : rt::queue_depth();

  // Full blocks assembled slice by slice. Buffer(n) bytes are
  // indeterminate until every slice lands — each byte is written exactly
  // once below.
  std::vector<Buffer> full;
  full.reserve(eng.num_blocks());
  for (size_t b = 0; b < eng.num_blocks(); ++b)
    full.emplace_back(spb * chunk);

  rt::BoundedQueue<SliceJob> slice_q(depth);
  rt::BoundedQueue<EncodedSlice> enc_q(depth);
  const auto abort = [&](std::exception_ptr e) {
    slice_q.poison(e);
    enc_q.poison(e);
  };

  // Slice stage: gather the intra-chunk columns. Encode stage: encode each
  // sub-file — because the GF kernels are bytewise, block byte j of the
  // sub-file encode equals block bytes [p·chunk + lo, p·chunk + lo + len)
  // of the full encode, so assembling slices reproduces the direct write's
  // blocks exactly.
  rt::StageThread slice_stage(
      [&] {
        for (size_t lo = 0; lo < chunk; lo += opt_.slice_bytes) {
          SliceJob job;
          job.lo = lo;
          job.len = std::min(opt_.slice_bytes, chunk - lo);
          job.sub = Buffer(n * job.len);
          for (size_t i = 0; i < n; ++i)
            std::memcpy(job.sub.data() + i * job.len,
                        file.data() + i * chunk + lo, job.len);
          if (!slice_q.push(std::move(job))) return;
        }
        slice_q.close();
      },
      abort);
  rt::StageThread encode_stage(
      [&] {
        while (auto job = slice_q.pop()) {
          EncodedSlice enc;
          enc.lo = job->lo;
          enc.len = job->len;
          enc.blocks = eng.encode(ConstByteSpan(job->sub));
          if (!enc_q.push(std::move(enc))) return;
        }
        enc_q.close();
      },
      abort);

  // Assemble on the caller thread, overlapping the next slice's encode.
  try {
    while (auto enc = enc_q.pop()) {
      for (size_t b = 0; b < full.size(); ++b)
        for (size_t p = 0; p < spb; ++p)
          std::memcpy(full[b].data() + p * chunk + enc->lo,
                      enc->blocks[b].data() + p * enc->len, enc->len);
    }
  } catch (...) {
    abort(nullptr);
    throw;
  }
  slice_stage.join();
  encode_stage.join();
  slice_q.rethrow_if_poisoned();
  enc_q.rethrow_if_poisoned();
  slice_stage.rethrow();
  encode_stage.rethrow();

  const store::FileId fid = store_.write_encoded(std::move(full));
  client_latency_histogram().record_ns(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return fid;
}

}  // namespace galloper::client
