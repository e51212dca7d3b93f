#include "store/file_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <tuple>

#include "client/cache.h"
#include "io/fetch.h"
#include "rt/pool.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace galloper::store {

// Every store data path that touches more than one block runs in parallel:
// read_range, gather_range and repair fetch their blocks as concurrent
// CRC-checking fetches on the async I/O pool (io::AsyncIo). read_range
// starts decoding as soon as a decodable subset is clean; gather_range and
// repair verify where they fetch — each fetch checks the very copy it
// stages, and the decode reads only staged copies. Scrub's pure-CPU
// checksum sweep stays on the compute pool
// (rt::parallel_for) — it scales with cores, not with in-flight syscalls,
// and its in-memory latencies must not pollute the kFetch histogram that
// feeds the hedge deadline.
// Determinism contract: ALL fault-injector decisions (latency,
// transient failures) are pre-drawn on the calling thread in block order
// before anything is submitted, so the injector's rng sequence is
// identical to the serial form's no matter how the I/O threads interleave.
// Probes only read shared state; every mutation (quarantine, store-back)
// happens after the fetch set is joined.
//
// Locking discipline (mu_ is the block-state reader/writer lock):
//  - probes/decodes take mu_ SHARED, re-checking residency inside (a
//    concurrent reader may have quarantined the block since submission);
//  - quarantine/install/update take mu_ EXCLUSIVE. repair picks its
//    helpers under a shared hold, rebuilds from its staged copies with no
//    lock, and goes exclusive only to quarantine a helper that failed its
//    fetch and to install;
//  - mu_ is never held across a FetchSet await/join, so a probe parked in
//    an injected stall cannot wedge writers (the stall runs BEFORE the
//    probe body via FetchSet's stall_s, outside any lock);
//  - no injector call (fault draw, write fault) runs under mu_: a write
//    gate may call back into the store while the injector holds its own
//    lock, so drawing under mu_ would invert that lock order;
//  - repair_plans_ has its own plans_mu_ (plan compilation never touches
//    block state).

FileStore::FileStore(sim::Cluster& cluster, const codes::ErasureCode& code)
    : cluster_(cluster),
      code_(code),
      cache_uid_(client::next_cache_uid()),
      cache_(&client::BlockCache::global()) {
  GALLOPER_CHECK_MSG(cluster.size() >= code.num_blocks(),
                     "cluster smaller than the code's block count");
  placement_.resize(code.num_blocks());
  for (size_t b = 0; b < placement_.size(); ++b) placement_[b] = b;
}

size_t FileStore::server_of(size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(b < placement_.size());
  return placement_[b];
}

std::vector<size_t> FileStore::placement() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return placement_;
}

void FileStore::set_placement(std::vector<size_t> placement) {
  GALLOPER_CHECK_MSG(placement.size() == code_.num_blocks(),
                     "placement wants one server per block slot");
  std::vector<bool> used(cluster_.size(), false);
  for (size_t s : placement) {
    GALLOPER_CHECK_MSG(s < cluster_.size(), "placement beyond the cluster");
    GALLOPER_CHECK_MSG(!used[s], "placement maps two slots to one server");
    used[s] = true;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  placement_ = std::move(placement);
}

void FileStore::reassign_block(size_t b, size_t server) {
  GALLOPER_CHECK(server < cluster_.size());
  GALLOPER_CHECK_MSG(cluster_.server(server).alive(),
                     "cannot reassign a block onto a dead server");
  std::unique_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(b < placement_.size());
  for (size_t o = 0; o < placement_.size(); ++o)
    GALLOPER_CHECK_MSG(o == b || placement_[o] != server,
                       "server " << server << " already hosts slot " << o);
  placement_[b] = server;
}

FileStore::~FileStore() {
  if (!cache_) return;
  for (FileId id = 0; id < files_.size(); ++id)
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      cache_->invalidate(cache_uid_, id, b);
}

void FileStore::bump_generation_locked(FileId id, size_t b) {
  ++block_gens_[id][b];
  // Drop eagerly (get() would also catch the mismatch) so a hot entry's
  // memory is reclaimed the moment it goes stale.
  if (cache_) cache_->invalidate(cache_uid_, id, b);
}

void FileStore::drop_block_locked(FileId id, size_t b) {
  bump_generation_locked(id, b);
  files_[id][b].reset();
}

bool FileStore::crc_clean_locked(FileId id, size_t b) const {
  const auto& blk = files_[id][b];
  return blk.has_value() && crc32c(*blk) == checksums_[id][b];
}

bool FileStore::quarantine_locked(FileId id, size_t b) {
  if (!files_[id][b].has_value() || crc_clean_locked(id, b)) return false;
  counters_.crc_failures.fetch_add(1, std::memory_order_relaxed);
  drop_block_locked(id, b);
  return true;
}

std::vector<uint64_t> FileStore::block_generations(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  return block_gens_[id];
}

std::optional<FileStore::VerifiedBlockCopy> FileStore::read_block_for_cache(
    FileId id, size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(b < code_.num_blocks());
  const auto& blk = files_[id][b];
  if (!blk.has_value() || !cluster_.server(placement_[b]).alive())
    return std::nullopt;
  // One lock hold covers all three fields: the generation returned here is
  // provably the one these exact bytes were stored under, so an entry the
  // caller verifies and inserts under it can never be a stale snapshot.
  VerifiedBlockCopy copy;
  copy.bytes.resize(blk->size());
  std::copy(blk->begin(), blk->end(), copy.bytes.begin());
  copy.crc = checksums_[id][b];
  copy.generation = block_gens_[id][b];
  return copy;
}

std::shared_ptr<const Buffer> FileStore::cached_block_locked(
    FileId id, size_t b, uint64_t generation) const {
  if (cache_ == nullptr || !cache_->enabled()) return nullptr;
  auto entry = cache_->get(cache_uid_, id, b, generation);
  if (entry == nullptr || entry->size() != file_block_bytes_[id])
    return nullptr;
  return entry;
}

std::shared_ptr<const Buffer> FileStore::cached_block(
    FileId id, size_t b, uint64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(b < code_.num_blocks());
  return cached_block_locked(id, b, generation);
}

std::optional<FileStore::VerifiedBlockCopy> FileStore::verified_copy(
    FileId id, size_t b) const {
  auto copy = read_block_for_cache(id, b);
  if (!copy.has_value() || crc32c(ConstByteSpan(copy->bytes)) != copy->crc)
    return std::nullopt;
  return copy;
}

std::shared_ptr<const Buffer> FileStore::load_verified_block(FileId id,
                                                             size_t b) const {
  auto copy = verified_copy(id, b);
  if (!copy.has_value()) return nullptr;
  auto entry = std::make_shared<const Buffer>(std::move(copy->bytes));
  if (cache_ != nullptr && cache_->enabled())
    cache_->put(cache_uid_, id, b, copy->generation, entry);
  return entry;
}

std::optional<Buffer> FileStore::read_range_cached(FileId id, size_t offset,
                                                   size_t length) {
  if (cache_ == nullptr || !cache_->enabled() || length == 0)
    return std::nullopt;
  // Gather every current-generation entry for this file under one shared
  // hold — the generations read here are current while we hold the lock,
  // and a mutation after release bumps them, which only means we serve
  // bytes that were valid at lookup time (same guarantee any read has).
  std::vector<client::BlockCache::EntryRef> entries(code_.num_blocks());
  std::vector<size_t> cached_blocks;
  size_t chunk = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    chunk = file_block_bytes_[id] / code_.engine().stripes_per_block();
    const size_t fbytes = code_.engine().num_chunks() * chunk;
    GALLOPER_CHECK_MSG(offset + length <= fbytes,
                       "range [" << offset << ", " << offset + length
                                 << ") beyond file size " << fbytes);
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      if ((entries[b] = cached_block_locked(id, b, block_gens_[id][b])))
        cached_blocks.push_back(b);
  }
  if (cached_blocks.empty()) return std::nullopt;

  // Same per-chunk schedule a degraded read runs, keyed by the cached set;
  // with the data blocks cached the covered rows are verbatim copies —
  // pure memcpy. Unsolvable coverage → the real read path takes over.
  const auto plan = code_.engine().plan_decode_fast(cached_blocks);
  if (!plan->range_solvable(chunk, offset, length)) return std::nullopt;
  std::vector<const uint8_t*> bases(plan->source_blocks().size());
  for (size_t s = 0; s < bases.size(); ++s)
    bases[s] = entries[plan->source_blocks()[s]]->data();
  Buffer out(length);
  plan->execute_range(bases.data(), chunk, offset, length, out.data());
  return out;
}

FileId FileStore::write(ConstByteSpan file) {
  // Encode outside every lock (pure CPU).
  std::vector<Buffer> blocks = code_.encode(file);
  // Writers serialize on write_mu_ — only write ever appends to files_, so
  // the id guessed here is the id the append gets. mu_ is NOT held across
  // the injector callbacks: a write gate (the soak harness's) calls back
  // into the store's locked accessors.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  FileId id;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    id = files_.size();
  }
  std::vector<std::optional<Buffer>> stored;
  std::vector<uint32_t> crcs;
  stored.reserve(blocks.size());
  crcs.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    auto& b = blocks[i];
    // TRUE checksum first, then the injector's write faults: an injected
    // bit flip / torn write is a silent corruption the CRC paths catch.
    // The file id passed to the injector is the one this write is creating.
    crcs.push_back(crc32c(b));
    if (injector_)
      injector_->on_write(id, i, std::span<uint8_t>(b.data(), b.size()));
    stored.emplace_back(std::move(b));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  file_block_bytes_.push_back(stored[0]->size());
  files_.push_back(std::move(stored));
  checksums_.push_back(std::move(crcs));
  block_gens_.emplace_back(code_.num_blocks(), 0);
  return id;
}

size_t FileStore::num_files() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return files_.size();
}

size_t FileStore::block_bytes(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  return file_block_bytes_[id];
}

size_t FileStore::file_bytes(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  const size_t chunk =
      file_block_bytes_[id] / code_.engine().stripes_per_block();
  return code_.engine().num_chunks() * chunk;
}

std::optional<ConstByteSpan> FileStore::block_locked(FileId id,
                                                     size_t b) const {
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(b < code_.num_blocks());
  if (!cluster_.server(placement_[b]).alive() || !files_[id][b].has_value())
    return std::nullopt;
  return ConstByteSpan(*files_[id][b]);
}

bool FileStore::block_available_locked(FileId id, size_t b) const {
  return block_locked(id, b).has_value();
}

std::optional<ConstByteSpan> FileStore::block(FileId id, size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return block_locked(id, b);
}

bool FileStore::block_available(FileId id, size_t b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return block_available_locked(id, b);
}

void FileStore::fail_server(size_t server) {
  GALLOPER_CHECK(server < cluster_.size());
  // Epoch bump FIRST, sweep second: a concurrent repair install holds the
  // exclusive lock and re-checks the epoch under it, so it either installs
  // before this sweep (and the sweep resets it — lost, consistent) or sees
  // the bumped epoch and aborts. Either order leaves the block lost.
  cluster_.server(server).fail();
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t b = 0; b < placement_.size(); ++b) {
    if (placement_[b] != server) continue;
    for (FileId id = 0; id < files_.size(); ++id) {
      if (files_[id][b].has_value()) drop_block_locked(id, b);
    }
  }
}

void FileStore::revive_server(size_t server) {
  GALLOPER_CHECK(server < cluster_.size());
  cluster_.server(server).recover();
}

std::vector<size_t> FileStore::available_blocks_locked(FileId id) const {
  std::vector<size_t> out;
  for (size_t b = 0; b < code_.num_blocks(); ++b)
    if (block_available_locked(id, b)) out.push_back(b);
  return out;
}

std::vector<size_t> FileStore::lost_blocks(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  std::vector<size_t> out;
  for (size_t b = 0; b < code_.num_blocks(); ++b)
    if (!files_[id][b].has_value()) out.push_back(b);
  return out;
}

FileStore::AvailabilitySnapshot FileStore::availability(
    const std::vector<FileId>& ids) const {
  const size_t n = code_.num_blocks();
  GALLOPER_CHECK_MSG(n <= 64, "availability masks cover at most 64 blocks");
  AvailabilitySnapshot snap;
  snap.files.resize(ids.size());
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (size_t b = 0; b < n; ++b)
    if (cluster_.server(placement_[b]).alive()) snap.live_slots |= 1ull << b;
  for (size_t i = 0; i < ids.size(); ++i) {
    GALLOPER_CHECK(ids[i] < files_.size());
    BlockMasks& m = snap.files[i];
    for (size_t b = 0; b < n; ++b)
      if (files_[ids[i]][b].has_value()) m.present |= 1ull << b;
    m.available = m.present & snap.live_slots;
  }
  return snap;
}

FileStore::AvailabilitySnapshot FileStore::availability() const {
  std::vector<FileId> ids(num_files());  // files are only ever appended
  std::iota(ids.begin(), ids.end(), FileId{0});
  return availability(ids);
}

bool FileStore::all_recoverable() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (FileId id = 0; id < files_.size(); ++id)
    if (!code_.decodable(available_blocks_locked(id))) return false;
  return true;
}

std::optional<Buffer> FileStore::read(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  std::map<size_t, ConstByteSpan> view;
  for (size_t b : available_blocks_locked(id))
    view.emplace(b, *block_locked(id, b));
  return code_.decode(view);
}

std::optional<Buffer> FileStore::read_original_split(FileId id, size_t b,
                                                     size_t block_offset,
                                                     size_t length) {
  GALLOPER_CHECK_MSG(length > 0, "empty split read");
  // One shared hold checks the bounds and finds the hot path: a
  // current-generation verified cache entry serves the split with no
  // injector draws and no verification (the entry was CRC-checked when
  // inserted), so sibling splits of one block pay the disk once.
  client::BlockCache::EntryRef entry;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    GALLOPER_CHECK(b < code_.num_blocks());
    GALLOPER_CHECK_MSG(block_offset + length <= file_block_bytes_[id],
                       "split [" << block_offset << ", "
                                 << block_offset + length
                                 << ") beyond block size "
                                 << file_block_bytes_[id]);
    entry = cached_block_locked(id, b, block_gens_[id][b]);
    if (entry == nullptr) {
      counters_.verified_reads.fetch_add(1, std::memory_order_relaxed);
      if (!block_available_locked(id, b)) return std::nullopt;
    }
  }
  if (entry == nullptr) {
    // Pre-draw the fault schedule on this thread (one block, the same draw
    // as read_range's). The injected stall is slept on the CALLING thread:
    // a split read is the map slot's own local disk read, with no second
    // replica to hedge to — a stalled split is a straggler the job's other
    // map slots absorb, which is exactly the behavior the paper measures.
    const std::optional<double> stall_s = draw_fetch_faults();
    if (!stall_s.has_value()) return std::nullopt;
    if (*stall_s > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(*stall_s));

    // Verify-on-read through the verified load (which also fills the
    // cache). A null load is a lost block or a CRC mismatch; quarantine
    // re-checks under the exclusive lock, so only a still-corrupt block is
    // dropped and self-healed. Either way the caller's degraded ranged
    // read serves the bytes (clean again if the self-heal landed).
    entry = load_verified_block(id, b);
    if (entry == nullptr) {
      self_heal(id, quarantine(id, {b}));
      return std::nullopt;
    }
  }
  Buffer out(length);
  std::copy_n(entry->data() + block_offset, length, out.data());
  return out;
}

std::vector<size_t> FileStore::update_range(FileId id, size_t offset,
                                            ConstByteSpan data) {
  // Phase 1 (exclusive): verify the stripe and compute the patched blocks
  // into LOCAL copies — files_ itself is untouched, so a throw (degraded
  // stripe, quarantined corruption) leaves the store exactly as it was.
  std::vector<Buffer> blocks;
  std::vector<size_t> touched;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    const size_t chunk =
        file_block_bytes_[id] / code_.engine().stripes_per_block();
    GALLOPER_CHECK_MSG(offset % chunk == 0 && data.size() % chunk == 0,
                       "updates must be chunk-aligned (chunk = " << chunk
                                                                 << " bytes)");
    const size_t first = offset / chunk;
    const size_t count = data.size() / chunk;
    GALLOPER_CHECK(first + count <= code_.engine().num_chunks());
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      GALLOPER_CHECK_MSG(block_available_locked(id, b),
                         "in-place update on a degraded stripe: repair block "
                             << b << " first");
    // CRC-verify before patching: a delta update against a silently corrupt
    // block would recompute its checksum over the corrupt bytes, laundering
    // the damage into a "valid" state no scrub could ever catch. Quarantine
    // the block and refuse instead — the caller repairs, then retries.
    for (size_t b = 0; b < code_.num_blocks(); ++b) {
      if (!quarantine_locked(id, b)) continue;
      GALLOPER_CHECK_MSG(false, "update found block "
                                    << b
                                    << " silently corrupt (quarantined): "
                                       "repair before updating");
    }
    blocks.reserve(code_.num_blocks());
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      blocks.emplace_back(files_[id][b]->size());
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      std::copy(files_[id][b]->begin(), files_[id][b]->end(),
                blocks[b].begin());
    for (size_t c = 0; c < count; ++c) {
      const auto t = code_.engine().update_chunk(
          blocks, first + c, data.subspan(c * chunk, chunk));
      touched.insert(touched.end(), t.begin(), t.end());
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }

  // Phase 2 (no lock): the touched blocks hit "disk" — they alone ride the
  // injector's write-fault schedule. The callbacks run UNLOCKED because a
  // write gate may call back into the store (soak harness). The checksum
  // recorded below keeps the TRUE value, so a fault is a silent corruption.
  std::vector<uint32_t> new_crcs(touched.size());
  for (size_t i = 0; i < touched.size(); ++i) {
    const size_t b = touched[i];
    new_crcs[i] = crc32c(blocks[b]);
    if (injector_)
      injector_->on_write(
          id, b, std::span<uint8_t>(blocks[b].data(), blocks[b].size()));
  }

  // Phase 3 (exclusive): install. Callers serialize updates against reads
  // and chaos on the same file (the load-gen harness locks), so nothing
  // mutated the stripe between the phases.
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < touched.size(); ++i) {
    const size_t b = touched[i];
    // Bump-then-install under one exclusive hold: any cache entry holding
    // the pre-update bytes is stale the instant the new content is visible.
    bump_generation_locked(id, b);
    files_[id][b] = std::move(blocks[b]);
    checksums_[id][b] = new_crcs[i];
  }
  return touched;
}

void FileStore::corrupt_block(FileId id, size_t block, size_t offset) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  GALLOPER_CHECK(id < files_.size());
  GALLOPER_CHECK(block < code_.num_blocks());
  GALLOPER_CHECK_MSG(files_[id][block].has_value(),
                     "cannot corrupt a lost block");
  auto& data = *files_[id][block];
  GALLOPER_CHECK(offset < data.size());
  data[offset] ^= 0x01;
}

std::vector<FileStore::CorruptBlock> FileStore::scrub(bool quarantine) {
  // CRC every stored block on the CPU pool: the jobs are independent
  // (disjoint reads, one flag byte each), and a full-store scrub is pure
  // checksum bandwidth — the one store operation that scales with TOTAL
  // stored bytes, not one stripe, so it wants every core, not the (narrow,
  // blocking-sized) I/O pool. Keeping it off AsyncIo also keeps the kFetch
  // latency histogram — which sets the hedge deadline — describing real
  // block fetches only. The calling thread holds mu_ shared for the whole
  // scan (pool workers read block bytes without taking the lock — the
  // shared hold is what keeps mutators out).
  std::vector<CorruptBlock> jobs;
  std::vector<uint8_t> bad;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (FileId id = 0; id < files_.size(); ++id)
      for (size_t b = 0; b < code_.num_blocks(); ++b)
        if (files_[id][b].has_value()) jobs.push_back({id, b});
    bad.assign(jobs.size(), 0);
    rt::parallel_for(rt::ThreadPool::global(), jobs.size(),
                     rt::ThreadPool::default_threads(), [&](size_t j) {
                       const CorruptBlock& job = jobs[j];
                       bad[j] = !crc_clean_locked(job.file, job.block);
                     });
  }

  // Re-verify each hit under the exclusive lock before quarantining: a
  // concurrent reader may have quarantined-and-healed the block since the
  // scan, and resetting the healed copy would turn a repaired block back
  // into an erasure. Serial callers see the identical report.
  std::vector<CorruptBlock> corrupt;
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (!bad[j]) continue;
    const CorruptBlock& c = jobs[j];
    if (!files_[c.file][c.block].has_value() ||
        crc_clean_locked(c.file, c.block))
      continue;
    corrupt.push_back(c);
    if (quarantine) drop_block_locked(c.file, c.block);
  }
  return corrupt;
}

FileStore::ScrubReport FileStore::scrub_and_repair() {
  ScrubReport report;
  // Parallel CRC pass + quarantine, exactly like scrub(); then the rebuild
  // loop below runs strictly after it, because a repair READS peer blocks —
  // rebuilding under the parallel scan would race it.
  report.corrupt = scrub(/*quarantine=*/true);

  // Multi-pass healing: when several blocks of one file were quarantined,
  // block A may be unrepairable until block B is rebuilt (every quarantined
  // block is an erasure while it is down). Sweep until a full pass makes no
  // progress; transient injected read faults count as progress-still-
  // possible, with a pass cap so a pathological schedule cannot spin
  // forever.
  std::vector<CorruptBlock> pending = report.corrupt;
  constexpr size_t kMaxPasses = 8;
  for (size_t pass = 0; pass < kMaxPasses && !pending.empty(); ++pass) {
    bool progress = false;
    std::vector<CorruptBlock> remaining;
    for (const CorruptBlock& c : pending) {
      if (!cluster_.server(server_of(c.block)).alive()) {
        remaining.push_back(c);  // nowhere to store the rebuilt bytes (yet)
        continue;
      }
      try {
        if (repair(c.file, c.block)) {
          ++report.repaired;
          progress = true;
        } else {
          remaining.push_back(c);
        }
      } catch (const fault::TransientError&) {
        remaining.push_back(c);
        progress = true;  // a retry redraws the fault schedule
      }
    }
    pending = std::move(remaining);
    if (!progress) break;
  }
  report.unrecoverable = pending.size();
  return report;
}

FileStore::ReadStats FileStore::read_stats() const {
  ReadStats s;
  s.verified_reads = counters_.verified_reads.load(std::memory_order_relaxed);
  s.crc_failures = counters_.crc_failures.load(std::memory_order_relaxed);
  s.degraded_reads = counters_.degraded_reads.load(std::memory_order_relaxed);
  s.transient_faults =
      counters_.transient_faults.load(std::memory_order_relaxed);
  s.auto_repairs = counters_.auto_repairs.load(std::memory_order_relaxed);
  return s;
}

namespace {
// Pre-drawn per-block fetch schedule (see the determinism contract above).
struct Candidate {
  size_t block;
  double stall_s;  // injected latency, applied on the I/O thread
};
}  // namespace

std::optional<double> FileStore::draw_fetch_faults() const {
  if (!injector_) return 0.0;
  // Latency first, then the transient faults, retried in place.
  const double stall_s = injector_->read_latency();
  constexpr size_t kReadAttempts = 3;
  for (size_t tries = 0; injector_->read_fails();) {
    counters_.transient_faults.fetch_add(1, std::memory_order_relaxed);
    if (++tries >= kReadAttempts) return std::nullopt;
  }
  return stall_s;
}

FileStore::VerifiedBlocks FileStore::verify_blocks(
    FileId id, bool draw_faults,
    const std::function<void(const std::vector<size_t>&)>& on_decodable) {
  counters_.verified_reads.fetch_add(1, std::memory_order_relaxed);

  VerifiedBlocks out;
  size_t bbytes = 0;  // what each CRC probe reads
  std::vector<size_t> available;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    bbytes = file_block_bytes_[id];
    available = available_blocks_locked(id);
  }
  // Pre-draw the fault schedule on this thread, in block order, so
  // counters and rng state never depend on I/O timing. A block whose
  // reads keep failing is simply left out.
  // The nofault form draws NOTHING: the caller (a client's fallback after
  // a failed gather) already paid this read's schedule — see the header.
  std::vector<Candidate> candidates;
  for (size_t b : available) {
    const std::optional<double> stall_s =
        draw_faults ? draw_fetch_faults() : std::optional<double>(0.0);
    if (stall_s.has_value()) candidates.push_back({b, *stall_s});
  }

  // Verify-on-read, concurrently: every candidate block gets a CRC-probe
  // fetch on the async I/O pool. A fetch still slow at the hedge deadline
  // is re-issued without its injected stall (a second replica path); the
  // loser is cancelled when the first result lands. Hedges draw NOTHING
  // from the injector. Probe bodies take mu_ shared and re-check
  // residency: a sibling reader may have quarantined the block between
  // submission and the probe run.
  auto probe = [this, id](size_t b) {
    return [this, id, b] {
      if (injector_) injector_->crash_point("store.fetch");
      std::shared_lock<std::shared_mutex> lock(mu_);
      return crc_clean_locked(id, b);
    };
  };
  io::FetchSet fetches;
  std::vector<bool> hedged(code_.num_blocks(), false);
  const auto hedge_pending = [&](const std::vector<size_t>& pending) {
    for (size_t b : pending) {
      if (hedged[b]) continue;  // one hedge per key across both awaits
      // A budget denial (false) leaves hedged[b] unset so a later await may
      // retry once the bucket refills; the primary completes either way.
      hedged[b] = fetches.fetch(b, 0.0, probe(b), /*hedge=*/true, bbytes);
    }
  };
  for (const Candidate& c : candidates)
    fetches.fetch(c.block, c.stall_s, probe(c.block), /*hedge=*/false, bbytes);
  // Early-ready step: await() unblocks as soon as a decodable subset is
  // clean, so the caller's decode overlaps the straggler probes.
  fetches.await(
      [&](const std::vector<size_t>& clean) { return code_.decodable(clean); },
      hedge_pending);
  on_decodable(fetches.clean_keys());

  // Every probe must still resolve before ANY mutation — a straggler
  // finding corruption counts, and the quarantine below resets buffers a
  // probe may be reading. But "resolve" need not mean "wait out an
  // injected stall": a probe still parked past the hedge deadline is
  // re-issued stall-free here too (the hedge runs the same CRC check, so
  // nothing goes uncounted), and the loser is cancelled when the key
  // lands. The tail is then the hedge deadline, not the stall.
  fetches.await([](const std::vector<size_t>&) { return false; },
                hedge_pending);
  fetches.join();
  fetches.rethrow_any_failure();

  std::vector<size_t> suspects;
  for (const Candidate& c : candidates)
    if (fetches.outcome(c.block) == io::FetchSet::Outcome::kCorrupt)
      suspects.push_back(c.block);
  out.quarantined = quarantine(id, suspects);
  out.clean = fetches.clean_keys();
  return out;
}

std::vector<size_t> FileStore::quarantine(FileId id,
                                          const std::vector<size_t>& suspects) {
  if (suspects.empty()) return {};
  // Re-verify under the exclusive lock: a concurrent reader may have
  // quarantined (and even healed) a suspect since it was checked, and
  // resetting a healed copy would turn a repaired block back into an
  // erasure. A mismatch quarantines the block so no later caller trusts it.
  std::vector<size_t> quarantined;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (size_t b : suspects)
      if (quarantine_locked(id, b)) quarantined.push_back(b);
  }
  if (!quarantined.empty())
    counters_.degraded_reads.fetch_add(1, std::memory_order_relaxed);
  return quarantined;
}

void FileStore::self_heal(FileId id, const std::vector<size_t>& blocks) {
  // Rebuild what a read quarantined, so the NEXT read is clean. Plans come
  // from the store's pinned pattern map.
  for (size_t b : blocks) {
    if (!cluster_.server(server_of(b)).alive()) continue;
    try {
      if (repair(id, b))
        counters_.auto_repairs.fetch_add(1, std::memory_order_relaxed);
    } catch (const fault::TransientError&) {
      // Helpers kept failing transiently; scrub/recovery will retry later.
    }
  }
}

std::optional<Buffer> FileStore::read_range(FileId id, size_t offset,
                                            size_t length) {
  return read_range_impl(id, offset, length, /*draw_faults=*/true);
}

std::optional<Buffer> FileStore::read_range_nofault(FileId id, size_t offset,
                                                    size_t length) {
  return read_range_impl(id, offset, length, /*draw_faults=*/false);
}

std::optional<Buffer> FileStore::read_range_impl(FileId id, size_t offset,
                                                 size_t length,
                                                 bool draw_faults) {
  // Hot-head fast path: a range fully covered by current-generation cached
  // entries is served with no probe fetches, no injector draws, and no
  // trip through the I/O pool (not counted as a verified read — nothing
  // was re-verified; the entries were CRC-checked when inserted).
  if (auto cached = read_range_cached(id, offset, length)) return cached;
  const size_t fbytes = file_bytes(id);
  GALLOPER_CHECK_MSG(offset + length <= fbytes,
                     "range [" << offset << ", " << offset + length
                               << ") beyond file size " << fbytes);

  // The (possibly degraded) read itself: the shared decode_fast/read_range
  // plan reconstructs only the chunks overlapping the request from the
  // clean blocks. The view re-checks residency under the shared lock; if a
  // clean block vanished (concurrent quarantine) and the decode came up
  // empty, we retry once with the final clean set of the exhaustive await.
  const auto decode_view = [&](const std::vector<size_t>& clean)
      -> std::pair<std::optional<Buffer>, bool> {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::map<size_t, ConstByteSpan> view;
    bool all_present = true;
    for (size_t b : clean) {
      if (files_[id][b].has_value())
        view.emplace(b, ConstByteSpan(*files_[id][b]));
      else
        all_present = false;
    }
    return {code_.engine().read_range(view, offset, length), all_present};
  };
  std::optional<Buffer> out;
  bool decode_authoritative = false;
  const VerifiedBlocks verified = verify_blocks(
      id, draw_faults, [&](const std::vector<size_t>& clean) {
        std::tie(out, decode_authoritative) = decode_view(clean);
      });
  if (!decode_authoritative && !out.has_value())
    out = decode_view(verified.clean).first;

  // The nofault form skips the self-heal (repair draws a gather +
  // write-fault schedule); its quarantines heal on the next scrub or
  // drawing read.
  if (draw_faults) self_heal(id, verified.quarantined);
  return out;
}

FileStore::Gather FileStore::gather_range(FileId id, size_t offset,
                                          size_t length) {
  counters_.verified_reads.fetch_add(1, std::memory_order_relaxed);
  const codes::CodecEngine& eng = code_.engine();
  // One shared-lock snapshot: the block size, the available blocks (the
  // plan key) and the generations a cache hit must match.
  size_t bbytes = 0;
  std::vector<size_t> key;
  std::vector<uint64_t> gens;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    bbytes = file_block_bytes_[id];
    key = available_blocks_locked(id);
    gens = block_gens_[id];
  }
  Gather g;
  g.chunk = bbytes / eng.stripes_per_block();
  const size_t fbytes = eng.num_chunks() * g.chunk;
  GALLOPER_CHECK_MSG(offset + length <= fbytes,
                     "range [" << offset << ", " << offset + length
                               << ") beyond file size " << fbytes);

  // Plan, then look up each block the plan reads at the snapshot
  // generation and pre-draw the faults of each miss, in slot order (the
  // determinism contract above). A block whose transient faults outlast
  // the retries leaves the key and the plan is rebuilt without it; blocks
  // already looked up keep their hit or their draw.
  const bool use_cache = cache_ != nullptr && cache_->enabled();
  std::vector<std::shared_ptr<const Buffer>> hit(code_.num_blocks());
  std::vector<std::optional<double>> stall(code_.num_blocks());
  std::vector<bool> looked(code_.num_blocks(), false);
  std::vector<codes::CodecPlan::Pieces> pieces;
  for (bool replan = true; replan;) {
    replan = false;
    g.plan = eng.plan_decode_fast(key);
    if (!g.plan->range_solvable(g.chunk, offset, length)) {
      g.status = Gather::Status::kUnsolvable;
      return g;
    }
    pieces = g.plan->range_pieces(g.chunk, offset, length);
    for (size_t s = 0; s < pieces.size() && !replan; ++s) {
      const size_t b = g.plan->source_blocks()[s];
      if (pieces[s].empty() || looked[b]) continue;
      looked[b] = true;
      if (use_cache && (hit[b] = cached_block(id, b, gens[b]))) continue;
      stall[b] = draw_fetch_faults();
      if (stall[b].has_value()) continue;
      key.erase(std::find(key.begin(), key.end(), b));
      replan = true;
    }
  }

  // One fetch per planned block that missed the cache. Its check and its
  // copy share one shared-lock hold, so the staged bytes are the verified
  // bytes; the first result per slot is staged (a hedge that lands second
  // is discarded). A block that vanished or fails its CRC reports false.
  const std::vector<size_t>& src = g.plan->source_blocks();
  g.blocks.resize(src.size());
  std::mutex stage_mu;
  const auto fetch_op = [&](size_t s) {
    return [this, id, bbytes, use_cache, b = src[s], piece = &pieces[s],
            staged = &g.blocks[s], &stage_mu] {
      if (injector_) injector_->crash_point("store.fetch");
      std::shared_ptr<const Buffer> bytes;
      if (use_cache) {
        bytes = load_verified_block(id, b);
      } else {
        auto copy = std::make_shared<Buffer>(bbytes);  // pooled, indeterminate
        std::shared_lock<std::shared_mutex> lock(mu_);
        if (!block_available_locked(id, b) || !crc_clean_locked(id, b))
          return false;
        for (const auto& [lo, hi] : *piece)
          std::memcpy(copy->data() + lo, files_[id][b]->data() + lo, hi - lo);
        bytes = std::move(copy);
      }
      if (bytes == nullptr) return false;
      std::lock_guard<std::mutex> lock(stage_mu);
      if (*staged == nullptr) *staged = std::move(bytes);
      return true;
    };
  };
  std::vector<size_t> fetched;  // slots, ascending
  std::vector<size_t> fetch_bytes(src.size(), bbytes);
  io::FetchSet fetches;
  for (size_t s = 0; s < src.size(); ++s) {
    if (pieces[s].empty()) continue;
    if ((g.blocks[s] = hit[src[s]])) continue;
    if (!use_cache) {
      fetch_bytes[s] = 0;
      for (const auto& [lo, hi] : pieces[s]) fetch_bytes[s] += hi - lo;
    }
    fetches.fetch(s, *stall[src[s]], fetch_op(s), /*hedge=*/false,
                  fetch_bytes[s]);
    fetched.push_back(s);
  }
  // Exhaustive await; a fetch still parked in its injected stall past the
  // hedge deadline is re-issued stall-free (a budget-denied hedge leaves
  // hedged[s] unset, as if it never fired).
  std::vector<bool> hedged(src.size(), false);
  fetches.await([](const std::vector<size_t>&) { return false; },
                [&](const std::vector<size_t>& pending) {
                  for (size_t s : pending)
                    if (!hedged[s])
                      hedged[s] = fetches.fetch(s, 0.0, fetch_op(s),
                                                /*hedge=*/true, fetch_bytes[s]);
                });
  fetches.join();
  fetches.rethrow_any_failure();

  std::vector<size_t> suspects;
  for (size_t s : fetched)
    if (fetches.outcome(s) != io::FetchSet::Outcome::kClean)
      suspects.push_back(src[s]);
  if (!suspects.empty()) {
    // quarantine() drops only blocks still resident and still corrupt, so
    // a block that merely vanished falls back with no heal.
    const std::vector<size_t> quarantined = quarantine(id, suspects);
    self_heal(id, quarantined);
    Gather failed;
    failed.status = quarantined.empty() ? Gather::Status::kStale
                                        : Gather::Status::kCorrupt;
    return failed;
  }
  g.status = Gather::Status::kStaged;
  return g;
}

std::shared_ptr<const codes::CodecPlan> FileStore::pinned_repair_plan(
    size_t block_id, const std::vector<size_t>& sorted_helpers,
    const std::vector<size_t>& helpers) {
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto& plan = repair_plans_[{block_id, sorted_helpers}];
  if (!plan) plan = code_.engine().plan_repair(block_id, helpers);
  return plan;
}

std::optional<std::vector<size_t>> FileStore::repair(FileId id,
                                                     size_t block_id,
                                                     io::AsyncIo* io) {
  GALLOPER_CHECK(block_id < code_.num_blocks());
  if (!cluster_.server(server_of(block_id)).alive())
    return std::nullopt;  // dead target: revive (or reassign) first
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    GALLOPER_CHECK(id < files_.size());
    if (files_[id][block_id].has_value()) return std::vector<size_t>{};
  }

  // Transient helper-read faults (injected) are retried with a fresh
  // helper gather; persistent ones surface as TransientError — distinct
  // from nullopt, which means structurally unrecoverable (or the target
  // server died mid-repair — see the install re-check below).
  constexpr size_t kRepairReadAttempts = 6;
  // Stale-install retries (kill/revive cycle or slot reassignment raced
  // the attempt) don't consume transient-fault attempts, but a chaos actor
  // hammering the target must not pin this call forever.
  constexpr size_t kMaxIncarnationRetries = 8;
  size_t incarnation_retries = 0;
  for (size_t attempt = 0; attempt < kRepairReadAttempts; ++attempt) {
    std::vector<size_t> helpers;
    size_t bbytes = 0;  // block size, for the gather's budget accounting
    // The attempt's view of the TARGET: which server hosts the slot, and
    // that server's liveness epoch. Everything this attempt rebuilds is
    // only valid for this exact incarnation — the install below re-checks
    // both under the exclusive lock and aborts on any change, because a
    // kill/revive cycle in between means the revive declared the block
    // lost and installing a pre-cycle rebuild would silently resurrect it.
    size_t target_server = 0;
    uint64_t target_epoch = 0;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      bbytes = file_block_bytes_[id];
      target_server = placement_[block_id];
      target_epoch = cluster_.server(target_server).epoch();
      if ((target_epoch & 1) != 0) return std::nullopt;  // died since entry
      // A concurrent reader healed it first.
      if (files_[id][block_id].has_value()) return std::vector<size_t>{};
      // Preferred (local) helpers first; generic fallback to all available.
      helpers = code_.repair_helpers(block_id);
      for (size_t h : helpers)
        if (!block_available_locked(id, h)) {
          helpers = available_blocks_locked(id);
          break;
        }
    }

    // One compiled plan per (failed, helper-set) pattern, pinned in the
    // store: the Gaussian elimination runs once for the whole storm, and
    // the remaining files' repairs are pure kernel execution.
    std::vector<size_t> want = helpers;
    std::sort(want.begin(), want.end());
    std::shared_ptr<const codes::CodecPlan> plan =
        pinned_repair_plan(block_id, want, helpers);

    // Pre-draw the gather's fault schedule in helper order, breaking at
    // the first failure exactly like the old serial gather loop (the
    // forced-failure tests count on one draw per failed attempt).
    std::vector<Candidate> fetch_plan;
    bool gather_failed = false;
    for (size_t h : helpers) {
      const double stall_s = injector_ ? injector_->read_latency() : 0;
      if (injector_ && injector_->read_fails()) {
        counters_.transient_faults.fetch_add(1, std::memory_order_relaxed);
        gather_failed = true;
        break;
      }
      fetch_plan.push_back({h, stall_s});
    }
    if (gather_failed) continue;

    // Gather the helpers concurrently, each fetch verifying the copy the
    // rebuild will read (a byte flipped after the check is in the store,
    // not in the copy). The first verified copy per block is staged; a
    // hedge that lands second is discarded. Ready means every planned
    // helper answered. Spares drafted at the hedge deadline are the
    // fallback route: they end the wait early only when the hedge budget
    // denied a re-read (else the await runs until every fetch resolves,
    // and a helper that failed its check is rebuilt around from them), so
    // a partial subset never grabs a fresh pattern just because its
    // fetches finished before a granted hedge.
    std::vector<std::optional<Buffer>> staged(code_.num_blocks());
    std::mutex stage_mu;
    io::FetchSet fetches(io ? *io : io::AsyncIo::global());
    const auto fetch_op = [&](size_t b) {
      return [this, id, b, &staged, &stage_mu] {
        if (injector_) injector_->crash_point("store.fetch");
        std::optional<VerifiedBlockCopy> copy = verified_copy(id, b);
        if (!copy.has_value()) return false;
        std::lock_guard<std::mutex> lock(stage_mu);
        if (!staged[b].has_value()) staged[b] = std::move(copy->bytes);
        return true;
      };
    };
    bool hedge_denied = false;
    for (const Candidate& f : fetch_plan)
      fetches.fetch(f.block, f.stall_s, fetch_op(f.block), /*hedge=*/false,
                    bbytes);
    fetches.await(
        [&](const std::vector<size_t>& clean) {
          if (std::includes(clean.begin(), clean.end(), want.begin(),
                            want.end()))
            return true;
          return hedge_denied && code_.decodable(clean);
        },
        [&](const std::vector<size_t>& pending) {
          // Hedge the slow helpers on a second replica path, and draft
          // every other available block as a spare route (each spare
          // verifies its own copy). No injector draws here: hedges must
          // not perturb the schedule.
          for (size_t h : pending)
            hedge_denied |=
                !fetches.fetch(h, 0.0, fetch_op(h), /*hedge=*/true, bbytes);
          std::vector<size_t> spares;
          {
            std::shared_lock<std::shared_mutex> lock(mu_);
            spares = available_blocks_locked(id);
          }
          for (size_t s : spares)
            if (s != block_id &&
                std::find(helpers.begin(), helpers.end(), s) == helpers.end())
              fetches.fetch(s, 0.0, fetch_op(s), /*hedge=*/true, bbytes);
        });
    // Losers (hedged-over stalls) are cancelled before anything proceeds;
    // an async crash point surfaces here, with the store unmutated.
    fetches.cancel_and_join();
    fetches.rethrow_any_failure();

    // A fetch that failed its check quarantines its block if it is still
    // resident and still corrupt (one CRC failure each; a repair is not a
    // degraded read) — a rotted helper is never trusted again.
    std::vector<size_t> failed;
    for (size_t b = 0; b < code_.num_blocks(); ++b)
      if (fetches.outcome(b) == io::FetchSet::Outcome::kCorrupt)
        failed.push_back(b);
    bool helper_quarantined = false;
    if (!failed.empty()) {
      std::unique_lock<std::shared_mutex> lock(mu_);
      for (size_t b : failed) helper_quarantined |= quarantine_locked(id, b);
    }

    const std::vector<size_t> clean = fetches.clean_keys();
    std::vector<size_t> use_helpers;
    std::shared_ptr<const codes::CodecPlan> use_plan;
    if (std::includes(clean.begin(), clean.end(), want.begin(), want.end())) {
      use_helpers = helpers;  // the planned gather completed — pinned plan
      use_plan = plan;
    } else if (code_.decodable(clean)) {
      use_helpers = clean;  // hedged route: rebuild from whoever answered
      use_plan = pinned_repair_plan(block_id, clean, clean);
    } else {
      // No decodable verified set. A quarantine reselects without the bad
      // helper (not a transient retry); a helper that merely vanished
      // (concurrent quarantine, kill or repair) costs an attempt.
      if (helper_quarantined) --attempt;
      continue;
    }

    // Rebuild with no lock held: the staged copies are private and verified.
    std::map<size_t, ConstByteSpan> view;
    for (size_t h : use_helpers) view.emplace(h, ConstByteSpan(*staged[h]));
    std::optional<Buffer> rebuilt =
        code_.engine().repair_block_with_plan(*use_plan, view);
    if (!rebuilt) return std::nullopt;
    // Crash window: the rebuild finished but the block is not yet
    // installed. A crash here must leave the store exactly as before the
    // repair (minus the pinned plan) — re-running the repair completes it.
    if (injector_) injector_->crash_point("store.repair");
    // The store-back rides the injector's write-fault schedule, UNLOCKED
    // (a write gate may call back into the store's locked accessors).
    if (injector_)
      injector_->on_write(
          id, block_id,
          std::span<uint8_t>(rebuilt->data(), rebuilt->size()));
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      // Liveness-epoch re-check (the revive-vs-in-flight-repair fix): the
      // rebuilt bytes belong to the incarnation captured at attempt start.
      // fail_server bumps the epoch BEFORE its exclusive-lock sweep, so
      // under this lock any kill (or kill/revive cycle, or reassign_block
      // cutover) that raced this attempt is visible here.
      const uint64_t now_epoch = cluster_.server(target_server).epoch();
      if (placement_[block_id] != target_server || now_epoch != target_epoch) {
        if (placement_[block_id] == target_server && (now_epoch & 1) != 0)
          return std::nullopt;  // target is dead NOW: the block stays lost
        // Kill/revive cycle or slot reassignment, target usable again:
        // discard the stale rebuild and run a fresh attempt against the
        // new incarnation (helpers re-read, epoch re-captured).
        if (++incarnation_retries > kMaxIncarnationRetries)
          throw fault::TransientError(
              "target of repair of block " + std::to_string(block_id) +
              " kept changing incarnation");
        --attempt;
        continue;
      }
      // A concurrent repair may have won the race; its bytes are as good
      // as ours (both rebuilt from verified helpers).
      if (!files_[id][block_id].has_value()) {
        bump_generation_locked(id, block_id);
        files_[id][block_id] = std::move(*rebuilt);
      }
    }
    return use_helpers;
  }
  throw fault::TransientError("helper reads for repair of block " +
                              std::to_string(block_id) +
                              " kept failing transiently");
}

}  // namespace galloper::store
