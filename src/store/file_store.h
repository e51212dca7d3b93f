// FileStore: a miniature erasure-coded "distributed file system" over the
// simulated cluster. It stores REAL bytes (every repair and read is
// bit-exact and verified in tests) while the cluster's DES resources
// account simulated time and disk/network I/O — the same split the paper
// has between its C++ coding library and the Hadoop/HDFS deployment.
//
// Placement: block slot b of every file lives on server placement()[b]
// (identity by default — the single-node degenerate case where blocks go
// on servers [0, num_blocks)); extra cluster servers act as replacement
// targets for recovery and as drain destinations. cluster::Coordinator
// installs a topology-aware placement (src/store/placement) and moves
// slots between servers with reassign_block, so every data path below
// runs unchanged against a real multi-node layout.
//
// Thread safety: the data paths (write/read/read_range/update_range/repair/
// scrub and the client gather) may run concurrently from many client
// threads. Block state lives under one reader/writer lock — reads, probes,
// and decodes take it shared; quarantine, store-back, and updates take it
// exclusive — and the lock is NEVER held while blocked in a FetchSet await,
// so a parked probe cannot wedge a writer. The pinned repair-plan map has
// its own mutex, and the read counters are atomics snapshotted by value.
// fail_server/revive_server may race in-flight operations: server liveness
// is a monotonic atomic EPOCH (even = alive, odd = dead; every transition
// bumps it — see sim::Server) and the block-state sweep runs under the
// exclusive lock, so a concurrent read either sees the block before the
// kill (and serves it) or after (and degrades) — chaos actors and mid-job
// kills rely on this. repair() captures the target's {server, epoch} when
// an attempt starts and re-checks both under the exclusive lock before
// installing, so a repair that began before a kill (or a full kill/revive
// cycle, which a raw alive flag cannot distinguish from "never died") can
// never resurrect a block the revive declared lost, and a rebuilt block
// can never land on a server the slot was reassigned away from.
// set_fault_injector/set_block_cache remain attach-at-setup only.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "codes/erasure_code.h"
#include "core/input_format.h"
#include "fault/fault.h"
#include "sim/cluster.h"

namespace galloper::client {
class BlockCache;
}  // namespace galloper::client

namespace galloper::io {
class AsyncIo;
}  // namespace galloper::io

namespace galloper::store {

using FileId = size_t;

class FileStore {
 public:
  // `code` must outlive the store.
  FileStore(sim::Cluster& cluster, const codes::ErasureCode& code);
  // Drops this store's entries from the attached cache — the uid is never
  // reused, so they could never be SERVED again, but dead residents would
  // still squeeze live stores out of the shared capacity.
  ~FileStore();

  const codes::ErasureCode& code() const { return code_; }
  sim::Cluster& cluster() { return cluster_; }

  // ---- Block→server placement -------------------------------------------
  //
  // Identity by default. set_placement installs a full mapping at setup
  // time (one distinct alive server per block slot); reassign_block is the
  // drain/decommission cutover and IS safe under load: it flips one slot's
  // home under the exclusive lock, and because the block's bytes stay
  // resident across the flip, concurrent reads never degrade — they see
  // the slot on the old (alive) server before the flip and on the new
  // (alive) server after.
  size_t server_of(size_t block) const;
  std::vector<size_t> placement() const;
  void set_placement(std::vector<size_t> placement);
  void reassign_block(size_t block, size_t server);

  // Attaches a fault injector (not owned; null detaches). Injected faults:
  // silent bit flips / torn writes on every block store (write, update,
  // repair store-back), transient helper-read failures (retried, then
  // rerouted), latency stalls on block fetches (absorbed by hedged
  // re-reads — see read_range/repair), the "store.fetch" crash point fired
  // inside the async CRC-checking fetches, and the "store.repair" crash point
  // fired just before a rebuilt block is installed.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return injector_; }

  // ---- Verified client-side block cache ----------------------------------
  //
  // The store participates in client::BlockCache (default: the process-wide
  // instance) through three invariants, all enforced here (callers never
  // touch the cache directly):
  //  - every block carries a GENERATION, bumped under the exclusive lock by
  //    every mutation or quarantine (update install, repair install, CRC
  //    quarantine, fail_server) — and each bump also drops the cache entry;
  //  - the one way in is load_verified_block(): a read_block_for_cache()
  //    copy of {bytes, stored checksum, generation} taken under ONE
  //    shared-lock hold, CRC-verified, then inserted at that generation —
  //    a generation that was provably current when the bytes were read;
  //  - the one way out is a size-checked lookup at a given generation
  //    (cached_block); read_range tries read_range_cached first, served
  //    entirely from current-generation entries when they cover the
  //    range — no probe fetches, no I/O pool, memcpy for clean rows — and
  //    gather_range stages a hit for any block its plan reads, fetching
  //    (and so verifying and caching) only the misses.
  // corrupt_block() deliberately does NOT bump: silent corruption doesn't
  // change the block's logical content, and the cached bytes are exactly
  // what a verified read would reconstruct.
  //
  // set_block_cache is like set_fault_injector: not synchronized against
  // in-flight operations (attach at setup; null detaches). The attached
  // cache must OUTLIVE the store — ~FileStore drops its entries from it.
  void set_block_cache(client::BlockCache* cache) { cache_ = cache; }
  client::BlockCache* block_cache() const { return cache_; }

  // Current generation of every block of a file.
  std::vector<uint64_t> block_generations(FileId id) const;

  struct VerifiedBlockCopy {
    Buffer bytes;
    uint32_t crc = 0;         // write-time CRC-32C recorded for the block
    uint64_t generation = 0;  // generation current when bytes were copied
  };
  // Atomic {bytes, checksum, generation} snapshot of a resident block.
  // nullopt if the block is lost or its server is dead.
  std::optional<VerifiedBlockCopy> read_block_for_cache(FileId id,
                                                        size_t block) const;

  // The cached bytes of block `b` verified at `generation` (a snapshot
  // from block_generations), or null: cache detached or disabled, a miss,
  // a stale generation, or an entry that is not a whole block.
  std::shared_ptr<const Buffer> cached_block(FileId id, size_t b,
                                             uint64_t generation) const;

  // A read_block_for_cache copy of block `b` that matches the checksum
  // copied with it, put in the cache at the copy's generation when the
  // cache is enabled. Null when the block is lost, its server is dead, or
  // the copy fails its CRC (whether to quarantine is the caller's call).
  std::shared_ptr<const Buffer> load_verified_block(FileId id,
                                                    size_t b) const;

  // Serves [offset, offset + length) purely from current-generation cached
  // blocks when they form a decodable plan for the covered chunks. nullopt
  // when the cache cannot fully serve (caller falls through to the real
  // read path). Never touches the I/O pool or the fault injector.
  std::optional<Buffer> read_range_cached(FileId id, size_t offset,
                                          size_t length);

  // Encodes and stores a file (also the StripedWriter's landing point).
  // Size must be a positive multiple of the code's chunk count. Each block's
  // TRUE checksum is recorded before the injector's write fault for that
  // block is drawn, in block order, so an injected fault is silent
  // corruption the CRC paths catch. File ids are assigned in call order.
  FileId write(ConstByteSpan file);

  size_t num_files() const;
  size_t block_bytes(FileId id) const;
  // Size of the original (decoded) file.
  size_t file_bytes(FileId id) const;

  // The block contents as stored (nullopt if its server is dead or the
  // block was lost). Block b of every file lives on server_of(b). The returned
  // span is only stable while no concurrent operation quarantines or
  // rewrites the block — concurrent callers use gather_range, which
  // copies under the lock.
  std::optional<ConstByteSpan> block(FileId id, size_t block) const;

  // Whether the server holding `block` is alive and still has the bytes.
  bool block_available(FileId id, size_t block) const;

  // Kills a server: all blocks stored on it are lost.
  void fail_server(size_t server);

  // Brings a server back EMPTY (its blocks stay lost until repaired).
  void revive_server(size_t server);

  // True if every file is still decodable from available blocks.
  bool all_recoverable() const;

  // Reads one file, decoding around missing blocks if needed.
  std::optional<Buffer> read(FileId id) const;

  // Data-local map-task read: bytes [block_offset, block_offset + length)
  // of block `b` — one split of core::InputFormat, i.e. original data only,
  // never parity, never a decode. The read is verified (whole-block CRC
  // against the write-time checksum) and cache-integrated: a
  // current-generation BlockCache entry serves the range with no injector
  // draws, and a verified miss fills the cache so sibling splits of the
  // same block hit. Injected latency stalls are absorbed by the calling
  // map slot (a split read has one replica — there is nothing to hedge
  // to); transient read faults retry in place like read_range. A CRC
  // mismatch quarantines + self-heals the block exactly like read_range
  // and returns nullopt — as does a lost block / dead server — and the
  // caller falls back to a degraded ranged read of the same bytes.
  std::optional<Buffer> read_original_split(FileId id, size_t b,
                                            size_t block_offset,
                                            size_t length);

  // ---- Self-healing degraded reads --------------------------------------

  struct ReadStats {
    size_t verified_reads = 0;  // read_range calls + client gathers
    size_t crc_failures = 0;    // blocks quarantined by a read, an update
                                // or a repair (scrub: its own list)
    size_t degraded_reads = 0;  // reads that decoded around a corrupt block
    size_t transient_faults = 0;  // injected read faults retried in place
    size_t auto_repairs = 0;    // corrupt blocks rebuilt by a read
  };
  // Snapshot by value — safe to call while reads are in flight.
  ReadStats read_stats() const;

  // CRC-verified read of bytes [offset, offset + length) of the original
  // file. Every available block is checked against its write-time CRC-32C
  // via concurrent async CRC-probe fetches — the decode starts as soon as
  // a decodable subset is clean, overlapping the straggler probes, and a
  // fetch still pending at the hedge deadline is re-issued on a second
  // path (io::AsyncIo hedging). A block that fails its CRC is quarantined
  // and the read transparently falls back to the shared
  // decode_fast/read_range plan over the healthy blocks (a DEGRADED read —
  // same bytes, more arithmetic). Quarantined blocks are then rebuilt in
  // place via the pinned repair plans, so the next read is clean again.
  // nullopt only if the healthy blocks cannot reconstruct the range.
  std::optional<Buffer> read_range(FileId id, size_t offset, size_t length);

  // read_range with the fault schedule PINNED: consumes zero injector
  // draws (no latency, no transient-fault rolls, no self-heal repair) while
  // keeping the verified-read semantics — CRC probes, quarantine, degraded
  // decode. This is the client's fallback after a failed gather_range: the
  // gather already drew this read's schedule, and drawing a SECOND one for
  // the retry would make the process-wide seeded fault sequence depend on
  // race timing. A block this path quarantines is healed by the next scrub
  // or drawing read, exactly like a hedge-discovered failure.
  std::optional<Buffer> read_range_nofault(FileId id, size_t offset,
                                           size_t length);

  // ---- Client gathers ----------------------------------------------------
  //
  // The client read contract: a client read verifies every block whose
  // bytes it uses, and only those. Stripe-wide checking (every available
  // block, used or not) stays with read_range, update_range, repair and
  // scrub.
  //
  // gather_range stages what a decode_fast plan needs to reconstruct
  // [offset, offset + length): the plan is keyed by the blocks available
  // at one shared-lock snapshot, and each block the plan reads is fetched
  // once on the async I/O pool — a current-generation cache entry is
  // staged instead when there is one. Each fetch CRC-checks its block and
  // copies it under ONE shared hold, so no byte can change between its
  // check and its copy: with the cache on it is load_verified_block (the
  // whole block, cached on success); with it off, crc_clean_locked and then
  // a copy of just the planned pieces. Fault draws follow read_range's
  // determinism contract, one draw_fetch_faults per fetched block, in
  // slot order, before anything is submitted (cache hits draw nothing); a
  // block whose transient faults outlast the retries leaves the plan key.
  // Stalled fetches are hedged like read_range's probes.
  //
  // A fetched block that failed its CRC or vanished fails the gather;
  // every such block still resident and still corrupt (re-checked under
  // the exclusive lock) is quarantined and self-healed. kCorrupt: this
  // gather quarantined at least one block (a degraded read, counted in
  // ReadStats). kStale: it quarantined none — a planned block vanished
  // (a concurrent quarantine, kill or repair made the snapshot stale).
  // Either way the caller falls back to read_range_nofault, since this
  // call already drew the read's faults.
  struct Gather {
    enum class Status { kStaged, kUnsolvable, kCorrupt, kStale };
    Status status = Status::kStale;
    std::shared_ptr<const codes::CodecPlan> plan;  // set when kStaged
    size_t chunk = 0;                              // bytes per stripe chunk
    // Per plan slot: the staged block (whole, or only its planned pieces
    // with the cache off), null for slots the range does not read.
    std::vector<std::shared_ptr<const Buffer>> blocks;
  };
  Gather gather_range(FileId id, size_t offset, size_t length);

  // Overwrites the chunk-aligned range [offset, offset + data.size()) of
  // the original file in place, patching parity via deltas and refreshing
  // the stored checksums. All blocks must be available AND CRC-clean
  // (in-place update on a degraded stripe is refused — repair first; a
  // silently corrupt block is quarantined and the update throws, because
  // patching it would launder the corruption into a "valid" checksum).
  // Returns the blocks written. offset and size must be multiples of the
  // chunk size (block_bytes / stripes_per_block).
  std::vector<size_t> update_range(FileId id, size_t offset,
                                   ConstByteSpan data);

  // Restores one lost block from the available blocks (preferred helpers
  // when alive, any sufficient subset otherwise). Helpers are chosen under
  // a shared hold and fetched concurrently through the async I/O pool; each
  // fetch passes the "store.fetch" crash point, then takes a verified copy
  // (verified_copy: never cached), and the rebuild runs with no lock on
  // those copies, so a helper byte flipped after its check never reaches
  // the rebuilt block. A helper that fails its fetch check is quarantined
  // (one crc_failures each — a repair is not a degraded read) and the
  // helpers are chosen again without it. A helper still slow at the hedge
  // deadline is re-read on a second path and the other available blocks
  // are drafted as spares, each verifying its own copy; the spares are
  // the rebuild route when a hedge is denied by the budget or a helper
  // fails its check (the stalled loser is cancelled). The store lock is
  // exclusive only to quarantine and to install. Returns the blocks read;
  // nullopt if unrecoverable — structurally, OR because the target server
  // died mid-repair (the block stays lost; retry after a revive). The
  // install re-checks the target's {server, liveness epoch} captured when
  // the attempt started, so a kill (or kill/revive cycle, or slot
  // reassignment) that lands between rebuild and install aborts the stale
  // install instead of resurrecting bytes the revive declared lost.
  // `io` routes the helper gather through a specific async pool (a data
  // node's own — cluster::RepairQueue passes the target node's pool so a
  // repair storm doesn't occupy the global client pool); null = the
  // process-wide pool.
  std::optional<std::vector<size_t>> repair(FileId id, size_t block,
                                            io::AsyncIo* io = nullptr);

  // Distinct (failed block, helper set) repair patterns this store has
  // compiled so far. Every file of the store shares one code, so a storm
  // that loses a server repairs the same pattern once per file — plan
  // count stays flat while repair count grows.
  size_t repair_plan_count() const {
    std::lock_guard<std::mutex> lock(plans_mu_);
    return repair_plans_.size();
  }

  // Blocks of `id` that are currently lost.
  std::vector<size_t> lost_blocks(FileId id) const;

  // ---- Availability snapshots --------------------------------------------
  //
  // Block state of many files read under ONE shared-lock hold, as bitmasks
  // over block slots (bit b = slot b; the code must have at most 64
  // blocks). `present` holds the slots that have bytes — the complement of
  // lost_blocks, blind to liveness — and `available` those that have bytes
  // on an alive server, exactly block_available. `live_slots` holds the
  // slots whose server is alive. Scans over many blocks (the repair
  // queue's per-pop ranking, its closing scan, node health) read this
  // instead of taking the lock once per block.
  struct BlockMasks {
    uint64_t present = 0;
    uint64_t available = 0;
  };
  struct AvailabilitySnapshot {
    uint64_t live_slots = 0;
    std::vector<BlockMasks> files;  // files[i] describes ids[i]
  };
  AvailabilitySnapshot availability(const std::vector<FileId>& ids) const;
  // Every file, in id order (files[id] describes file id).
  AvailabilitySnapshot availability() const;

  // ---- Scrubbing (silent-corruption defense) ----------------------------

  // Fault injection: flips one byte inside a stored block.
  void corrupt_block(FileId id, size_t block, size_t offset);

  struct CorruptBlock {
    FileId file;
    size_t block;
  };
  // Recomputes every stored block's CRC-32C against the checksum recorded
  // at write time. Mismatching blocks are reported and (when `quarantine`)
  // dropped, so a subsequent RecoveryManager pass rebuilds them. The CRC
  // pass scatter-gathers over the compute pool under the shared lock (the
  // jobs only read disjoint blocks); quarantining then re-verifies each
  // hit under the exclusive lock — a block a concurrent reader healed in
  // the window is left alone — so the serial report is unchanged and the
  // concurrent one never drops a good block.
  std::vector<CorruptBlock> scrub(bool quarantine = true);

  struct ScrubReport {
    std::vector<CorruptBlock> corrupt;  // every CRC mismatch found
    size_t repaired = 0;                // rebuilt bit-exact via plan cache
    size_t unrecoverable = 0;           // quarantined but not rebuilt NOW
  };
  // scrub() with self-healing: quarantines every corrupt block, then
  // rebuilds them in place through the pinned repair plans (single-threaded
  // after the parallel CRC pass — rebuilds read peer blocks, so they must
  // not overlap the scan). Rebuilding is multi-pass: a block unrepairable
  // while its peers are also quarantined is retried after those peers heal.
  // `unrecoverable` counts blocks still down when the passes settle — NOT
  // necessarily lost forever (a dead server holding helpers may be revived
  // later; repair() or another scrub then finishes the job).
  ScrubReport scrub_and_repair();

 private:
  // _locked helpers assume the caller holds mu_ (shared suffices unless
  // noted).
  std::optional<ConstByteSpan> block_locked(FileId id, size_t b) const;
  bool block_available_locked(FileId id, size_t b) const;
  std::vector<size_t> available_blocks_locked(FileId id) const;
  // Block (id, b) is resident and matches its write-time CRC-32C.
  bool crc_clean_locked(FileId id, size_t b) const;
  std::shared_ptr<const Buffer> cached_block_locked(FileId id, size_t b,
                                                    uint64_t generation) const;
  // Verify where fetched: a read_block_for_cache copy of block `b` that
  // matches the checksum copied with it, or nullopt (lost block, dead
  // server, or a CRC mismatch). The one check behind load_verified_block
  // and repair's helper fetches; touches no cache and no counter.
  std::optional<VerifiedBlockCopy> verified_copy(FileId id, size_t b) const;
  // Looks up / compiles-and-pins the repair plan for (block, sorted
  // helpers) under plans_mu_.
  std::shared_ptr<const codes::CodecPlan> pinned_repair_plan(
      size_t block_id, const std::vector<size_t>& sorted_helpers,
      const std::vector<size_t>& helpers);
  // Bumps block (id, b)'s generation and drops its cache entry. Caller
  // holds mu_ EXCLUSIVE (the bump must be ordered with the mutation it
  // describes).
  void bump_generation_locked(FileId id, size_t b);
  // Bump, then drop the bytes: the block becomes an erasure. Exclusive.
  void drop_block_locked(FileId id, size_t b);
  // Drops block (id, b) if it is resident and fails its CRC, counting one
  // CRC failure; returns whether it did. Exclusive.
  bool quarantine_locked(FileId id, size_t b);
  // Shared body of read_range/read_range_nofault: `draw_faults` gates
  // every injector draw (latency, transient faults, self-heal repair).
  std::optional<Buffer> read_range_impl(FileId id, size_t offset,
                                        size_t length, bool draw_faults);

  // The one per-block fault draw of every verified read: the injected
  // stall (latency drawn first), or nullopt when the block's transient
  // read faults outlast the in-place retries. Caller must NOT hold mu_ —
  // the injector's callbacks may call back into the store.
  std::optional<double> draw_fetch_faults() const;

  struct VerifiedBlocks {
    std::vector<size_t> clean;        // sorted CRC-verified block ids
    std::vector<size_t> quarantined;  // blocks this phase quarantined
  };
  // The verify phase of read_range: draws each available block's faults
  // (none when !draw_faults), CRC-probes the blocks concurrently on the
  // async I/O pool with hedging, and quarantines the mismatches.
  // `on_decodable` runs with the clean set as soon as it is decodable,
  // overlapping the stragglers.
  VerifiedBlocks verify_blocks(
      FileId id, bool draw_faults,
      const std::function<void(const std::vector<size_t>&)>& on_decodable);
  // Quarantines every suspect that is still resident and still fails its
  // CRC (re-checked under the exclusive lock), counting one CRC failure
  // per block and one degraded read if any. Returns the blocks dropped.
  std::vector<size_t> quarantine(FileId id,
                                 const std::vector<size_t>& suspects);
  // Rebuilds quarantined blocks in place through repair(), counting the
  // auto-repairs; a dead target or exhausted transient retries is left to
  // scrub/recovery.
  void self_heal(FileId id, const std::vector<size_t>& blocks);

  sim::Cluster& cluster_;
  const codes::ErasureCode& code_;
  fault::FaultInjector* injector_ = nullptr;
  const uint64_t cache_uid_;
  client::BlockCache* cache_;  // attached block cache (never owned)

  struct ReadCounters {
    std::atomic<size_t> verified_reads{0};
    std::atomic<size_t> crc_failures{0};
    std::atomic<size_t> degraded_reads{0};
    std::atomic<size_t> transient_faults{0};
    std::atomic<size_t> auto_repairs{0};
  };
  mutable ReadCounters counters_;

  // Pinned repair plans keyed by (failed block, sorted helper set). Held by
  // shared_ptr for the store's lifetime, so storm waves never replan even
  // with GALLOPER_PLAN_CACHE=off or after global-cache eviction.
  mutable std::mutex plans_mu_;
  std::map<std::pair<size_t, std::vector<size_t>>,
           std::shared_ptr<const codes::CodecPlan>>
      repair_plans_;

  // Serializes write callers, so the file id chosen before the
  // (unlocked) injector write-fault callbacks is the id the append gets.
  // Injector callbacks may call back into the store (the soak harness's
  // write gate does), so they must NEVER run under mu_.
  std::mutex write_mu_;

  // Guards files_/checksums_/file_block_bytes_/placement_ (see the
  // thread-safety note in the class comment).
  mutable std::shared_mutex mu_;
  // placement_[block slot] → server id (identity unless set_placement /
  // reassign_block changed it). Liveness of slot b is its server's.
  std::vector<size_t> placement_;
  // files_[id][block] — nullopt once lost.
  std::vector<std::vector<std::optional<Buffer>>> files_;
  std::vector<std::vector<uint32_t>> checksums_;  // CRC-32C at write time
  // Per-block cache generation (see the block-cache section above).
  std::vector<std::vector<uint64_t>> block_gens_;
  std::vector<size_t> file_block_bytes_;
};

}  // namespace galloper::store
