#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "client/striped.h"
#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "cluster/repair_queue.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "store/file_store.h"
#include "util/rng.h"

namespace galloper::cluster {
namespace {

using galloper::Buffer;
using galloper::Rng;
using galloper::random_buffer;

// Every data path must run unchanged against the multi-node layout: the
// coordinator installs a placement and the store, the range reads, and the
// pipelined client all keep returning the exact original bytes.
TEST(CoordinatorTest, PlacementInstalledAndDataPathsUnchanged) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  Coordinator coord(fs);

  const auto placement = fs.placement();
  ASSERT_EQ(placement.size(), code.num_blocks());
  std::set<size_t> servers(placement.begin(), placement.end());
  EXPECT_EQ(servers.size(), placement.size()) << "placement must be distinct";

  Rng rng(3);
  const Buffer file = random_buffer(code.engine().num_chunks() * 96, rng);
  const store::FileId id = fs.write(file);
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_EQ(*fs.read_range(id, 5, 200), Buffer(file.begin() + 5,
                                               file.begin() + 205));
  client::StripedReader reader(fs);
  EXPECT_EQ(*reader.read_range(id, 0, file.size()), file);

  // blocks_on / health agree with the placement: one slot per hosting
  // node, zero on the spares, nothing lost.
  size_t total_slots = 0;
  for (const auto& h : coord.health()) {
    EXPECT_TRUE(h.alive);
    EXPECT_EQ(h.state, NodeState::kActive);
    EXPECT_EQ(h.lost_blocks, 0u);
    EXPECT_LE(h.slots, 1u);
    EXPECT_EQ(h.slots, coord.blocks_on(h.id).size());
    total_slots += h.slots;
  }
  EXPECT_EQ(total_slots, code.num_blocks());
}

// Whole-node kill and restart: the kill sweeps the node's slot lost in
// every file at once (reads degrade but stay correct), and the restart
// revives EMPTY and hands the rebuild to the background queue — drain()
// is the barrier after which everything is healed.
TEST(CoordinatorTest, FailRestartHealsThroughRepairQueue) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  CoordinatorOptions opt;
  opt.repair_workers = 2;
  Coordinator coord(fs, opt);

  Rng rng(5);
  std::vector<Buffer> files;
  std::vector<store::FileId> ids;
  for (int i = 0; i < 3; ++i) {
    files.push_back(random_buffer(code.engine().num_chunks() * 64, rng));
    ids.push_back(fs.write(files.back()));
  }

  const size_t victim_block = 2;
  const size_t srv = fs.server_of(victim_block);
  coord.fail_node(srv);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_FALSE(fs.block_available(ids[i], victim_block));
    EXPECT_EQ(*fs.read(ids[i]), files[i]) << "degraded read stays correct";
  }

  coord.restart_node(srv);
  ASSERT_TRUE(coord.repair_queue().drain(60.0));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(fs.block_available(ids[i], victim_block));
    EXPECT_EQ(*fs.read(ids[i]), files[i]);
  }
  const auto stats = coord.repair_queue().stats();
  EXPECT_EQ(stats.completed, ids.size());
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GE(coord.node(srv).repairs_completed(), ids.size());
  EXPECT_EQ(coord.node(srv).epoch() % 2, 0u);
  EXPECT_GE(coord.node(srv).epoch(), 2u);
}

// The queue's priority policy, observed end to end: tasks whose stripe has
// already lost a preferred helper (surviving-helper deficit 1) must all
// complete before any routine deficit-0 task, even though the deficit-0
// tasks of half the files were enqueued interleaved with them. Injected
// read latency slows each rebuild so the backlog sits in the queue where
// the live priority ordering is what decides pop order.
TEST(RepairQueueTest, MostEndangeredStripesRepairFirst) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  CoordinatorOptions opt;
  opt.repair_workers = 1;  // sequential completions: order is observable
  Coordinator coord(fs, opt);

  Rng rng(7);
  const size_t num_files = 6;
  std::vector<Buffer> files;
  std::vector<store::FileId> ids;
  for (size_t i = 0; i < num_files; ++i) {
    files.push_back(random_buffer(code.engine().num_chunks() * 64, rng));
    ids.push_back(fs.write(files.back()));
  }

  const size_t victim = 0;
  const auto helpers = fs.code().repair_helpers(victim);
  ASSERT_FALSE(helpers.empty());
  const size_t helper = helpers[0];
  // Files 0..2 lose a preferred helper of the victim block first: their
  // victim repairs will pop at deficit 1, files 3..5 at deficit 0.
  const std::set<store::FileId> endangered{ids[0], ids[1], ids[2]};
  for (store::FileId id : endangered) fs.corrupt_block(id, helper, 0);
  fs.scrub(/*quarantine=*/true);
  for (store::FileId id : endangered)
    ASSERT_FALSE(fs.block_available(id, helper));

  // Slow every rebuild's gather so the backlog outlives the first pop.
  fault::FaultInjector inj(17);
  inj.set_read_latency(1.0, 0.03);
  fs.set_fault_injector(&inj);

  const size_t srv = fs.server_of(victim);
  coord.fail_node(srv);
  coord.restart_node(srv);  // enqueues the victim slot for all six files
  ASSERT_TRUE(coord.repair_queue().drain(120.0));
  fs.set_fault_injector(nullptr);

  std::vector<RepairQueue::Completion> victim_repairs;
  for (const auto& c : coord.repair_queue().completions())
    if (c.block == victim) victim_repairs.push_back(c);
  ASSERT_EQ(victim_repairs.size(), num_files);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(victim_repairs[i].deficit, 1u)
        << "completion " << i << " should be an endangered stripe";
    EXPECT_TRUE(endangered.count(victim_repairs[i].file));
  }
  for (size_t i = 3; i < num_files; ++i) {
    EXPECT_EQ(victim_repairs[i].deficit, 0u)
        << "routine repairs must not jump endangered ones";
    EXPECT_FALSE(endangered.count(victim_repairs[i].file));
  }

  // drain()'s closing scan also healed the quarantined helpers.
  for (size_t i = 0; i < num_files; ++i) {
    EXPECT_TRUE(fs.block_available(ids[i], victim));
    EXPECT_TRUE(fs.block_available(ids[i], helper));
    EXPECT_EQ(*fs.read(ids[i]), files[i]);
  }
}

// The whole pop policy, observed end to end: (helper deficit desc, lost
// blocks in the file desc, FIFO). One worker is held in its throttle
// charge on a gate task while the backlog is built, so every pop below is
// decided by the queue's ranking alone, never by enqueue timing. Then,
// after enqueue and before any pop, a helper of the LAST-enqueued task is
// lost: the priority is live, so that task jumps the whole backlog.
TEST(RepairQueueTest, PopOrderFollowsTheWholePolicy) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  CoordinatorOptions opt;
  opt.repair_workers = 1;  // sequential completions: order is observable
  Coordinator coord(fs, opt);
  RepairQueue& queue = coord.repair_queue();

  Rng rng(19);
  std::vector<Buffer> files;
  std::vector<store::FileId> ids;
  for (size_t i = 0; i < 6; ++i) {
    files.push_back(random_buffer(code.engine().num_chunks() * 64, rng));
    ids.push_back(fs.write(files.back()));
  }
  const store::FileId gate = ids[0], a = ids[1], b = ids[2], c = ids[3],
                      d = ids[4], e = ids[5];

  const size_t victim = 0;
  const auto helpers = fs.code().repair_helpers(victim);
  ASSERT_FALSE(helpers.empty());
  // A second slot outside the victim's helper set: losing it raises a
  // file's lost count without touching the victim task's deficit.
  size_t other = SIZE_MAX;
  for (size_t s = 1; s < code.num_blocks() && other == SIZE_MAX; ++s)
    if (std::find(helpers.begin(), helpers.end(), s) == helpers.end())
      other = s;
  ASSERT_NE(other, SIZE_MAX);

  // Gate: a bucket charged far into debt holds the worker in
  // acquire_repair_bandwidth, after the gate task's pop, until un-throttled.
  DataNode& target = coord.node(fs.server_of(victim));
  target.set_repair_bandwidth(1.0);
  target.acquire_repair_bandwidth(size_t{1} << 30);
  fs.corrupt_block(gate, victim, 0);
  fs.scrub(/*quarantine=*/true);
  queue.enqueue(gate, victim);
  const auto t0 = std::chrono::steady_clock::now();
  while (queue.stats().in_flight != 1 || queue.stats().pending != 0) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
        << "the worker never popped the gate task";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Backlog: the victim slot of files c, a, b, e, d, enqueued in that
  // order. File b has also lost `other` (lost count 2, deficit 0).
  for (store::FileId id : {a, b, c, d, e}) fs.corrupt_block(id, victim, 0);
  fs.corrupt_block(b, other, 0);
  fs.scrub(/*quarantine=*/true);
  for (store::FileId id : {c, a, b, e, d}) queue.enqueue(id, victim);
  // Live change: d loses a preferred helper of its queued task (deficit 1).
  fs.corrupt_block(d, helpers[0], 0);
  fs.scrub(/*quarantine=*/true);
  ASSERT_FALSE(fs.block_available(d, helpers[0]));
  EXPECT_EQ(queue.stats().pending, 5u);

  target.set_repair_bandwidth(0);  // open the gate
  ASSERT_TRUE(queue.drain(120.0));

  std::vector<store::FileId> order;
  std::vector<size_t> deficits;
  for (const auto& comp : queue.completions()) {
    if (comp.block != victim) continue;  // drain's closing-scan repairs
    order.push_back(comp.file);
    deficits.push_back(comp.deficit);
  }
  // d: deficit 1 jumps everything; b: deficit 0 but two lost slots; then
  // c, a, e in FIFO order among equal keys.
  EXPECT_EQ(order, (std::vector<store::FileId>{gate, d, b, c, a, e}));
  EXPECT_EQ(deficits, (std::vector<size_t>{0, 1, 0, 0, 0, 0}));

  // drain()'s closing scan healed the blocks no task was enqueued for.
  for (size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(*fs.read(ids[i]), files[i]);
  EXPECT_TRUE(fs.block_available(b, other));
  EXPECT_TRUE(fs.block_available(d, helpers[0]));
}

// A task that exhausts its attempt budget (here: every helper gather is
// force-failed, so each execution throws TransientError) parks in the
// unrecoverable set instead of spinning forever. The queue still reports
// drained — a parked task is not pending WORK — and the next node
// lifecycle event un-parks it, after which the block heals.
TEST(RepairQueueTest, UnrecoverableParksAndRestartUnparks) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  CoordinatorOptions opt;
  opt.repair_max_attempts = 2;
  Coordinator coord(fs, opt);

  Rng rng(9);
  const Buffer file = random_buffer(code.engine().num_chunks() * 64, rng);
  const store::FileId id = fs.write(file);

  const size_t srv = fs.server_of(0);
  coord.fail_node(srv);
  // Arm enough forced read failures to outlast both queue attempts (each
  // repair call burns a few on its internal retries).
  fault::FaultInjector inj(23);
  inj.fail_next_reads(10'000);
  fs.set_fault_injector(&inj);

  coord.restart_node(srv);  // enqueues a task whose every gather will fail
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (coord.repair_queue().stats().unrecoverable == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(coord.repair_queue().stats().unrecoverable, 1u);
  EXPECT_GE(coord.repair_queue().stats().requeued, 1u);
  EXPECT_TRUE(coord.repair_queue().drain(30.0))
      << "a parked task is not pending work: drain must still succeed";
  EXPECT_FALSE(fs.block_available(id, 0));

  // The fault storm passes; the next lifecycle event clears the parked
  // set and the closing drain scan picks the block back up.
  inj.clear();
  fs.set_fault_injector(nullptr);
  coord.restart_node(srv);
  ASSERT_TRUE(coord.repair_queue().drain(60.0));
  EXPECT_TRUE(fs.block_available(id, 0));
  EXPECT_EQ(*fs.read(id), file);
}

// Decommission drains a node with NO degraded reads: resident bytes ride
// the placement cutover (available before and after), and a slot that was
// lost at decommission time rebuilds onto its new home via the queue.
TEST(CoordinatorTest, DecommissionMovesBlocksWithoutDegradedReads) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  Coordinator coord(fs);

  Rng rng(11);
  const Buffer file = random_buffer(code.engine().num_chunks() * 96, rng);
  const store::FileId id = fs.write(file);

  // Healthy-slot drain: bytes stay resident across the cutover.
  const size_t slot = 3;
  const size_t old_srv = fs.server_of(slot);
  const auto degraded_before = fs.read_stats().degraded_reads;
  const auto moved = coord.decommission(old_srv);
  ASSERT_EQ(moved, std::vector<size_t>{slot});
  EXPECT_NE(fs.server_of(slot), old_srv);
  EXPECT_TRUE(coord.blocks_on(old_srv).empty());
  EXPECT_EQ(coord.node(old_srv).state(), NodeState::kDecommissioned);
  EXPECT_TRUE(fs.block_available(id, slot))
      << "resident bytes must survive the cutover";
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_EQ(fs.read_stats().degraded_reads, degraded_before)
      << "decommission of a healthy node must never degrade a read";

  // Lost-slot drain: the slot is quarantined first, the cutover moves the
  // (empty) slot, and the queue rebuilds it onto the new home.
  fs.corrupt_block(id, slot, 0);
  fs.scrub(/*quarantine=*/true);
  ASSERT_FALSE(fs.block_available(id, slot));
  const size_t second_srv = fs.server_of(slot);
  coord.decommission(second_srv);
  EXPECT_NE(fs.server_of(slot), second_srv);
  ASSERT_TRUE(coord.repair_queue().drain(60.0));
  EXPECT_TRUE(fs.block_available(id, slot));
  EXPECT_EQ(*fs.read(id), file);
}

// The per-node repair throttle is a real token bucket over wall time:
// charging it from empty paces the caller at the configured rate, and an
// unthrottled node never blocks.
TEST(DataNodeTest, RepairBandwidthThrottlePaces) {
  sim::Simulation sim;
  sim::Cluster cluster(sim, 2, sim::ServerSpec{});
  DataNode throttled(cluster.server(0), /*io_threads=*/1,
                     /*repair_bytes_per_s=*/1e7);
  DataNode open(cluster.server(1), /*io_threads=*/1, /*repair_bytes_per_s=*/0);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) throttled.acquire_repair_bandwidth(500'000);
  const double paced =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Nominal wait is 0.10 s (the first acquire is free at tokens == 0, the
  // next two each wait 0.05 s of refill); leave a margin for clock and
  // sleep granularity, which can deliver a fraction of a ms early.
  EXPECT_GE(paced, 0.09) << "1.5 MB at 10 MB/s from an empty bucket";

  const auto t1 = std::chrono::steady_clock::now();
  open.acquire_repair_bandwidth(1'000'000'000);
  const double unthrottled =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  EXPECT_LT(unthrottled, 0.05);

  throttled.set_repair_bandwidth(0);  // un-throttle: future charges are free
  const auto t2 = std::chrono::steady_clock::now();
  throttled.acquire_repair_bandwidth(1'000'000'000);
  EXPECT_LT(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t2)
          .count(),
      0.2);
}

// The rolling-restart soak (the satellite the CI smoke gates on): every
// hosting node is killed and restarted in sequence while reader threads
// hammer the files, and at every step — including mid-kill — delivered
// bytes are bit-identical to the originals. At exit the queue is fully
// drained and every block is back.
TEST(ClusterSoakTest, RollingRestartUnderConcurrentReadsIsBitIdentical) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  CoordinatorOptions opt;
  opt.repair_workers = 2;
  Coordinator coord(fs, opt);

  Rng rng(13);
  const size_t num_files = 3;
  std::vector<Buffer> files;
  std::vector<store::FileId> ids;
  for (size_t i = 0; i < num_files; ++i) {
    files.push_back(random_buffer(code.engine().num_chunks() * 96, rng));
    ids.push_back(fs.write(files.back()));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, mismatches{0}, unavailable{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      client::StripedReader reader(fs);
      Rng trng(101 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = trng.next_below(num_files);
        const size_t len = files[i].size();
        const size_t off = trng.next_below(len / 2);
        const size_t n = 1 + trng.next_below(len - off);
        const auto out = reader.read_range(ids[i], off, n);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (!out.has_value()) {
          // Transient undecodable window while a kill races a rebuild —
          // acceptable; silent wrong bytes are not.
          unavailable.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!std::equal(out->begin(), out->end(), files[i].begin() + off))
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The rolling restart: one hosting node at a time, waiting for the
  // cluster to heal before moving on — the rolling-upgrade discipline.
  const auto placement = fs.placement();
  for (size_t srv : placement) {
    coord.fail_node(srv);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    coord.restart_node(srv);
    ASSERT_TRUE(coord.repair_queue().drain(60.0))
        << "queue failed to drain after restarting node " << srv;
  }
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u) << "a read returned wrong bytes";
  for (size_t i = 0; i < num_files; ++i) {
    for (size_t b = 0; b < code.num_blocks(); ++b)
      EXPECT_TRUE(fs.block_available(ids[i], b))
          << "file " << i << " block " << b << " still lost after the roll";
    EXPECT_EQ(*fs.read(ids[i]), files[i]);
  }
  const auto stats = coord.repair_queue().stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GE(stats.completed, placement.size() * num_files)
      << "every (file, slot) the roll killed must have been rebuilt";
}

}  // namespace
}  // namespace galloper::cluster
