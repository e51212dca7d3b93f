// Coordinator: the control plane of the multi-node cluster.
//
// Owns one DataNode per simulated server, the block→node placement (a
// store::place_blocks layout installed into the FileStore, so every
// existing data path — read_range, the striped client, mr::StoreRunner,
// the soak harness — runs against the multi-node layout unchanged), and
// the prioritized background RepairQueue. A plain FileStore with no
// Coordinator is exactly the single-node degenerate case: identity
// placement, no throttles, foreground-only repair.
//
// Node lifecycle:
//  * fail_node(n)    — whole-node kill: the server's liveness epoch goes
//                      odd and every slot it hosts is swept lost (the
//                      FileStore sweep), for every file at once.
//  * restart_node(n) — revive EMPTY (new epoch, blocks stay lost) and
//                      enqueue every slot the node hosts for background
//                      repair; un-parks unrecoverable tasks, since fresh
//                      liveness may have made them repairable.
//  * decommission(n) — drain WITHOUT degraded reads: each slot the node
//                      hosts is cut over to a spare Active node via
//                      FileStore::reassign_block. Resident bytes stay
//                      resident across the cutover (the slot is readable
//                      on the old node before the flip and on the new one
//                      after — no read ever degrades); slots that were
//                      LOST are enqueued so they rebuild onto their new
//                      home. The node ends kDecommissioned and hosts
//                      nothing.
//
// Concurrency: lifecycle calls may race client traffic and the repair
// workers — that is the point. They serialize against each other on an
// internal mutex; everything data-path-visible goes through the
// FileStore's own locks and the server liveness epochs.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/node.h"
#include "cluster/repair_queue.h"
#include "store/file_store.h"
#include "store/placement.h"

namespace galloper::cluster {

struct CoordinatorOptions {
  // Placement over this topology (defaulted to one rack spanning the whole
  // sim::Cluster when left zeroed).
  store::Topology topology{0, 0};
  store::PlacementPolicy policy = store::PlacementPolicy::kSpread;

  size_t node_io_threads = 2;       // each node's private async pool
  double repair_bytes_per_s = 0;    // per-node repair throttle; 0 = off
  size_t repair_workers = 1;
  size_t repair_max_attempts = 16;
};

class Coordinator {
 public:
  // `store` must outlive the coordinator. Installs the topology placement
  // into the store — call before writing files or concurrent traffic.
  explicit Coordinator(store::FileStore& store, CoordinatorOptions opt = {});
  ~Coordinator();  // stops the repair workers

  store::FileStore& store() { return store_; }
  RepairQueue& repair_queue() { return *queue_; }

  size_t num_nodes() const { return nodes_.size(); }
  DataNode& node(size_t n);

  // Slots node n currently hosts (empty once decommissioned).
  std::vector<size_t> blocks_on(size_t n) const;

  void fail_node(size_t n);
  void restart_node(size_t n);

  // Drains node n onto spare Active nodes; returns the slots moved.
  // Requires enough spare capacity (one free Active node per hosted slot).
  std::vector<size_t> decommission(size_t n);

  struct NodeHealth {
    size_t id = 0;
    bool alive = false;
    uint64_t epoch = 0;
    NodeState state = NodeState::kActive;
    size_t slots = 0;            // block slots this node hosts
    size_t lost_blocks = 0;      // lost (file, slot) instances on it
    size_t repairs_completed = 0;
    size_t repair_bytes = 0;
  };
  std::vector<NodeHealth> health() const;

 private:
  // Enqueues slot b of every file whose slot b is unavailable, read from
  // one availability snapshot.
  void enqueue_unavailable(size_t b);

  store::FileStore& store_;
  std::vector<std::unique_ptr<DataNode>> nodes_;
  std::unique_ptr<RepairQueue> queue_;
  std::mutex lifecycle_mu_;  // serializes fail/restart/decommission
};

}  // namespace galloper::cluster
