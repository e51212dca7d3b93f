#include "cluster/coordinator.h"

#include <algorithm>

#include "util/check.h"

namespace galloper::cluster {

Coordinator::Coordinator(store::FileStore& store, CoordinatorOptions opt)
    : store_(store) {
  sim::Cluster& cluster = store.cluster();
  store::Topology topo = opt.topology;
  if (topo.servers() == 0) topo = store::Topology{1, cluster.size()};
  GALLOPER_CHECK_MSG(topo.servers() <= cluster.size(),
                     "topology larger than the simulated cluster");
  store_.set_placement(
      store::place_blocks(store.code(), topo, opt.policy));

  nodes_.reserve(cluster.size());
  for (size_t s = 0; s < cluster.size(); ++s)
    nodes_.push_back(std::make_unique<DataNode>(
        cluster.server(s), opt.node_io_threads, opt.repair_bytes_per_s));

  RepairQueueOptions qopt;
  qopt.workers = opt.repair_workers;
  qopt.max_attempts = opt.repair_max_attempts;
  queue_ = std::make_unique<RepairQueue>(store_, nodes_, qopt);
}

Coordinator::~Coordinator() = default;  // ~RepairQueue joins the workers

DataNode& Coordinator::node(size_t n) {
  GALLOPER_CHECK(n < nodes_.size());
  return *nodes_[n];
}

std::vector<size_t> Coordinator::blocks_on(size_t n) const {
  GALLOPER_CHECK(n < nodes_.size());
  std::vector<size_t> out;
  const auto placement = store_.placement();
  for (size_t b = 0; b < placement.size(); ++b)
    if (placement[b] == n) out.push_back(b);
  return out;
}

void Coordinator::fail_node(size_t n) {
  GALLOPER_CHECK(n < nodes_.size());
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  store_.fail_server(n);
}

void Coordinator::restart_node(size_t n) {
  GALLOPER_CHECK(n < nodes_.size());
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  store_.revive_server(n);
  // Fresh liveness: tasks parked unrecoverable may now have enough
  // helpers, and every slot this node hosts needs a rebuild (revive is
  // EMPTY by contract — the epoch fix in FileStore::repair is what makes
  // that contract hold against in-flight repairs).
  queue_->clear_unrecoverable();
  for (size_t b : blocks_on(n)) enqueue_unavailable(b);
}

void Coordinator::enqueue_unavailable(size_t b) {
  const auto snap = store_.availability();
  for (store::FileId id = 0; id < snap.files.size(); ++id)
    if (!(snap.files[id].available >> b & 1)) queue_->enqueue(id, b);
}

std::vector<size_t> Coordinator::decommission(size_t n) {
  GALLOPER_CHECK(n < nodes_.size());
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  DataNode& src = *nodes_[n];
  GALLOPER_CHECK_MSG(src.alive(), "decommission wants a live node to drain");
  src.set_state(NodeState::kDraining);

  const std::vector<size_t> moved = blocks_on(n);
  for (size_t b : moved) {
    // A spare: an alive Active node hosting no slot. Recomputed per block
    // so consecutive cutovers spread over distinct spares (placement keeps
    // its one-slot-per-server invariant).
    size_t spare = SIZE_MAX;
    const auto placement = store_.placement();
    for (size_t s = 0; s < nodes_.size(); ++s) {
      if (s == n || !nodes_[s]->alive()) continue;
      if (nodes_[s]->state() != NodeState::kActive) continue;
      if (std::find(placement.begin(), placement.end(), s) != placement.end())
        continue;
      spare = s;
      break;
    }
    GALLOPER_CHECK_MSG(spare != SIZE_MAX,
                       "no spare node to drain slot " << b << " onto");
    // The cutover: resident bytes stay resident (readable on the old node
    // until this line, on the new node after — never degraded), and a slot
    // that was LOST rebuilds onto its new home via the queue.
    store_.reassign_block(b, spare);
    enqueue_unavailable(b);
  }
  src.set_state(NodeState::kDecommissioned);
  return moved;
}

std::vector<Coordinator::NodeHealth> Coordinator::health() const {
  std::vector<NodeHealth> out;
  out.reserve(nodes_.size());
  const auto placement = store_.placement();
  const auto snap = store_.availability();
  for (size_t s = 0; s < nodes_.size(); ++s) {
    NodeHealth h;
    h.id = s;
    h.alive = nodes_[s]->alive();
    h.epoch = nodes_[s]->epoch();
    h.state = nodes_[s]->state();
    h.repairs_completed = nodes_[s]->repairs_completed();
    h.repair_bytes = nodes_[s]->repair_bytes();
    for (size_t b = 0; b < placement.size(); ++b) {
      if (placement[b] != s) continue;
      ++h.slots;
      for (const auto& m : snap.files)
        if (!(m.available >> b & 1)) ++h.lost_blocks;
    }
    out.push_back(h);
  }
  return out;
}

}  // namespace galloper::cluster
