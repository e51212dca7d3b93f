// Prioritized background repair queue — the cluster's chunk replicator.
//
// Every lost block is a task. Priority is the task's SURVIVING-HELPER
// DEFICIT: how many of the block's preferred repair helpers are themselves
// unavailable right now. A deficit-0 task is a routine local repair (all
// helpers up, cheapest possible rebuild); a high-deficit task belongs to a
// stripe that is one or two more failures from unrecoverable, so it jumps
// the queue — exactly the "most endangered chunks first" policy production
// replicators run (cf. ytsaurus chunk_replicator's priority-by-remaining-
// replicas), specialized to locality: the deficit is measured against the
// PREFERRED helper set, so it also prices how far the repair has degraded
// from the cheap local path toward a global decode.
//
// Priorities are live: they are recomputed from current block availability
// at every pop (a helper healed since enqueue lowers the deficit; a fresh
// kill raises it), with total-lost-blocks-in-file then FIFO order breaking
// ties. A pop ranks every pending task — hundreds after a node restart —
// against ONE FileStore::availability snapshot of their files (one
// shared-lock hold), scoring each with two popcounts against masks fixed
// at construction: deficit = popcount(helpers(b) & ~available), lost =
// popcount(~present). Codes are therefore limited to 64 blocks (checked
// at construction; every shipped shape has at most 12). Measured in
// perfbench's rebuild drain on 4 vCPUs: ~19 us per pop against ~145 us
// per repair. Ranking with a store-lock round-trip and a vector per task
// instead cost ~136 us per pop, as much as the repairs themselves.
//
// Executing a task re-checks everything — still lost? target server
// alive? — because chaos does not wait for the queue: a task whose target
// died is dropped (the node's restart re-enqueues its slots), a stale task
// whose block healed is dropped, a transiently failing repair is requeued
// with a bounded attempt budget, and a structurally unrecoverable task is
// parked in an `unrecoverable` set that node lifecycle events clear (a
// revive can make it recoverable again).
//
// The gather I/O of a repair runs on the TARGET node's own async pool, and
// its bytes are charged against the target node's repair-bandwidth
// throttle BEFORE the repair runs — so a throttled node's queue visibly
// reorders by priority while the bucket refills (bench/macro_cluster's
// CI-gated cell).
//
// drain() is the maintenance barrier the soak tests gate on: it returns
// true only when the queue is empty, nothing is in flight, AND a fresh
// store scan finds no lost block that has an alive target and is not
// parked unrecoverable — so "drained" means "no repair work exists", not
// merely "the queue happens to be momentarily empty".
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "store/file_store.h"

namespace galloper::cluster {

struct RepairQueueOptions {
  size_t workers = 1;       // >1 only helps distinct target nodes
  size_t max_attempts = 16; // requeues per task before parking unrecoverable
};

class RepairQueue {
 public:
  struct Completion {
    store::FileId file = 0;
    size_t block = 0;
    size_t deficit = 0;   // surviving-helper deficit the pop ranked by
    size_t attempts = 0;  // executions this task took
  };

  struct Stats {
    size_t completed = 0;      // repairs that installed bytes
    size_t requeued = 0;       // transient / not-now failures retried
    size_t dropped_stale = 0;  // popped tasks whose block had healed
    size_t dropped_dead = 0;   // popped tasks whose target server was dead
    size_t unrecoverable = 0;  // tasks parked as structurally unrecoverable
    size_t pending = 0;
    size_t in_flight = 0;
  };

  // `store` and `nodes` must outlive the queue; nodes[s] hosts server s.
  RepairQueue(store::FileStore& store,
              const std::vector<std::unique_ptr<DataNode>>& nodes,
              RepairQueueOptions opt = {});
  ~RepairQueue();  // stops and joins the workers

  // Schedules (file, block) for repair. Duplicates of a task already
  // queued or in flight are absorbed.
  void enqueue(store::FileId file, size_t block);

  // Scans the store and enqueues every lost block whose target server is
  // alive and that is not parked unrecoverable. Returns tasks enqueued.
  size_t enqueue_lost();

  // Un-parks every unrecoverable task (cluster liveness changed — what was
  // structurally unrecoverable may not be anymore).
  void clear_unrecoverable();

  // Blocks until no repair work exists (see the header comment) or
  // timeout_s elapses. Lost blocks found by the closing scan are enqueued
  // and waited for, so drain self-corrects dropped-task races.
  bool drain(double timeout_s = 30.0);

  Stats stats() const;
  std::vector<Completion> completions() const;

 private:
  struct Task {
    store::FileId file;
    size_t block;
    uint64_t seq;        // FIFO tiebreak
    size_t attempts = 0;
  };

  struct Pick {
    size_t index = SIZE_MAX;  // into pending_; SIZE_MAX when empty
    size_t deficit = 0;       // the deficit it was ranked by
  };

  void worker_loop();
  // Highest-priority pending task. Caller holds mu_.
  Pick pick_locked() const;

  store::FileStore& store_;
  const std::vector<std::unique_ptr<DataNode>>& nodes_;
  const RepairQueueOptions opt_;
  // Ranking masks over block slots, fixed by the code at construction:
  // helper_masks_[b] has bit h set iff h is a preferred helper of b.
  uint64_t all_blocks_ = 0;
  std::vector<uint64_t> helper_masks_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // workers: work available / stop
  std::condition_variable idle_cv_;  // drain(): pending/in-flight changed
  bool stop_ = false;
  uint64_t next_seq_ = 0;
  std::vector<Task> pending_;
  std::set<std::pair<store::FileId, size_t>> queued_;  // pending ∪ in-flight
  std::set<std::pair<store::FileId, size_t>> unrecoverable_;
  size_t in_flight_ = 0;
  Stats stats_;
  std::vector<Completion> completions_;

  std::vector<std::thread> workers_;
};

}  // namespace galloper::cluster
