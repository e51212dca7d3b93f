#include "cluster/repair_queue.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "fault/fault.h"
#include "util/check.h"

namespace galloper::cluster {

RepairQueue::RepairQueue(store::FileStore& store,
                         const std::vector<std::unique_ptr<DataNode>>& nodes,
                         RepairQueueOptions opt)
    : store_(store), nodes_(nodes), opt_(opt) {
  GALLOPER_CHECK(opt_.workers >= 1);
  const size_t n = store_.code().num_blocks();
  GALLOPER_CHECK_MSG(n <= 64, "the repair queue ranks codes of <= 64 blocks");
  all_blocks_ = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  helper_masks_.resize(n);
  for (size_t b = 0; b < n; ++b)
    for (size_t h : store_.code().repair_helpers(b))
      helper_masks_[b] |= uint64_t{1} << h;
  workers_.reserve(opt_.workers);
  for (size_t w = 0; w < opt_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

RepairQueue::~RepairQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void RepairQueue::enqueue(store::FileId file, size_t block) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queued_.insert({file, block}).second) return;  // already scheduled
    pending_.push_back(Task{file, block, next_seq_++});
  }
  cv_.notify_one();
}

size_t RepairQueue::enqueue_lost() {
  const auto snap = store_.availability();
  size_t scheduled = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (store::FileId id = 0; id < snap.files.size(); ++id) {
      // Lost (no bytes) on a slot whose server is alive.
      for (uint64_t owed = snap.live_slots & ~snap.files[id].present;
           owed != 0; owed &= owed - 1) {
        const size_t b = static_cast<size_t>(std::countr_zero(owed));
        if (unrecoverable_.count({id, b})) continue;
        if (!queued_.insert({id, b}).second) continue;
        pending_.push_back(Task{id, b, next_seq_++});
        ++scheduled;
      }
    }
  }
  if (scheduled > 0) cv_.notify_all();
  return scheduled;
}

void RepairQueue::clear_unrecoverable() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.unrecoverable = 0;
  unrecoverable_.clear();
}

RepairQueue::Pick RepairQueue::pick_locked() const {
  // Live priority: (helper deficit desc, file's total lost blocks desc,
  // seq asc), recomputed per pop because repairs and kills since enqueue
  // change both components. Every pending task is ranked against ONE
  // store snapshot: two popcounts per task, one shared-lock hold per pop.
  std::vector<store::FileId> files;
  files.reserve(pending_.size());
  for (const Task& t : pending_) files.push_back(t.file);
  const auto snap = store_.availability(files);
  Pick best;
  size_t best_lost = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Task& t = pending_[i];
    const auto& m = snap.files[i];
    const size_t d = static_cast<size_t>(
        std::popcount(helper_masks_[t.block] & ~m.available));
    const size_t lost =
        static_cast<size_t>(std::popcount(all_blocks_ & ~m.present));
    if (best.index == SIZE_MAX || d > best.deficit ||
        (d == best.deficit && lost > best_lost) ||
        (d == best.deficit && lost == best_lost &&
         t.seq < pending_[best.index].seq)) {
      best = Pick{i, d};
      best_lost = lost;
    }
  }
  return best;
}

void RepairQueue::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (stop_) return;
    const Pick pick = pick_locked();
    if (pick.index == SIZE_MAX) continue;
    Task task = pending_[pick.index];
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(pick.index));
    ++in_flight_;
    lock.unlock();

    enum class Outcome { kDone, kStale, kDead, kRequeue, kUnrecoverable };
    Outcome outcome;
    ++task.attempts;
    const size_t server = store_.server_of(task.block);
    if (store_.block_available(task.file, task.block)) {
      outcome = Outcome::kStale;  // healed since enqueue (reader self-heal)
    } else if (!store_.cluster().server(server).alive()) {
      // Target died while queued: drop — the node's restart re-enqueues
      // its slots, and drain()'s closing scan self-corrects any race.
      outcome = Outcome::kDead;
    } else {
      DataNode* node = server < nodes_.size() ? nodes_[server].get() : nullptr;
      const size_t bytes = store_.block_bytes(task.file);
      // Charge the throttle BEFORE the repair: the bucket paces admission
      // into the rebuild, so a backlog on a throttled node stays IN the
      // queue, where priority keeps reordering it.
      if (node != nullptr) node->acquire_repair_bandwidth(bytes);
      try {
        const auto helpers =
            store_.repair(task.file, task.block,
                          node != nullptr ? &node->io() : nullptr);
        if (helpers.has_value()) {
          if (node != nullptr) node->record_repair(bytes);
          outcome = Outcome::kDone;
        } else if (!store_.cluster().server(server).alive()) {
          outcome = Outcome::kDead;  // killed mid-repair; epoch check held
        } else if (task.attempts < opt_.max_attempts) {
          // Structurally unrecoverable NOW — but a concurrent revive or a
          // peer's repair can change that; retry within the budget.
          outcome = Outcome::kRequeue;
        } else {
          outcome = Outcome::kUnrecoverable;
        }
      } catch (const fault::TransientError&) {
        outcome = task.attempts < opt_.max_attempts ? Outcome::kRequeue
                                                    : Outcome::kUnrecoverable;
      }
    }

    lock.lock();
    --in_flight_;
    switch (outcome) {
      case Outcome::kDone:
        ++stats_.completed;
        completions_.push_back(
            Completion{task.file, task.block, pick.deficit, task.attempts});
        queued_.erase({task.file, task.block});
        break;
      case Outcome::kStale:
        ++stats_.dropped_stale;
        queued_.erase({task.file, task.block});
        break;
      case Outcome::kDead:
        ++stats_.dropped_dead;
        queued_.erase({task.file, task.block});
        break;
      case Outcome::kRequeue:
        ++stats_.requeued;
        pending_.push_back(Task{task.file, task.block, next_seq_++,
                                task.attempts});
        break;
      case Outcome::kUnrecoverable:
        ++stats_.unrecoverable;
        unrecoverable_.insert({task.file, task.block});
        queued_.erase({task.file, task.block});
        break;
    }
    if (outcome == Outcome::kRequeue) cv_.notify_one();
    idle_cv_.notify_all();
  }
}

bool RepairQueue::drain(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool idle = idle_cv_.wait_until(lock, deadline, [this] {
        return pending_.empty() && in_flight_ == 0;
      });
      if (!idle) return false;
    }
    // Closing scan: anything still lost with an alive target is work the
    // queue owes (a dropped-task race, or a revive since the last pass).
    if (enqueue_lost() == 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

RepairQueue::Stats RepairQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.pending = pending_.size();
  s.in_flight = in_flight_;
  return s;
}

std::vector<RepairQueue::Completion> RepairQueue::completions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completions_;
}

}  // namespace galloper::cluster
