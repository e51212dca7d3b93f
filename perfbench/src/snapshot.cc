#include "snapshot.h"

#include <string>

#include "client/cache.h"
#include "client/striped.h"
#include "cluster/coordinator.h"
#include "codes/plan.h"
#include "io/async.h"
#include "store/file_store.h"
#include "util/buffer_pool.h"

namespace perfbench {

using namespace galloper;

Counters take_counters(const Sources& src) {
  Counters c;
  const client::BlockCacheStats cache = client::BlockCache::global().stats();
  c["cache.hits"] = cache.hits;
  c["cache.misses"] = cache.misses;
  c["cache.evictions"] = cache.evictions;
  c["cache.invalidations"] = cache.invalidations;

  const client::ClientStats cl = client::client_stats();
  c["client.reads"] = cl.reads;
  c["client.batches"] = cl.batches;
  c["client.fallbacks"] = cl.fallbacks;
  c["client.cache_reads"] = cl.cache_reads;

  const client::AdmissionControl::Stats adm =
      client::AdmissionControl::global().stats();
  c["admission.admitted"] = adm.admitted;
  c["admission.waited"] = adm.waited;

  if (src.store != nullptr) {
    const store::FileStore::ReadStats rs = src.store->read_stats();
    c["store.verified_reads"] = rs.verified_reads;
    c["store.crc_failures"] = rs.crc_failures;
    c["store.degraded_reads"] = rs.degraded_reads;
    c["store.auto_repairs"] = rs.auto_repairs;
  }

  const codes::PlanCacheStats pc = codes::PlanCache::global().stats();
  c["plan.hits"] = pc.hits;
  c["plan.misses"] = pc.misses;
  for (size_t op = 0; op < codes::kNumPlanOps; ++op) {
    const auto pop = static_cast<codes::PlanOp>(op);
    const codes::PlanOpStats s = codes::plan_op_stats(pop);
    const std::string p = std::string("plan.") + codes::plan_op_name(pop);
    c[p + ".plans"] = s.plans;
    c[p + ".exec_ns"] = s.exec_ns;
    c[p + ".execs"] = s.execs;
  }

  const codes::BatchExecStats be = codes::batch_exec_stats();
  c["exec.bytes"] = be.bytes;
  c["exec.ns"] = be.ns;

  const io::IoStats io = io::AsyncIo::global().stats();
  c["io.fetches"] = io.fetches;
  c["io.bytes_read"] = io.bytes_read;
  c["io.cancelled"] = io.cancelled;
  c["io.hedges_issued"] = io.hedges_issued;
  c["io.hedges_won"] = io.hedges_won;

  const util::BufferPoolStats bp = util::BufferPool::global().stats();
  c["pool.hits"] = bp.hits;
  c["pool.misses"] = bp.misses;

  if (src.coordinator != nullptr) {
    cluster::Coordinator& co = *src.coordinator;
    for (size_t n = 0; n < co.num_nodes(); ++n) {
      cluster::DataNode& node = co.node(n);
      const std::string p = "node." + std::to_string(n);
      c[p + ".io_bytes_read"] = node.io().stats().bytes_read;
      c[p + ".repair_bytes"] = node.repair_bytes();
    }
    const cluster::RepairQueue::Stats q = co.repair_queue().stats();
    c["repair.completed"] = q.completed;
    c["repair.requeued"] = q.requeued;
    c["repair.dropped"] = q.dropped_stale + q.dropped_dead;
  }
  return c;
}

void reset_gauges() { util::BufferPool::global().reset_peak(); }

Gauges read_gauges() {
  Gauges g;
  g.pool_peak_outstanding_mib =
      static_cast<double>(
          util::BufferPool::global().stats().peak_outstanding_bytes) /
      (1 << 20);
  const io::IoStats io = io::AsyncIo::global().stats();
  g.io_fetch_p50_us = io.p50_s * 1e6;
  g.io_fetch_p99_us = io.p99_s * 1e6;
  g.io_queue_peak = io.queue_peak;
  return g;
}

}  // namespace perfbench
