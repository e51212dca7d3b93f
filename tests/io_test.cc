// Tests for the async I/O layer: positional File I/O with the O_DIRECT
// alignment fallback, AsyncIo submission/completion/cancellation, and
// FetchSet's first-result-wins hedging — including the determinism the
// store paths rely on (fixed hedge deadlines, loser cancellation).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/async.h"
#include "io/fetch.h"
#include "io/io.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper {
namespace {

namespace fs = std::filesystem;

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("galloper_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path path(const std::string& name) const { return dir_ / name; }

  fs::path dir_;
};

Buffer pattern(size_t n, uint64_t seed = 7) {
  Rng rng(seed);
  return random_buffer(n, rng);
}

// ---------- File -----------------------------------------------------------

TEST_F(IoTest, CreateWriteReadRoundTrip) {
  const Buffer data = pattern(100000);
  {
    io::File out = io::File::create(path("f.bin"));
    out.pwrite_full(data.data(), data.size(), 0);
    out.sync();
  }
  io::File in = io::File::open_read(path("f.bin"));
  EXPECT_EQ(in.size(), data.size());
  Buffer got(data.size());
  in.pread_full(got.data(), got.size(), 0);
  EXPECT_EQ(got, data);
}

TEST_F(IoTest, PositionalOpsAreIndependent) {
  const Buffer data = pattern(8192);
  io::File out = io::File::create(path("f.bin"));
  // Write out of order; positional ops carry their own offsets.
  out.pwrite_full(data.data() + 4096, 4096, 4096);
  out.pwrite_full(data.data(), 4096, 0);
  Buffer got(8192);
  io::File in = io::File::open_read(path("f.bin"));
  in.pread_full(got.data() + 4096, 4096, 4096);
  in.pread_full(got.data(), 4096, 0);
  EXPECT_EQ(got, data);
}

TEST_F(IoTest, ShortReadPastEofFailsLoudly) {
  const Buffer data = pattern(1000);
  {
    io::File out = io::File::create(path("f.bin"));
    out.pwrite_full(data.data(), data.size(), 0);
  }
  io::File in = io::File::open_read(path("f.bin"));
  Buffer got(2000);
  EXPECT_THROW(in.pread_full(got.data(), got.size(), 0), CheckError);
  // pread_some reports the truncation instead of throwing.
  EXPECT_EQ(in.pread_some(got.data(), got.size(), 0), 1000u);
  EXPECT_EQ(in.pread_some(got.data(), got.size(), 1000), 0u);
}

TEST_F(IoTest, OpenMissingFileThrows) {
  EXPECT_THROW(io::File::open_read(path("nope.bin")), CheckError);
}

TEST_F(IoTest, MoveTransfersOwnership) {
  io::File out = io::File::create(path("f.bin"));
  const Buffer data = pattern(64);
  out.pwrite_full(data.data(), data.size(), 0);
  io::File moved = std::move(out);
  EXPECT_FALSE(out.is_open());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.is_open());
  EXPECT_EQ(moved.size(), 64u);
}

// O_DIRECT is best-effort: tmpfs refuses it at open (the handle falls back
// to buffered), real filesystems grant it but then every unaligned op must
// route to the fallback descriptor. Both arms must yield identical bytes.
TEST_F(IoTest, DirectTryFallsBackAndStaysCorrect) {
  const Buffer data = pattern(3 * io::File::kDirectAlign + 123);
  {
    io::File out = io::File::create(path("f.bin"), io::File::Direct::kTry);
    // Unaligned length + unaligned offsets: must work whether or not the
    // direct descriptor was granted.
    out.pwrite_full(data.data(), data.size(), 0);
  }
  io::File in = io::File::open_read(path("f.bin"), io::File::Direct::kTry);
  Buffer got(data.size());
  // Aligned head (direct-eligible) and unaligned tail (fallback) both land.
  in.pread_full(got.data(), io::File::kDirectAlign, 0);
  in.pread_full(got.data() + io::File::kDirectAlign,
                got.size() - io::File::kDirectAlign, io::File::kDirectAlign);
  EXPECT_EQ(got, data);
  io::File never = io::File::open_read(path("f.bin"), io::File::Direct::kNever);
  EXPECT_FALSE(never.direct_active());
}

// ---------- AsyncIo --------------------------------------------------------

TEST_F(IoTest, ScatterGatherReadsAndWrites) {
  const size_t kBlocks = 8, kBytes = 4096;
  const Buffer data = pattern(kBlocks * kBytes);
  io::AsyncIo pool(3);
  io::File out = io::File::create(path("f.bin"));
  std::vector<io::OpRef> writes;
  for (size_t b = 0; b < kBlocks; ++b)
    writes.push_back(
        pool.submit_write(out, data.data() + b * kBytes, kBytes, b * kBytes));
  io::AsyncIo::wait_all(writes);

  io::File in = io::File::open_read(path("f.bin"));
  Buffer got(data.size());
  std::vector<io::OpRef> reads;
  for (size_t b = 0; b < kBlocks; ++b)
    reads.push_back(
        pool.submit_read(in, got.data() + b * kBytes, kBytes, b * kBytes));
  io::AsyncIo::wait_all(reads);
  EXPECT_EQ(got, data);

  const io::IoStats st = pool.stats();
  EXPECT_EQ(st.ops, 2 * kBlocks);
  EXPECT_EQ(st.reads, kBlocks);
  EXPECT_EQ(st.writes, kBlocks);
  EXPECT_EQ(st.bytes_read, kBlocks * kBytes);
  EXPECT_EQ(st.bytes_written, kBlocks * kBytes);
  EXPECT_EQ(st.threads, 3u);
  EXPECT_GE(st.queue_peak, 1u);
  EXPECT_GT(st.p50_s, 0.0);
  EXPECT_GE(st.p99_s, st.p50_s);
}

TEST_F(IoTest, SubmitManyEnqueuesWholeBatch) {
  io::AsyncIo pool(2);
  std::vector<int> hits(16, 0);
  std::vector<std::tuple<io::OpKind, size_t, io::Op::Body>> batch;
  for (size_t i = 0; i < hits.size(); ++i)
    batch.emplace_back(io::OpKind::kFetch, 0,
                       [&hits, i](io::Op&) { hits[i] = 1; });
  io::AsyncIo::wait_all(pool.submit_many(std::move(batch)));
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 16);
  EXPECT_EQ(pool.stats().fetches, 16u);
}

TEST_F(IoTest, WaitRethrowsBodyException) {
  io::AsyncIo pool(1);
  io::OpRef op = pool.submit(io::OpKind::kRead, 0, [](io::Op&) {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(op->wait(), std::runtime_error);
  // wait_all joins everything, then rethrows the first error in submission
  // order.
  std::vector<io::OpRef> ops;
  ops.push_back(pool.submit(io::OpKind::kRead, 0,
                            [](io::Op&) { throw std::runtime_error("first"); }));
  ops.push_back(pool.submit(io::OpKind::kRead, 0, [](io::Op&) {}));
  try {
    io::AsyncIo::wait_all(ops);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_TRUE(ops[1]->done());
}

TEST_F(IoTest, CancelQueuedOpNeverRuns) {
  io::AsyncIo pool(1);  // one worker → the second op waits in the queue
  io::OpRef blocker =
      pool.submit(io::OpKind::kRead, 0, [](io::Op& op) { op.stall(0.2); });
  io::OpRef victim =
      pool.submit(io::OpKind::kRead, 0, [](io::Op&) { ADD_FAILURE(); });
  victim->cancel();
  victim->wait();  // returns without rethrow; the body never ran
  EXPECT_TRUE(victim->cancelled());
  blocker->wait();
  EXPECT_EQ(pool.stats().cancelled, 1u);
  EXPECT_EQ(pool.stats().ops, 1u);  // only the blocker completed
}

TEST_F(IoTest, CancelWakesARunningStall) {
  io::AsyncIo pool(1);
  bool bailed = false;
  std::atomic<bool> started{false};
  io::OpRef op = pool.submit(io::OpKind::kRead, 0, [&](io::Op& o) {
    started.store(true, std::memory_order_release);
    bailed = !o.stall(30.0);  // would park for 30 s without the cancel
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  const double took = seconds_of([&] {
    op->cancel();
    op->wait();
  });
  EXPECT_TRUE(bailed);
  EXPECT_LT(took, 5.0);  // woke immediately, not after 30 s
}

TEST_F(IoTest, DefaultThreadsRespectsEnv) {
  ::setenv("GALLOPER_IO_THREADS", "7", 1);
  EXPECT_EQ(io::AsyncIo::default_threads(), 7u);
  ::setenv("GALLOPER_IO_THREADS", "1000", 1);
  EXPECT_EQ(io::AsyncIo::default_threads(), 64u);  // clamp
  ::unsetenv("GALLOPER_IO_THREADS");
  EXPECT_EQ(io::AsyncIo::default_threads(), 4u);
}

TEST_F(IoTest, HedgeEnvControlsPolicy) {
  ::setenv("GALLOPER_HEDGE", "off", 1);
  {
    io::AsyncIo pool(1);
    EXPECT_FALSE(pool.hedge_policy().enabled);
    EXPECT_TRUE(std::isinf(pool.hedge_deadline_s()));
  }
  ::setenv("GALLOPER_HEDGE", "0.5", 1);
  {
    io::AsyncIo pool(1);
    EXPECT_TRUE(pool.hedge_policy().enabled);
    EXPECT_DOUBLE_EQ(pool.hedge_policy().quantile, 0.5);
  }
  ::unsetenv("GALLOPER_HEDGE");
  io::AsyncIo pool(1);
  io::HedgePolicy fixed;
  fixed.fixed_deadline_s = 0.125;
  pool.set_hedge_policy(fixed);
  EXPECT_DOUBLE_EQ(pool.hedge_deadline_s(), 0.125);
}

TEST_F(IoTest, HedgeBudgetEnvControlsPolicy) {
  ::setenv("GALLOPER_HEDGE_BUDGET", "off", 1);
  {
    io::AsyncIo pool(1);
    EXPECT_LT(pool.hedge_policy().budget_pct, 0.0);  // unlimited
    EXPECT_TRUE(pool.try_charge_hedge(uint64_t{1} << 40));
  }
  ::setenv("GALLOPER_HEDGE_BUDGET", "25", 1);
  {
    io::AsyncIo pool(1);
    EXPECT_DOUBLE_EQ(pool.hedge_policy().budget_pct, 25.0);
  }
  ::unsetenv("GALLOPER_HEDGE_BUDGET");
  io::AsyncIo pool(1);
  EXPECT_DOUBLE_EQ(pool.hedge_policy().budget_pct, 10.0);  // default
}

TEST_F(IoTest, HedgeBudgetTokenBucket) {
  io::AsyncIo pool(1);
  io::HedgePolicy policy;
  policy.budget_pct = 10.0;
  policy.budget_burst_bytes = 1000;
  pool.set_hedge_policy(policy);  // re-seeds the bucket to the burst

  EXPECT_TRUE(pool.try_charge_hedge(0));     // zero-byte always granted
  EXPECT_TRUE(pool.try_charge_hedge(600));   // 1000 → 400
  EXPECT_FALSE(pool.try_charge_hedge(600));  // 400 can't cover 600
  pool.note_fetched(3000);                   // +10% of 3000 → 700
  EXPECT_TRUE(pool.try_charge_hedge(600));   // 700 → 100
  pool.note_fetched(1u << 30);               // refill is CAPPED at the burst
  EXPECT_FALSE(pool.try_charge_hedge(1001));
  EXPECT_TRUE(pool.try_charge_hedge(1000));

  const io::IoStats st = pool.stats();
  EXPECT_EQ(st.hedge_bytes_granted, 600u + 600u + 1000u);
  EXPECT_EQ(st.hedge_denied, 2u);
  EXPECT_EQ(st.hedge_bytes_denied, 600u + 1001u);
  EXPECT_DOUBLE_EQ(st.hedge_budget_pct, 10.0);
}

TEST_F(IoTest, DeniedHedgeLeavesFetchSetUntouched) {
  io::AsyncIo pool(2);
  io::HedgePolicy policy;
  policy.fixed_deadline_s = 0.005;
  policy.budget_pct = 10.0;
  policy.budget_burst_bytes = 0;  // empty bucket: every sized hedge denied
  pool.set_hedge_policy(policy);

  io::FetchSet fetches(pool);
  EXPECT_TRUE(fetches.fetch(0, 0, [] { return true; },
                            /*hedge=*/false, /*bytes=*/512));
  // The denied hedge returns false and creates NO entry and NO pending
  // key: an exhaustive await must terminate on the primary alone.
  EXPECT_FALSE(fetches.fetch(7, 0, [] { return true; },
                             /*hedge=*/true, /*bytes=*/256));
  fetches.await([](const std::vector<size_t>&) { return false; }, nullptr);
  fetches.join();
  EXPECT_EQ(fetches.outcome(0), io::FetchSet::Outcome::kClean);
  EXPECT_EQ(fetches.outcome(7), io::FetchSet::Outcome::kPending);  // no key

  const io::IoStats st = pool.stats();
  EXPECT_EQ(st.hedge_denied, 1u);
  EXPECT_EQ(st.hedge_bytes_denied, 256u);
  EXPECT_EQ(st.hedges_issued, 0u);
  // Zero-byte hedges (legacy call sites) stay exempt from the budget.
  io::FetchSet more(pool);
  EXPECT_TRUE(more.fetch(1, 0, [] { return true; }, /*hedge=*/true));
  more.join();
  EXPECT_EQ(more.outcome(1), io::FetchSet::Outcome::kClean);
}

// ---------- FetchSet -------------------------------------------------------

TEST_F(IoTest, FetchSetResolvesCleanCorruptAndFailed) {
  io::AsyncIo pool(2);
  io::FetchSet fetches(pool);
  fetches.fetch(1, 0, [] { return true; });
  fetches.fetch(2, 0, [] { return false; });
  fetches.fetch(3, 0, []() -> bool { throw std::runtime_error("probe died"); });
  fetches.join();
  EXPECT_EQ(fetches.outcome(1), io::FetchSet::Outcome::kClean);
  EXPECT_EQ(fetches.outcome(2), io::FetchSet::Outcome::kCorrupt);
  EXPECT_EQ(fetches.outcome(3), io::FetchSet::Outcome::kFailed);
  EXPECT_EQ(fetches.clean_keys(), std::vector<size_t>{1});
  EXPECT_THROW(fetches.rethrow_any_failure(), std::runtime_error);
}

TEST_F(IoTest, AwaitReturnsAtReadinessNotCompletion) {
  io::AsyncIo pool(4);
  io::FetchSet fetches(pool);
  for (size_t key : {0u, 1u, 2u}) fetches.fetch(key, 0, [] { return true; });
  fetches.fetch(3, 30.0, [] { return true; });  // straggler
  const double took = seconds_of([&] {
    fetches.await(
        [](const std::vector<size_t>& clean) { return clean.size() >= 3; },
        nullptr);
  });
  EXPECT_LT(took, 5.0);  // did not wait out the 30 s stall
  EXPECT_GE(fetches.clean_keys().size(), 3u);
  fetches.cancel_and_join();
  EXPECT_EQ(fetches.outcome(3), io::FetchSet::Outcome::kCancelled);
}

TEST_F(IoTest, HedgeWinsDeterministicallyUnderFixedDeadline) {
  io::AsyncIo pool(4);  // private pool → counters belong to this test
  io::HedgePolicy fixed;
  fixed.fixed_deadline_s = 0.005;
  pool.set_hedge_policy(fixed);

  io::FetchSet fetches(pool);
  std::atomic<int> probes_run{0};
  fetches.fetch(0, 0, [&] { ++probes_run; return true; });
  fetches.fetch(1, 30.0, [&] { ++probes_run; return true; });  // the slow one
  // Resolve key 0 first, unhedged: a key-0 probe slowed past the deadline
  // by a loaded host would otherwise show up in `pending` below.
  fetches.await(
      [](const std::vector<size_t>& clean) {
        return std::find(clean.begin(), clean.end(), 0) != clean.end();
      },
      nullptr);
  std::vector<size_t> slow_keys;
  const double took = seconds_of([&] {
    fetches.await(
        [](const std::vector<size_t>& clean) { return clean.size() == 2; },
        [&](const std::vector<size_t>& pending) {
          slow_keys = pending;
          for (size_t key : pending)
            fetches.fetch(key, 0, [&] { ++probes_run; return true; },
                          /*hedge=*/true);
        });
  });
  fetches.cancel_and_join();

  EXPECT_EQ(slow_keys, std::vector<size_t>{1});
  EXPECT_EQ(fetches.outcome(0), io::FetchSet::Outcome::kClean);
  EXPECT_EQ(fetches.outcome(1), io::FetchSet::Outcome::kClean);
  EXPECT_LT(took, 5.0);  // hedge resolved the key; no 30 s wait
  EXPECT_EQ(probes_run.load(), 2);  // stalled primary bailed without probing
  const io::IoStats st = pool.stats();
  EXPECT_EQ(st.hedges_issued, 1u);
  EXPECT_EQ(st.hedges_won, 1u);
}

TEST_F(IoTest, FirstResultPerKeyWinsAndLoserIsCancelled) {
  io::AsyncIo pool(2);
  io::FetchSet fetches(pool);
  // Two fetches for one key: the no-stall one must win and cancel the
  // stalled sibling mid-park.
  fetches.fetch(9, 30.0, [] { return false; });  // would record kCorrupt
  fetches.fetch(9, 0, [] { return true; }, /*hedge=*/true);
  const double took = seconds_of([&] { fetches.join(); });
  EXPECT_EQ(fetches.outcome(9), io::FetchSet::Outcome::kClean);
  EXPECT_LT(took, 5.0);
}

// Regression: a loser cancelled while still QUEUED (saturated pool) never
// runs its body, so record() never fires for it — its completion must be
// accounted by the canceller, or an exhaustive await (the always-false
// predicate read_range uses before its final join) deadlocks.
TEST_F(IoTest, QueuedLoserStillCountsTowardCompletion) {
  io::AsyncIo pool(1);  // one worker → the duplicate waits in the queue
  io::FetchSet fetches(pool);
  std::atomic<bool> dup_submitted{false};
  // The primary's probe parks until the duplicate is in the queue, so its
  // record() is GUARANTEED to cancel the duplicate pre-run.
  fetches.fetch(7, 0, [&] {
    while (!dup_submitted.load(std::memory_order_acquire))
      std::this_thread::yield();
    return true;
  });
  fetches.fetch(7, 30.0, [] { return false; }, /*hedge=*/true);
  dup_submitted.store(true, std::memory_order_release);
  const double took = seconds_of([&] {
    fetches.await([](const std::vector<size_t>&) { return false; }, nullptr);
  });
  EXPECT_EQ(fetches.outcome(7), io::FetchSet::Outcome::kClean);
  EXPECT_LT(took, 5.0);  // neither the 30 s stall nor a completion deadlock
}

// Regression companion: cancel_and_join must account queued-cancelled ops
// the same way, so an await AFTER teardown still terminates.
TEST_F(IoTest, CancelAndJoinAccountsQueuedOps) {
  io::AsyncIo pool(1);
  io::FetchSet fetches(pool);
  fetches.fetch(0, 30.0, [] { return true; });  // running (or about to)
  fetches.fetch(1, 30.0, [] { return true; });  // queued behind it
  fetches.cancel_and_join();
  EXPECT_EQ(fetches.outcome(0), io::FetchSet::Outcome::kCancelled);
  EXPECT_EQ(fetches.outcome(1), io::FetchSet::Outcome::kCancelled);
  const double took = seconds_of([&] {
    fetches.await([](const std::vector<size_t>&) { return false; }, nullptr);
  });
  EXPECT_LT(took, 5.0);  // completed_ covers the never-ran op
}

TEST_F(IoTest, DestructorCancelsOutstandingFetches) {
  io::AsyncIo pool(1);
  const double took = seconds_of([&] {
    io::FetchSet fetches(pool);
    fetches.fetch(0, 30.0, [] { return true; });
    // ~FetchSet: cancel_and_join — must not wait out the stall.
  });
  EXPECT_LT(took, 5.0);
}

}  // namespace
}  // namespace galloper
