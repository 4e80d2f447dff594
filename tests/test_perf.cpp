// Perf layer: counters/snapshots and the fixed-size thread pool behind the
// parallel fan-out paths (HB preconditioner blocks, jitter MC, MoM fill).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::perf {
namespace {

TEST(PerfCounters, AccumulateAndSnapshot) {
  Counters c;
  c.addEval(10);
  c.addEval(5);
  c.addFactorization(100);
  c.addRefactorization(7);
  c.addSolve(3);
  c.addSolve(4);
  const Snapshot s = c.snapshot();
  EXPECT_EQ(s.evals, 2u);
  EXPECT_EQ(s.evalNs, 15u);
  EXPECT_EQ(s.factorizations, 1u);
  EXPECT_EQ(s.factorNs, 100u);
  EXPECT_EQ(s.refactorizations, 1u);
  EXPECT_EQ(s.solves, 2u);
  EXPECT_EQ(s.solveNs, 7u);

  c.reset();
  const Snapshot z = c.snapshot();
  EXPECT_EQ(z.evals, 0u);
  EXPECT_EQ(z.solveNs, 0u);
}

TEST(PerfCounters, SnapshotPlusEquals) {
  Snapshot a, b;
  a.evals = 3;
  a.factorNs = 10;
  b.evals = 4;
  b.factorNs = 32;
  b.refactorizations = 2;
  a += b;
  EXPECT_EQ(a.evals, 7u);
  EXPECT_EQ(a.factorNs, 42u);
  EXPECT_EQ(a.refactorizations, 2u);
}

TEST(PerfCounters, TableMergeRules) {
  // Distinct values on every row, with a > b on some rows and b > a on
  // others, so a max merge and a sum merge can never coincide.
  Snapshot a, b;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    a.*kRows[i].field = 100 + 3 * i;
    b.*kRows[i].field = 200 - 5 * i;
  }
  Counters c;
  c.addSnapshot(a);
  c.addSnapshot(b);
  const Snapshot folded = c.snapshot();
  Snapshot sum = a;
  sum += b;

  std::vector<std::string> maxRows;
  for (const Row& r : kRows) {
    const std::uint64_t x = a.*r.field, y = b.*r.field;
    const std::uint64_t want = r.merge == Merge::Max ? std::max(x, y) : x + y;
    EXPECT_EQ(folded.*r.field, want) << r.name;
    EXPECT_EQ(sum.*r.field, want) << r.name;
    if (r.merge == Merge::Max) maxRows.emplace_back(r.name);
  }
  EXPECT_EQ(maxRows,
            (std::vector<std::string>{"factorFillNnz", "memPeakBytes"}));

  c.reset();
  const Snapshot z = c.snapshot();
  for (const Row& r : kRows) EXPECT_EQ(z.*r.field, 0u) << r.name;
}

TEST(PerfCounters, ConcurrentIncrementsAreExact) {
  Counters c;
  constexpr std::size_t kPer = 2000;
  ThreadPool::global().parallelFor(8, [&](std::size_t) {
    for (std::size_t i = 0; i < kPer; ++i) c.addSolve(1);
  });
  const Snapshot s = c.snapshot();
  EXPECT_EQ(s.solves, 8u * kPer);
  EXPECT_EQ(s.solveNs, 8u * kPer);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.parallelFor(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroAndSingleIterationWork) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallelFor issued from inside a worker must not deadlock; it runs
  // serially on the issuing lane.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallelFor(4, [&](std::size_t) {
    pool.parallelFor(5, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 20u);
}

TEST(FunctionRef, InvokesTheReferredCallableWithoutCopying) {
  // parallelFor takes FunctionRef so capture-heavy hot-loop lambdas are
  // never boxed into a std::function heap allocation per dispatch. The
  // ref must call the ORIGINAL callable, not a copy: mutations made by the
  // callable must be visible after the call.
  std::size_t calls = 0;
  auto counter = [&calls](std::size_t i) { calls += i; };
  FunctionRef<void(std::size_t)> ref(counter);
  ref(3);
  ref(4);
  EXPECT_EQ(calls, 7u);

  // Large capture state (beyond any small-buffer optimization) stays by
  // reference — the sum reflects the live array, not a snapshot.
  std::vector<double> weights(1024, 0.5);
  double sum = 0;
  auto weigh = [&](std::size_t i) { sum += weights[i]; };
  FunctionRef<void(std::size_t)> wref(weigh);
  weights[7] = 2.0;  // mutate after constructing the ref
  wref(7);
  EXPECT_DOUBLE_EQ(sum, 2.0);
}

TEST(ThreadPool, TripCountAtOrBelowGrainRunsInline) {
  // n <= grain is the dispatch-free fast path: every index runs on the
  // calling thread, in order, with no worker wake-up.
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallelFor(
      16,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // safe: single-threaded by construction
      },
      /*grain=*/16);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, CoarseGrainStillCoversEveryIndexOnce) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallelFor(
      n,
      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsRejectsLateOverride) {
  ThreadPool::global();  // force creation
  EXPECT_THROW(ThreadPool::setGlobalThreads(4), InvalidArgument);
}

TEST(ThreadPool, FirstExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallelFor(64, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17) throw std::runtime_error("chunk failure");
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failure");
  }
  // The pool stays usable after a throwing batch.
  std::atomic<int> after{0};
  pool.parallelFor(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  auto& pool = ThreadPool::global();
  EXPECT_GE(pool.concurrency(), 1u);
  std::vector<int> out(100, 0);
  pool.parallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i);  // disjoint writes need no atomics
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 4950);
}

TEST(PerfFormat, MentionsEveryStage) {
  Snapshot s;
  s.evals = 12;
  s.factorizations = 1;
  s.refactorizations = 11;
  s.solves = 12;
  s.evalNs = 1'000'000;
  s.fftCount = 7;
  s.planCacheHits = 5;
  s.planCacheMisses = 2;
  const std::string r = format(s);
  EXPECT_NE(r.find("eval"), std::string::npos);
  EXPECT_NE(r.find("factor"), std::string::npos);
  EXPECT_NE(r.find("refactor"), std::string::npos);
  EXPECT_NE(r.find("solve"), std::string::npos);
  EXPECT_NE(r.find("fft"), std::string::npos);
  EXPECT_NE(r.find("plan cache"), std::string::npos);
  EXPECT_NE(r.find("12"), std::string::npos);
}

}  // namespace
}  // namespace rfic::perf
