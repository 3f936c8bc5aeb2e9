#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace locat::common {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1013;  // deliberately not a multiple of the thread count
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEachCoversAllIndicesExactlyOnce) {
  ThreadPool pool(3);
  const size_t n = 97;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelForEach(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.ParallelFor(5, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 5u);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ResultsIndependentOfThreadCount) {
  // Per-index slots + fixed-order reduction on the caller: the documented
  // determinism recipe must give identical sums for every pool size.
  const size_t n = 500;
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(n);
    pool.ParallelForEach(n, [&](size_t i) {
      slots[i] = static_cast<double>(i) * 1.000000001 + 0.5;
    });
    double sum = 0.0;
    for (double s : slots) sum += s;  // fixed order, off the pool
    return sum;
  };
  const double one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(4));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForEach(64,
                                    [&](size_t i) {
                                      if (i == 33) {
                                        throw std::runtime_error("boom 33");
                                      }
                                    }),
               std::runtime_error);
}

TEST(ThreadPoolTest, LowestBlockExceptionWins) {
  // Both the caller's block (index 0) and a worker block throw; the
  // contract picks the lowest-indexed block deterministically.
  ThreadPool pool(4);
  try {
    pool.ParallelFor(100, [&](size_t begin, size_t) {
      throw std::runtime_error("block@" + std::to_string(begin));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block@0");
  }
}

TEST(ThreadPoolTest, PoolSurvivesAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelForEach(8, [](size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  pool.ParallelForEach(8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A task on the pool that itself calls ParallelFor must not deadlock;
  // the inner loop runs inline on whichever thread owns the outer block.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(40);
  for (auto& h : hits) h.store(0);
  pool.ParallelForEach(4, [&](size_t outer) {
    pool.ParallelForEach(10, [&](size_t inner) {
      hits[outer * 10 + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, GlobalFirstUseFromConcurrentWorkers) {
  // The harness's ExperimentRunner reaches the shared pool from the
  // workers of its own pool. Run as its own process (as ctest does), this
  // is the first Global() call, and every worker must get the same pool.
  ThreadPool local(4);
  std::vector<ThreadPool*> seen(8, nullptr);
  std::atomic<int> count{0};
  local.ParallelForEach(seen.size(), [&](size_t i) {
    seen[i] = ThreadPool::Global();
    seen[i]->ParallelForEach(5, [&](size_t) { count.fetch_add(1); });
  });
  for (ThreadPool* p : seen) EXPECT_EQ(p, ThreadPool::Global());
  EXPECT_EQ(count.load(), 40);
}

TEST(ThreadPoolTest, GlobalPoolIsRebuildable) {
  ThreadPool* before = ThreadPool::Global();
  ASSERT_NE(before, nullptr);
  const int original = before->num_threads();

  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 3);
  std::atomic<int> count{0};
  ThreadPool::Global()->ParallelForEach(11, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 11);

  ThreadPool::SetGlobalThreads(original);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), original);
}

}  // namespace
}  // namespace locat::common
