#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cloudrepro::runtime {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count(7), 7);
  EXPECT_GE(ThreadPool::resolve_thread_count(-3), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool{2};
  pool.wait_idle();  // Must not hang.
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool{3};
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 50 * (round + 1));
  }
}

TEST(ThreadPoolTest, PendingTasksRunBeforeDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, SubmitNullThrows) {
  ThreadPool pool{1};
  EXPECT_THROW(pool.submit({}), std::invalid_argument);
}

TEST(ThreadPoolStealTest, WorkerSubmittedTasksAreStolenWhileOwnerBlocks) {
  // A worker submits subtasks, then blocks until they all finish. It cannot
  // run them itself, so the other workers must pick them up — the shape of
  // one member's tasks waiting behind another's in a shared suite pool.
  ThreadPool pool{4};
  constexpr int kSubtasks = 100;
  std::atomic<int> done{0};
  std::atomic<bool> owner_finished{false};
  pool.submit([&] {
    for (int i = 0; i < kSubtasks; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    while (done.load(std::memory_order_relaxed) < kSubtasks) {
      std::this_thread::yield();
    }
    owner_finished.store(true, std::memory_order_relaxed);
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), kSubtasks);
  EXPECT_TRUE(owner_finished.load());
}

TEST(ThreadPoolStealTest, ManyProducersManyThievesCompleteEveryTask) {
  // Contention torture for the shared queue: every worker both produces
  // (fan-out resubmission) and consumes. The count must balance exactly.
  ThreadPool pool{4};
  std::atomic<int> executed{0};
  constexpr int kRoots = 64;
  constexpr int kChildren = 32;
  for (int i = 0; i < kRoots; ++i) {
    pool.submit([&] {
      executed.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < kChildren; ++j) {
        pool.submit(
            [&] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kRoots + kRoots * kChildren);
}

TEST(ThreadPoolStealTest, DequeOverflowFallsBackToInjectionQueue) {
  // A worker submitting thousands of tasks from inside a task must never
  // drop one or deadlock.
  ThreadPool pool{2};
  std::atomic<int> done{0};
  constexpr int kTasks = 3000;
  pool.submit([&] {
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ParallelForEachTest, VisitsEveryIndexExactlyOnce) {
  std::vector<int> visits(1000, 0);
  parallel_for_each(8, visits.size(), [&](std::size_t i) { ++visits[i]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1000);
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForEachTest, SingleThreadRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  bool all_inline = true;
  parallel_for_each(1, 16, [&](std::size_t) {
    all_inline = all_inline && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ParallelForEachTest, ZeroCountCallsNothing) {
  int calls = 0;
  parallel_for_each(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForEachTest, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for_each(4, 100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error{"boom"};
                        }),
      std::runtime_error);
}

TEST(ParallelForEachTest, NullBodyThrows) {
  EXPECT_THROW(parallel_for_each(2, 5, {}), std::invalid_argument);
}

TEST(ParallelForEachTest, DeterministicSlotResults) {
  // The canonical usage pattern: index i writes slot i; the gathered vector
  // must match the serial reference exactly regardless of thread count.
  const std::size_t n = 500;
  std::vector<double> serial(n);
  parallel_for_each(1, n, [&](std::size_t i) {
    serial[i] = static_cast<double>(i) * 1.5 + 1.0 / static_cast<double>(i + 1);
  });
  for (const int threads : {2, 4, 8}) {
    std::vector<double> parallel(n);
    parallel_for_each(threads, n, [&](std::size_t i) {
      parallel[i] = static_cast<double>(i) * 1.5 + 1.0 / static_cast<double>(i + 1);
    });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cloudrepro::runtime
