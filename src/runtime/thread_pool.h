#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cloudrepro::runtime {

/// Deterministic parallel execution runtime.
///
/// The paper's prescription is *more repetitions* — CONFIRM shows that 70+
/// may be needed for 1% error bounds — and every figure bench sweeps a
/// (workload x budget x repetition) grid. Each repetition is a pure function
/// of its own derived seed, so these grids parallelize embarrassingly
/// *without* sacrificing bit-identical reproducibility: work is scheduled
/// dynamically, results land in pre-assigned slots, and reductions happen in
/// a fixed order on the coordinating thread.

/// Fixed-size worker pool over one mutex-guarded FIFO queue.
///
/// Every worker takes the oldest queued task, so several concurrent
/// campaigns can share one pool as a single thread budget
/// (`cloudrepro suite`): a worker that finishes one member's task simply
/// takes the next task of whichever member queued it. Tasks may submit
/// further tasks. Completion order is unspecified; callers that need
/// determinism write results into pre-assigned slots.
///
/// Tasks must not let exceptions escape (an escaping exception terminates
/// the process, as with any detached thread); callers that need error
/// propagation capture an std::exception_ptr inside the task — see
/// `run_campaign` — or use `parallel_for_each`, which does this for them.
class ThreadPool {
 public:
  /// Spawns `resolve_thread_count(threads)` workers.
  explicit ThreadPool(int threads = 0);

  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Fixed before the first worker starts: reading workers_.size() here
  /// would race with the constructor's emplace_back while early workers
  /// already run tasks that ask for the pool's size.
  int thread_count() const noexcept { return thread_count_; }

  /// Enqueues a task for execution by some worker.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing. Only the
  /// pool's owner may call this: on a pool shared by several campaigns it
  /// would also wait for the other campaigns' tasks.
  void wait_idle();

  /// Maps the user-facing `threads` knob: 0 = hardware concurrency
  /// (at least 1), otherwise the requested count.
  static int resolve_thread_count(int requested) noexcept;

 private:
  void worker_loop();

  const int thread_count_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;  ///< Guarded by mu_.
  std::size_t running_ = 0;                  ///< Guarded by mu_.
  bool stopping_ = false;                    ///< Guarded by mu_.
};

/// Runs `body(i)` for every i in [0, count) across up to
/// `resolve_thread_count(threads)` threads with dynamic (atomic-counter)
/// scheduling. With an effective thread count of 1 the loop runs inline on
/// the calling thread — the serial reference path.
///
/// Indices are claimed in an unspecified interleaving, so `body` must not
/// depend on cross-index execution order; writing index i's result into a
/// pre-sized slot keeps the overall computation deterministic. The first
/// exception thrown by any `body` invocation stops further index claims and
/// is rethrown on the calling thread after all workers join.
void parallel_for_each(int threads, std::size_t count,
                       const std::function<void(std::size_t)>& body);

}  // namespace cloudrepro::runtime
