#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

namespace cloudrepro::runtime {

int ThreadPool::resolve_thread_count(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) : thread_count_{resolve_thread_count(threads)} {
  workers_.reserve(static_cast<std::size_t>(thread_count_));
  for (int i = 0; i < thread_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument{"ThreadPool::submit: null task"};
  {
    std::lock_guard<std::mutex> lock{mu_};
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mu_};
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Stopping with work still queued keeps draining: tasks submitted
      // before destruction (or by a running task) still run.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    task = nullptr;  // Release the captures before reporting idle.
    std::lock_guard<std::mutex> lock{mu_};
    if (--running_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock{mu_};
  idle_cv_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
}

// --- parallel_for_each -----------------------------------------------------

void parallel_for_each(int threads, std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  if (!body) throw std::invalid_argument{"parallel_for_each: null body"};
  if (count == 0) return;
  const int n = ThreadPool::resolve_thread_count(threads);
  if (n <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto drain = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock{error_mu};
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The calling thread is one of the workers; spawn the rest.
  const auto extra_count =
      std::min<std::size_t>(static_cast<std::size_t>(n), count) - 1;
  std::vector<std::thread> extra;
  extra.reserve(extra_count);
  for (std::size_t t = 0; t < extra_count; ++t) extra.emplace_back(drain);
  drain();
  for (auto& t : extra) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace cloudrepro::runtime
