// Fixed-size thread pool used by the sample-bank collector (sim module) to
// run many independent sequential searches concurrently, plus fan_out(),
// the one routine every walker runner (run_multiwalk, the elastic wave)
// hands its walkers to. Follows the C++ Core Guidelines concurrency rules:
// jthreads joined by RAII, shared state confined to the mutex-guarded
// queue, tasks passed by value.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cas::par {

class ThreadPool {
 public:
  /// `num_threads` == 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future resolves with its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::scoped_lock lock(mu_);
      if (closed_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool closed_ = false;
  std::vector<std::jthread> workers_;
};

/// Calls body(i) once for every i in [0, tasks), handing the indices out
/// from a shared counter to a fixed set of workers: `num_threads` of them,
/// or (0) the pool's width, or one per task without a pool — never more
/// than `tasks`. With a pool the workers are chunks submitted to it and the
/// caller only blocks (bodies must not submit further pool work, so a
/// batch cannot deadlock the pool); without one they are jthreads, the
/// caller running one of them. Returns once every worker has finished. A
/// throwing body stops the hand-out; the first exception is rethrown after
/// all workers are joined, since they reference the caller's stack.
template <typename Body>
void fan_out(int tasks, unsigned num_threads, ThreadPool* pool, Body&& body) {
  if (tasks <= 0) return;
  unsigned workers = num_threads != 0   ? num_threads
                     : pool != nullptr ? pool->size()
                                       : static_cast<unsigned>(tasks);
  workers = std::clamp(workers, 1u, static_cast<unsigned>(tasks));

  std::atomic<int> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto worker = [&] {
    for (int i = next.fetch_add(1, std::memory_order_relaxed); i < tasks;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        next.store(tasks, std::memory_order_relaxed);
        std::scoped_lock lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
        return;
      }
    }
  };
  if (pool != nullptr) {
    std::vector<std::future<void>> chunks;
    chunks.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) chunks.push_back(pool->submit(worker));
    for (auto& c : chunks) c.wait();
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) threads.emplace_back(worker);
    worker();
  }  // jthreads join here
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace cas::par
