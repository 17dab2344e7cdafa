#include "core/parallel.h"

#include <algorithm>

#include "common/status.h"

namespace fairbc {

unsigned ResolveNumThreads(unsigned requested) {
  // Cap far above any sane oversubscription: protects against sign-cast
  // accidents (e.g. -1 becoming 4 billion workers) without judging
  // deliberate oversubscription.
  constexpr unsigned kMaxThreads = 1024;
  if (requested != 0) return std::min(requested, kMaxThreads);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : std::min(hw, kMaxThreads);
}

ThreadPool::ThreadPool(unsigned num_threads) {
  FAIRBC_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ParallelFor(
    std::uint64_t num_tasks,
    const std::function<void(std::uint64_t, unsigned)>& fn) {
  if (num_tasks == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FAIRBC_CHECK(outstanding_ == 0);
    // Deal tasks round-robin; stealing rebalances skewed subtrees. The
    // closures only reference `fn`, which outlives the batch: ParallelFor
    // returns after the last task destroyed its closure (WorkerLoop drops
    // the closure before posting completion).
    for (std::uint64_t t = 0; t < num_tasks; ++t) {
      Worker& w = *workers_[t % workers_.size()];
      std::lock_guard<std::mutex> wlock(w.mu);
      w.tasks.push_back([&fn, t](unsigned worker) { fn(t, worker); });
    }
    outstanding_ = num_tasks;
    queued_.fetch_add(static_cast<std::int64_t>(num_tasks),
                      std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void ThreadPool::Submit(Task task) {
  const unsigned victim =
      static_cast<unsigned>(next_victim_.fetch_add(1, std::memory_order_relaxed) %
                            workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Only valid mid-batch: the caller runs inside a task whose completion
    // has not been posted yet, so the batch cannot finish under us.
    FAIRBC_CHECK(outstanding_ > 0);
    ++outstanding_;
    {
      Worker& w = *workers_[victim];
      std::lock_guard<std::mutex> wlock(w.mu);
      w.tasks.push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
}

bool ThreadPool::NextTask(unsigned index, Task* task) {
  {
    Worker& own = *workers_[index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());  // own work: newest first.
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (std::size_t step = 1; step < workers_.size(); ++step) {
    Worker& victim = *workers_[(index + step) % workers_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.front());  // stolen work: oldest first.
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned index) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || queued_.load(std::memory_order_relaxed) > 0;
      });
      if (stop_) return;
    }
    Task task;
    while (NextTask(index, &task)) {
      task(index);
      // Destroy the closure (it may reference the batch's fn or a split
      // batch) before posting completion: once outstanding_ hits zero
      // ParallelFor returns and those referents die.
      task = Task();
      std::unique_lock<std::mutex> lock(mu_);
      if (--outstanding_ == 0) {
        lock.unlock();
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace fairbc
