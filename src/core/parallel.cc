#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/status.h"

namespace fairbc {

unsigned ResolveNumThreads(unsigned requested) {
  if (requested != 0) return std::min(requested, kMaxThreads);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : std::min(hw, kMaxThreads);
}

namespace {

// One ParallelFor: the index range still to claim, the tasks Submit
// added, and the lanes. Lane 0 is the calling thread; each helper lane is
// one posted closure that holds a shared_ptr, so a helper the pool starts
// after the batch completed finds nothing queued and leaves without
// touching `fn` (which only lives until ParallelFor returns).
struct Batch : std::enable_shared_from_this<Batch> {
  Batch(ThreadPool& pool, unsigned width, std::uint64_t num_tasks,
        const std::function<void(std::uint64_t, unsigned)>& fn)
      : pool(pool), width(width),
        max_helpers(std::min(width - 1, pool.num_threads())), fn(fn),
        end(num_tasks), unfinished(num_tasks), queued(num_tasks) {
    for (unsigned lane = max_helpers; lane >= 1; --lane) {
      free_lanes.push_back(lane);
    }
  }

  bool HasQueued() const { return next < end || !submitted.empty(); }

  // Posts one helper lane. Requires `mu`.
  void PostHelper() {
    ++helpers;
    pool.Post([self = shared_from_this()] {
      std::unique_lock<std::mutex> lock(self->mu);
      const unsigned lane = self->free_lanes.back();
      self->free_lanes.pop_back();
      self->RunLane(lane, lock);
      self->free_lanes.push_back(lane);
      --self->helpers;
    });
  }

  // Runs queued tasks on `lane` until none is left. Requires `mu` (held
  // by `lock`), which is released around each task.
  void RunLane(unsigned lane, std::unique_lock<std::mutex>& lock);

  ThreadPool& pool;
  const unsigned width;
  // Helpers beyond the pool's worker count could never run side by side
  // with the others; posting them would only queue no-ops.
  const unsigned max_helpers;
  const std::function<void(std::uint64_t, unsigned)>& fn;
  std::mutex mu;               // guards everything below but `queued`.
  std::condition_variable cv;  // lane 0 waits for queued work or the end.
  std::uint64_t next = 0;      // first unclaimed index task.
  const std::uint64_t end;
  std::deque<ThreadPool::Task> submitted;
  std::uint64_t unfinished;    // queued or running tasks.
  unsigned helpers = 0;        // helper lanes posted or running.
  std::vector<unsigned> free_lanes;  // helper lanes no helper holds.
  // (end - next) + submitted.size(), readable without `mu`.
  std::atomic<std::uint64_t> queued;
};

thread_local ThreadPool* current_pool = nullptr;
// The batch whose task this thread is running (innermost when nested).
thread_local Batch* current_batch = nullptr;

void Batch::RunLane(unsigned lane, std::unique_lock<std::mutex>& lock) {
  Batch* const outer = current_batch;
  current_batch = this;
  while (HasQueued()) {
    queued.fetch_sub(1, std::memory_order_relaxed);
    if (next < end) {
      const std::uint64_t index = next++;
      lock.unlock();
      fn(index, lane);
    } else {
      ThreadPool::Task task = std::move(submitted.front());
      submitted.pop_front();
      lock.unlock();
      task(lane);
      // The closure dies here, before completion is posted: it may
      // reference state that dies once the batch completes.
    }
    lock.lock();
    if (--unfinished == 0) cv.notify_all();
  }
  current_batch = outer;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  FAIRBC_CHECK(num_threads >= 1);
  threads_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

ThreadPool* ThreadPool::Current() { return current_pool; }

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      // Drain-on-stop: queued tasks may carry completions someone waits
      // on, so the pool finishes them before exiting.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    unsigned width, std::uint64_t num_tasks,
    const std::function<void(std::uint64_t, unsigned)>& fn) {
  if (num_tasks == 0) return;
  auto batch =
      std::make_shared<Batch>(*this, std::max(width, 1u), num_tasks, fn);
  std::unique_lock<std::mutex> lock(batch->mu);
  while (batch->helpers < batch->max_helpers &&
         batch->helpers + 1 < num_tasks) {
    batch->PostHelper();
  }
  for (;;) {
    batch->RunLane(0, lock);
    if (batch->unfinished == 0) return;
    // Other lanes still run tasks that may Submit more.
    batch->cv.wait(lock, [&] {
      return batch->unfinished == 0 || batch->HasQueued();
    });
  }
}

void ThreadPool::Submit(Task task) {
  Batch* const batch = current_batch;
  FAIRBC_CHECK(batch != nullptr);
  std::lock_guard<std::mutex> lock(batch->mu);
  batch->submitted.push_back(std::move(task));
  ++batch->unfinished;
  batch->queued.fetch_add(1, std::memory_order_relaxed);
  if (batch->helpers < batch->max_helpers) batch->PostHelper();
  batch->cv.notify_all();
}

bool ThreadPool::QueueNearlyDry() {
  const Batch* const batch = current_batch;
  FAIRBC_CHECK(batch != nullptr);
  return batch->queued.load(std::memory_order_relaxed) < batch->width;
}

ThreadPool& CallerPool() {
  if (ThreadPool* pool = ThreadPool::Current()) return *pool;
  // Never destroyed, so process exit never joins a worker that may still
  // be running a task.
  static ThreadPool* const process = new ThreadPool(ResolveNumThreads(0));
  return *process;
}

}  // namespace fairbc
