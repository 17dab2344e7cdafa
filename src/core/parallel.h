#ifndef FAIRBC_CORE_PARALLEL_H_
#define FAIRBC_CORE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fairbc {

/// Resolves EnumOptions::num_threads: 0 means "use every hardware thread",
/// anything else is taken literally (minimum 1).
unsigned ResolveNumThreads(unsigned requested);

/// Minimal work-stealing thread pool used for the subtree fan-out of the
/// enumeration engines and the bulk-synchronous peeling rounds of the
/// graph reduction. Each worker owns a deque of tasks: it pops its own
/// work from the back (LIFO, cache-friendly for locally submitted work)
/// and steals from a sibling's front (FIFO, takes the oldest — typically
/// largest — task) when its deque runs dry.
///
/// Tasks are closures `void(unsigned worker)`; a running task may push
/// follow-up tasks into the same batch with Submit() (this is how the
/// engines split a dominating subtree once the queue runs dry). The pool
/// stays small and generic: cancellation is the callee's job (the engines
/// poll their shared SearchBudget) and nothing here knows about bicliques
/// — future subsystems (sharded serving, batch pipelines) can reuse it
/// as-is.
class ThreadPool {
 public:
  /// A unit of work; receives the id of the worker running it.
  using Task = std::function<void(unsigned)>;

  /// Spawns `num_threads` workers (resolved; must be >= 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs tasks `0 .. num_tasks-1` as `fn(task, worker)` where `worker` is
  /// in `[0, num_threads())`; returns once every task (including tasks
  /// added by Submit) has finished. Tasks are dealt round-robin across the
  /// worker deques and rebalanced by stealing. `fn` must not throw. One
  /// ParallelFor may run at a time.
  void ParallelFor(std::uint64_t num_tasks,
                   const std::function<void(std::uint64_t, unsigned)>& fn);

  /// Adds one task to the currently running batch. Must only be called
  /// from inside a task of an active ParallelFor (the batch cannot
  /// complete concurrently: the calling task's completion has not been
  /// posted yet). Thread-safe; tasks are dealt round-robin so starving
  /// siblings pick them up directly.
  void Submit(Task task);

  /// True when fewer tasks are queued than there are workers — i.e. some
  /// worker is starving or about to. Cheap approximation (relaxed atomic),
  /// used by the engines to decide when splitting a subtree is worth the
  /// copies.
  bool QueueNearlyDry() const {
    return queued_.load(std::memory_order_relaxed) <
           static_cast<std::int64_t>(workers_.size());
  }

 private:
  struct Worker {
    std::deque<Task> tasks;
    std::mutex mu;
  };

  void WorkerLoop(unsigned index);
  /// Pops a task for worker `index`, stealing if needed. Returns false
  /// when no task is available anywhere.
  bool NextTask(unsigned index, Task* task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;                    // guards outstanding_ / stop_.
  std::condition_variable work_cv_;  // workers wait for queued tasks.
  std::condition_variable done_cv_;  // ParallelFor waits for completion.
  std::uint64_t outstanding_ = 0;
  bool stop_ = false;
  /// Tasks sitting in deques (not yet popped). Every increment happens
  /// while mu_ is held so sleeping workers cannot miss the wakeup;
  /// decrements (pops) happen lock-free.
  std::atomic<std::int64_t> queued_{0};
  std::atomic<std::uint64_t> next_victim_{0};  // round-robin Submit target.
};

/// Chunk size of the data-parallel loops (peeling rounds, degree init):
/// coarse enough to amortize deque traffic, fine enough to rebalance.
inline constexpr std::uint64_t kParallelChunk = 512;

/// Runs `fn(begin, end, worker)` over consecutive chunks of `[0, n)` on
/// the pool. A plain blocking data-parallel loop (one batch, no dynamic
/// submission) used by the bulk-synchronous peeling phases.
template <typename Fn>
void ParallelForChunks(ThreadPool& pool, std::uint64_t n, Fn&& fn) {
  const std::uint64_t chunks = (n + kParallelChunk - 1) / kParallelChunk;
  pool.ParallelFor(chunks, [&](std::uint64_t chunk, unsigned worker) {
    const std::uint64_t begin = chunk * kParallelChunk;
    fn(begin, std::min(n, begin + kParallelChunk), worker);
  });
}

}  // namespace fairbc

#endif  // FAIRBC_CORE_PARALLEL_H_
