#ifndef FAIRBC_CORE_PARALLEL_H_
#define FAIRBC_CORE_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fairbc {

/// The most threads or lanes anything may ask for: far above any sane
/// oversubscription, far below what a sign-cast accident (-1 becoming 4
/// billion) would request. ResolveNumThreads clamps to it, and every
/// front door rejects a larger `threads` (service/query.h).
inline constexpr unsigned kMaxThreads = 1024;

/// Resolves EnumOptions::num_threads: 0 means "use every hardware thread",
/// anything else is taken literally (minimum 1), both capped at
/// kMaxThreads.
unsigned ResolveNumThreads(unsigned requested);

/// The process's only thread-owning mechanism: N workers draining one
/// FIFO queue of posted closures. The query executor owns one (its
/// runners), and CallerPool() lazily builds one more for threads outside
/// any pool; every parallel phase borrows one of the two.
///
/// A parallel phase runs as a *batch* of `width` lanes (ParallelFor). The
/// calling thread is lane 0 and can finish the whole batch alone; helper
/// lanes are posted to the pool, each holding a lane index unique among
/// the batch's active lanes, and leave as soon as the batch has nothing
/// queued — a helper never parks a pool worker waiting for work. A batch
/// therefore cannot deadlock, whether nested in another batch's task,
/// concurrent with other batches, or queued behind busy workers: at
/// worst its helpers arrive after lane 0 has done everything. Lane
/// indices lie in `[0, width)`, so per-lane state (search contexts,
/// reduction scratch) is sized by the batch width, not the pool size.
///
/// A running task may add follow-up tasks to its own batch with Submit()
/// (how the engines split a dominating subtree once the queue runs dry).
/// Cancellation is the callee's job (the engines poll their shared
/// SearchBudget); nothing here knows about bicliques.
class ThreadPool {
 public:
  /// A batch task; receives the lane running it.
  using Task = std::function<void(unsigned)>;

  /// Spawns `num_threads` workers (resolved; must be >= 1).
  explicit ThreadPool(unsigned num_threads);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(threads_.size()); }

  /// Queues `task` for the next free worker (FIFO).
  void Post(std::function<void()> task);

  /// The pool whose worker is calling, or null.
  static ThreadPool* Current();

  /// Runs tasks `0 .. num_tasks-1` as `fn(task, lane)` in one batch of
  /// `width` lanes (lane in `[0, width)`); returns once every task,
  /// including tasks added by Submit, has finished. Tasks are claimed in
  /// index order. `fn` must not throw. Safe from any thread, including a
  /// task of this or another batch.
  void ParallelFor(unsigned width, std::uint64_t num_tasks,
                   const std::function<void(std::uint64_t, unsigned)>& fn);

  /// Adds one task to the batch whose task is calling (which therefore
  /// cannot complete meanwhile), posting a helper lane when fewer than
  /// `width` lanes are active (and fewer helpers than pool workers).
  /// Must only be called from inside a batch task.
  static void Submit(Task task);

  /// True when the calling task's batch has fewer tasks queued than lanes
  /// — some lane is starving or about to. Cheap (relaxed atomic); the
  /// engines use it to decide when splitting a subtree is worth the
  /// copies. Must only be called from inside a batch task.
  static bool QueueNearlyDry();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;               // guards tasks_ / stop_.
  std::condition_variable cv_;  // workers wait for posted tasks.
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// The pool a batch started on this thread borrows: ThreadPool::Current(),
/// or — on a thread outside any pool (the CLI, one-shot library calls,
/// tests) — one process pool of ResolveNumThreads(0) workers, built on
/// first use.
ThreadPool& CallerPool();

}  // namespace fairbc

#endif  // FAIRBC_CORE_PARALLEL_H_
