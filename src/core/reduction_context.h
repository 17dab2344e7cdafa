#ifndef FAIRBC_CORE_REDUCTION_CONTEXT_H_
#define FAIRBC_CORE_REDUCTION_CONTEXT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/timer.h"
#include "obs/trace.h"

namespace fairbc {

class ThreadPool;

/// Wall-clock breakdown of one graph-reduction run: 2-hop construction,
/// coloring, and peeling (the FCore/BFCore passes count toward peel).
/// Surfaced through EnumStats, the CLI stats line and the
/// construct/color/peel trace spans.
struct ReductionPhaseTimes {
  double construct_seconds = 0.0;
  double color_seconds = 0.0;
  double peel_seconds = 0.0;
};

/// Execution context of the graph-reduction front-end (FCore/BFCore,
/// 2-hop construction, coloring, colorful peeling). Carries the width of
/// the reduction's parallel batches and the pool they borrow (the
/// caller's: see CallerPool()), the per-lane scratch buffers of the
/// construction counter sweeps, and the per-phase timers, so the
/// reduction entry points take one `ReductionContext*` instead of ad-hoc
/// pool threading. A null context (the default everywhere) means
/// "serial, no timing" — the exact pre-parallel traversal.
class ReductionContext {
 public:
  /// Serial context: one lane, timing only.
  ReductionContext();
  /// Batches of ResolveNumThreads(num_threads) lanes on CallerPool() when
  /// num_threads > 1; serial otherwise, never touching a pool (the
  /// EnumOptions::num_threads == 1 exact-serial contract).
  explicit ReductionContext(unsigned num_threads);
  ~ReductionContext();

  ReductionContext(const ReductionContext&) = delete;
  ReductionContext& operator=(const ReductionContext&) = delete;

  /// True when the phases fan out; false = run serial.
  bool parallel() const { return pool_ != nullptr; }
  /// Lane count (1 when serial); also the valid range of scratch ids.
  unsigned num_lanes() const { return num_lanes_; }

  /// Runs tasks `0 .. num_tasks-1` as `fn(task, lane)` in one batch of
  /// num_lanes() lanes (ThreadPool::ParallelFor). Requires parallel().
  void ParallelFor(std::uint64_t num_tasks,
                   const std::function<void(std::uint64_t, unsigned)>& fn) const;

  ReductionPhaseTimes& times() { return times_; }
  const ReductionPhaseTimes& times() const { return times_; }

  /// Optional span recorder the phase timers also report into
  /// (EnumOptions::trace, threaded through the pipeline); null = timing
  /// only.
  TraceRecorder* trace() const { return trace_; }
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Per-lane counter scratch for the 2-hop construction sweeps, grown to
  /// at least `size` and zero-filled on growth. Borrowers must return it
  /// all-zero (the sweeps reset the slots they touched), which is what
  /// lets phases reuse it without re-clearing. Distinct lanes may be used
  /// concurrently; the same lane must not.
  std::vector<std::uint32_t>& CountScratch(unsigned lane, std::size_t size);
  /// Per-lane first-touch flags, same contract as CountScratch.
  std::vector<char>& FlagScratch(unsigned lane, std::size_t size);

 private:
  struct LaneScratch {
    std::vector<std::uint32_t> counts;
    std::vector<char> flags;
  };

  ThreadPool* pool_ = nullptr;
  unsigned num_lanes_ = 1;
  std::vector<LaneScratch> scratch_;
  ReductionPhaseTimes times_;
  TraceRecorder* trace_ = nullptr;
};

/// Chunk size of the data-parallel loops (peeling rounds, degree init):
/// coarse enough to amortize queue traffic, fine enough to rebalance.
inline constexpr std::uint64_t kParallelChunk = 512;

/// Runs `fn(begin, end, lane)` over consecutive chunks of `[0, n)` as one
/// batch of the context's lanes. A plain blocking data-parallel loop (no
/// dynamic submission) used by the bulk-synchronous peeling phases.
/// Requires ctx.parallel().
template <typename Fn>
void ParallelForChunks(const ReductionContext& ctx, std::uint64_t n, Fn&& fn) {
  const std::uint64_t chunks = (n + kParallelChunk - 1) / kParallelChunk;
  ctx.ParallelFor(chunks, [&](std::uint64_t chunk, unsigned lane) {
    const std::uint64_t begin = chunk * kParallelChunk;
    fn(begin, std::min(n, begin + kParallelChunk), lane);
  });
}

/// RAII accumulator for one reduction phase: adds the scope's wall-clock
/// to `*accumulator` on destruction; a null accumulator (null context
/// path) makes it a no-op. With a recorder and a span name, the scope is
/// also emitted as a trace span (retroactively, at destruction).
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(double* accumulator, TraceRecorder* trace = nullptr,
                            const char* span_name = nullptr)
      : acc_(accumulator), trace_(trace), span_name_(span_name) {}
  ~ScopedPhaseTimer() {
    const double elapsed = timer_.ElapsedSeconds();
    if (acc_ != nullptr) *acc_ += elapsed;
    if (trace_ != nullptr && span_name_ != nullptr) {
      trace_->RecordEnding(span_name_, elapsed);
    }
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  double* acc_;
  TraceRecorder* trace_;
  const char* span_name_;
  Timer timer_;
};

}  // namespace fairbc

#endif  // FAIRBC_CORE_REDUCTION_CONTEXT_H_
