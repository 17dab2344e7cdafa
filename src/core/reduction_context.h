#ifndef FAIRBC_CORE_REDUCTION_CONTEXT_H_
#define FAIRBC_CORE_REDUCTION_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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
/// 2-hop construction, coloring, colorful peeling). Owns — or borrows —
/// the ThreadPool, the per-worker scratch buffers of the construction
/// counter sweeps, and the per-phase timers, so the reduction entry
/// points take one `ReductionContext*` instead of ad-hoc ThreadPool*
/// threading. A null context (the default everywhere) means "serial, no
/// timing" — the exact pre-parallel traversal.
class ReductionContext {
 public:
  /// Serial context: no pool, one worker, timing only.
  ReductionContext();
  /// Owns a pool of `num_threads` workers when num_threads > 1; serial
  /// otherwise (the EnumOptions::num_threads == 1 exact-serial contract).
  explicit ReductionContext(unsigned num_threads);
  ~ReductionContext();

  ReductionContext(const ReductionContext&) = delete;
  ReductionContext& operator=(const ReductionContext&) = delete;

  /// Pool to fan work out on; nullptr = run serial.
  ThreadPool* pool() const { return pool_; }
  /// Worker count (1 when serial); also the valid range of scratch ids.
  unsigned num_workers() const { return num_workers_; }

  ReductionPhaseTimes& times() { return times_; }
  const ReductionPhaseTimes& times() const { return times_; }

  /// Optional span recorder the phase timers also report into
  /// (EnumOptions::trace, threaded through the pipeline); null = timing
  /// only.
  TraceRecorder* trace() const { return trace_; }
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Per-worker counter scratch for the 2-hop construction sweeps, grown
  /// to at least `size` and zero-filled on growth. Borrowers must return
  /// it all-zero (the sweeps reset the slots they touched), which is what
  /// lets phases reuse it without re-clearing. Distinct worker ids may be
  /// used concurrently; the same id must not.
  std::vector<std::uint32_t>& CountScratch(unsigned worker, std::size_t size);
  /// Per-worker first-touch flags, same contract as CountScratch.
  std::vector<char>& FlagScratch(unsigned worker, std::size_t size);

 private:
  struct WorkerScratch {
    std::vector<std::uint32_t> counts;
    std::vector<char> flags;
  };

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  unsigned num_workers_ = 1;
  std::vector<WorkerScratch> scratch_;
  ReductionPhaseTimes times_;
  TraceRecorder* trace_ = nullptr;
};

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
