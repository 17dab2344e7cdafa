#ifndef FAIRBC_CORE_KERNELS_H_
#define FAIRBC_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/types.h"

// Capacity contract checks compile away outside debug builds.
#ifndef FAIRBC_KERNEL_DCHECK
#ifdef NDEBUG
#define FAIRBC_KERNEL_DCHECK(cond) ((void)0)
#else
#include <cassert>
#define FAIRBC_KERNEL_DCHECK(cond) assert(cond)
#endif
#endif

namespace fairbc {

/// Per-class size view used by the allocation-free fairness checks; a
/// SizeVector (fairness/fair_vector.h) converts implicitly.
using SizeSpan = std::span<const std::uint32_t>;

/// Kernel telemetry of one worker: how often the intersection kernels ran,
/// how much element work they did, and which kernel the dispatch heuristic
/// picked (docs/PERF.md documents the heuristic and the crossovers).
/// "Steps" are kernel-specific work units — merge loop iterations, gallop
/// probe comparisons, bitset packs+probes (a BitsetView::Load is free, each
/// CountHits element one step), root-branch wedge visits
/// (SearchContext::CountRootWedges), and below a narrow root one step per
/// slot looked up to build a mask and per row test — comparable across
/// runs of the same workload, not across kernels.
struct KernelStats {
  std::uint64_t calls = 0;   ///< IntersectInto/IntersectSize calls.
  std::uint64_t steps = 0;   ///< element comparisons / work units.
  std::uint64_t merge = 0;   ///< calls dispatched to the branchless merge.
  std::uint64_t gallop = 0;  ///< calls dispatched to the galloping kernel.
  std::uint64_t bitset = 0;  ///< calls dispatched to the packed-bitset kernel.
};

/// Sums `worker` into `into` (used by the per-worker stats merges).
void MergeKernelStats(KernelStats& into, const KernelStats& worker);

/// Grow-only bump allocator backing the engines' recursion scratch: the
/// branch-and-bound frames carve candidate/level stacks out of it instead
/// of heap-allocating vectors per branch. Allocation is a pointer bump
/// into chunked storage; freeing is rewinding to a saved mark (stack
/// discipline, one Save/Rewind pair per recursion frame). Chunks are
/// never released or moved while allocated blocks are live, so spans
/// handed out stay valid until their frame rewinds past them; capacity
/// reaches a high-water mark during the first deep subtree and every
/// later branch is allocation-free. One arena per worker — no
/// synchronization, no sharing.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Position of the bump pointer; Rewind(mark) frees everything
  /// allocated after the matching Save(). Marks must be rewound in LIFO
  /// order (enforced by ArenaScope).
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;  ///< words used in that chunk.
  };

  Mark Save() const { return {chunk_, used_}; }
  void Rewind(const Mark& mark) {
    chunk_ = mark.chunk;
    used_ = mark.used;
  }

  /// Uninitialized block of `n` 32-bit slots (8-byte aligned).
  std::uint32_t* AllocU32(std::size_t n) {
    return reinterpret_cast<std::uint32_t*>(AllocWords((n + 1) / 2));
  }

  /// Uninitialized block of `n` 64-bit words.
  std::uint64_t* AllocWords(std::size_t n);

  /// Default-initialized array of `n` trivially destructible objects
  /// (pointers, spans, ...); rewinding releases it without destructors.
  template <typename T>
  T* AllocArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  alignof(T) <= alignof(std::uint64_t));
    void* raw = AllocWords((n * sizeof(T) + sizeof(std::uint64_t) - 1) /
                           sizeof(std::uint64_t));
    T* out = static_cast<T*>(raw);
    for (std::size_t i = 0; i < n; ++i) ::new (static_cast<void*>(out + i)) T;
    return out;
  }

  /// Rewinds to empty; keeps every chunk (grow-only reuse).
  void Reset() {
    chunk_ = 0;
    used_ = 0;
  }

  /// Total bytes of chunk storage ever acquired (the grow-only
  /// high-water mark; never shrinks).
  std::size_t HighWaterBytes() const { return total_words_ * sizeof(std::uint64_t); }

 private:
  struct Chunk {
    std::unique_ptr<std::uint64_t[]> words;
    std::size_t size = 0;  ///< capacity in words.
  };

  /// First chunk size in words (64 KiB); later chunks double.
  static constexpr std::size_t kFirstChunkWords = 8192;

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  ///< index of the chunk being bumped.
  std::size_t used_ = 0;   ///< words used in chunks_[chunk_].
  std::size_t total_words_ = 0;
};

/// RAII Save/Rewind pair: everything the guarded frame allocates from the
/// arena is released when the scope ends.
class ArenaScope {
 public:
  explicit ArenaScope(ScratchArena& arena)
      : arena_(arena), mark_(arena.Save()) {}
  ~ArenaScope() { arena_.Rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  ScratchArena& arena_;
  const ScratchArena::Mark mark_;
};

/// Fixed-capacity vertex-id sequence carved out of a ScratchArena. The
/// capacity is decided at construction (the engines' set sizes all have
/// cheap upper bounds: |A∩B| <= min(|A|,|B|), filtered subsets fit their
/// source, R grows by one per level); push_back never reallocates, so the
/// storage address is stable and deeper recursion frames may hold spans
/// into it. Debug builds assert the capacity contract.
class IdVec {
 public:
  IdVec() = default;
  IdVec(ScratchArena& arena, std::size_t capacity)
      : data_(arena.AllocU32(capacity)), capacity_(capacity) {}

  void push_back(VertexId v) {
    FAIRBC_KERNEL_DCHECK(size_ < capacity_);
    data_[size_++] = v;
  }
  void clear() { size_ = 0; }
  /// Sets the size after a kernel wrote the elements directly.
  void set_size(std::size_t n) {
    FAIRBC_KERNEL_DCHECK(n <= capacity_);
    size_ = n;
  }

  VertexId* data() { return data_; }
  const VertexId* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  VertexId operator[](std::size_t i) const { return data_[i]; }
  VertexId* begin() { return data_; }
  VertexId* end() { return data_ + size_; }
  const VertexId* begin() const { return data_; }
  const VertexId* end() const { return data_ + size_; }
  std::span<const VertexId> view() const { return {data_, size_}; }

 private:
  VertexId* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Fixed-size per-class counter block carved out of a ScratchArena
/// (replaces per-branch SizeVector allocations in the engines).
class CountVec {
 public:
  CountVec() = default;
  CountVec(ScratchArena& arena, std::size_t n)
      : data_(arena.AllocU32(n)), size_(n) {}
  /// Zero-initializing constructor.
  static CountVec Zero(ScratchArena& arena, std::size_t n) {
    CountVec c(arena, n);
    for (std::size_t i = 0; i < n; ++i) c.data_[i] = 0;
    return c;
  }
  /// Copying constructor (sizes snapshots taken per level).
  static CountVec CopyOf(ScratchArena& arena, SizeSpan other) {
    CountVec c(arena, other.size());
    for (std::size_t i = 0; i < other.size(); ++i) c.data_[i] = other[i];
    return c;
  }

  std::uint32_t& operator[](std::size_t i) { return data_[i]; }
  std::uint32_t operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  std::uint32_t* data() { return data_; }
  SizeSpan view() const { return {data_, size_}; }
  const std::uint32_t* begin() const { return data_; }
  const std::uint32_t* end() const { return data_ + size_; }

 private:
  std::uint32_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Adaptive set-intersection kernels.
//
// All inputs are ascending-sorted duplicate-free id sequences (the CSR
// neighbor-list invariant). Every kernel produces the identical sorted
// output; the dispatch heuristic (IntersectInto/IntersectSize) only
// changes how fast it is computed, never what is computed — the
// parallel-equivalence and property-oracle suites rely on this.
//
// Dispatch (measured crossovers in docs/PERF.md):
//   1. empty/disjoint windows   -> early exit (no kernel).
//   2. max/min size ratio >= 16 -> galloping binary probes of the smaller
//      sequence into the larger one.
//   3. both sides >= 64 elements and the overlap window is dense
//      (window span <= 16 bits per element) and an arena is available
//      for the packed bitmap -> bitset: pack the larger side into a
//      dense 64-bit bitmap over the window, probe it with the smaller
//      side (independent iterations; no loop-carried compare chain).
//   4. otherwise                -> branchless scalar merge.
// ---------------------------------------------------------------------------

/// Intersection size ratio at which galloping beats the merge.
inline constexpr std::size_t kGallopRatio = 16;
/// Minimum smaller-side size for the bitset kernel to amortize packing.
inline constexpr std::size_t kBitsetMinSize = 64;
/// Maximum overlap-window bits per input element for the bitset kernel.
inline constexpr std::size_t kBitsetDensityBits = 16;

/// Adaptive sorted-set intersection into a caller-provided buffer.
/// `dst` must have capacity >= min(|a|,|b|); returns the output size.
/// `arena` (optional) enables the bitset kernel — packing scratch is
/// taken from it and released before returning. `stats` (optional)
/// accumulates kernel telemetry.
std::size_t IntersectInto(VertexId* dst, std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          ScratchArena* arena = nullptr,
                          KernelStats* stats = nullptr);

/// Adaptive intersection size (no output materialized).
std::uint32_t IntersectSize(std::span<const VertexId> a,
                            std::span<const VertexId> b,
                            ScratchArena* arena = nullptr,
                            KernelStats* stats = nullptr);

// Forced-kernel entry points, exposed for the property tests and the
// bench_micro_kernels kernel matrix; production code goes through the
// adaptive dispatchers above.
std::size_t MergeIntersectInto(VertexId* dst, std::span<const VertexId> a,
                               std::span<const VertexId> b,
                               KernelStats* stats = nullptr);
std::size_t GallopIntersectInto(VertexId* dst, std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                KernelStats* stats = nullptr);
std::size_t BitsetIntersectInto(VertexId* dst, std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                ScratchArena& arena,
                                KernelStats* stats = nullptr);

/// Per-worker dense bitmap over one sorted id set, used when many
/// candidate lists are intersected against the same set (the engines'
/// candidate filtering): load once in O(|set|), then count each
/// candidate's hits in O(|candidate|) probes instead of a full merge.
/// Backed by arena words; release by rewinding the arena past Load.
class BitsetView {
 public:
  BitsetView() = default;

  /// Packs `ids` (sorted, nonempty) into arena-backed words covering
  /// [ids.front(), ids.back()].
  static BitsetView Load(ScratchArena& arena, std::span<const VertexId> ids);

  bool Test(VertexId v) const {
    if (v < lo_ || v > hi_) return false;
    const std::uint64_t bit = v - lo_;
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }

  /// |ids ∩ loaded set| — identical to IntersectSize against the loaded
  /// set (`ids` sorted duplicate-free).
  std::uint32_t CountHits(std::span<const VertexId> ids,
                          KernelStats* stats = nullptr) const;

  bool loaded() const { return words_ != nullptr; }

 private:
  const std::uint64_t* words_ = nullptr;
  VertexId lo_ = 0;
  VertexId hi_ = 0;
};

}  // namespace fairbc

#endif  // FAIRBC_CORE_KERNELS_H_
