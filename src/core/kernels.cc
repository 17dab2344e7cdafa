#include "core/kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace fairbc {

void MergeKernelStats(KernelStats& into, const KernelStats& worker) {
  into.calls += worker.calls;
  into.steps += worker.steps;
  into.merge += worker.merge;
  into.gallop += worker.gallop;
  into.bitset += worker.bitset;
}

std::uint64_t* ScratchArena::AllocWords(std::size_t n) {
  // Find (or create) a chunk with room; chunks in between are skipped but
  // stay claimed until the covering mark rewinds, preserving live blocks.
  while (true) {
    if (chunk_ == chunks_.size()) {
      std::size_t size = chunks_.empty() ? kFirstChunkWords
                                         : chunks_.back().size * 2;
      size = std::max(size, n);
      chunks_.push_back({std::make_unique<std::uint64_t[]>(size), size});
      total_words_ += size;
    }
    Chunk& c = chunks_[chunk_];
    if (c.size - used_ >= n) {
      std::uint64_t* p = c.words.get() + used_;
      used_ += n;
      return p;
    }
    ++chunk_;
    used_ = 0;
  }
}

namespace {

// Branchless scalar merge: one iteration per element consumed, advance
// decisions computed as data moves (no hard-to-predict taken/not-taken
// pattern on random inputs). The unconditional dst write is safe: the
// write index k only advances on a match, and k == min(|a|,|b|) implies
// the smaller side is exhausted, so k < min(|a|,|b|) at every write.
std::size_t MergeInto(VertexId* dst, std::span<const VertexId> a,
                      std::span<const VertexId> b, std::uint64_t* steps) {
  std::size_t i = 0, j = 0, k = 0;
  const std::size_t na = a.size(), nb = b.size();
  std::uint64_t iters = 0;
  while (i < na && j < nb) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    dst[k] = x;
    k += (x == y);
    i += (x <= y);
    j += (x >= y);
    ++iters;
  }
  if (steps != nullptr) *steps += iters;
  return k;
}

std::size_t MergeSize(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::uint64_t* steps) {
  std::size_t i = 0, j = 0, k = 0;
  const std::size_t na = a.size(), nb = b.size();
  std::uint64_t iters = 0;
  while (i < na && j < nb) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    k += (x == y);
    i += (x <= y);
    j += (x >= y);
    ++iters;
  }
  if (steps != nullptr) *steps += iters;
  return k;
}

// Galloping lower bound: doubles the probe distance from `from` until the
// value at the probe is >= x, then binary-searches the bracketed range.
// O(log gap) per lookup, so intersecting a small set against a huge one
// costs |small| * log(|large|) instead of |small| + |large|.
std::size_t GallopLowerBound(std::span<const VertexId> v, std::size_t from,
                             VertexId x, std::uint64_t* steps) {
  std::size_t lo = from;
  std::size_t hi = from;
  std::size_t step = 1;
  std::uint64_t probes = 0;
  while (hi < v.size() && v[hi] < x) {
    lo = hi + 1;
    hi += step;
    step *= 2;
    ++probes;
  }
  hi = std::min(hi, v.size());
  // Invariant: v[lo-1] < x (or lo == from), v[hi] >= x (or hi == size).
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (v[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (steps != nullptr) *steps += probes;
  return lo;
}

template <bool kEmit>
std::size_t GallopImpl(VertexId* dst, std::span<const VertexId> a,
                       std::span<const VertexId> b, std::uint64_t* steps) {
  // Probe the smaller sequence into the larger one.
  std::span<const VertexId> small = a.size() <= b.size() ? a : b;
  std::span<const VertexId> large = a.size() <= b.size() ? b : a;
  std::size_t pos = 0;
  std::size_t k = 0;
  for (const VertexId x : small) {
    pos = GallopLowerBound(large, pos, x, steps);
    if (pos == large.size()) break;
    if (large[pos] == x) {
      if constexpr (kEmit) dst[k] = x;
      ++k;
      ++pos;
    }
  }
  return k;
}

struct PackedWindow {
  const std::uint64_t* words = nullptr;
  VertexId lo = 0;
  std::size_t nwords = 0;
};

// Packs the slice of `ids` falling into [lo, hi] as set bits over `lo`.
// The per-word bits are accumulated in a register (sorted input makes the
// word index non-decreasing), so packing dense runs does not serialize on
// store-to-load forwarding through the same word.
PackedWindow Pack(ScratchArena& arena, std::span<const VertexId> ids,
                  VertexId lo, VertexId hi, std::uint64_t* steps) {
  PackedWindow w;
  w.lo = lo;
  w.nwords = (static_cast<std::uint64_t>(hi) - lo) / 64 + 1;
  std::uint64_t* words = arena.AllocWords(w.nwords);
  std::memset(words, 0, w.nwords * sizeof(std::uint64_t));
  const VertexId* first =
      std::lower_bound(ids.data(), ids.data() + ids.size(), lo);
  const VertexId* last =
      std::upper_bound(first, ids.data() + ids.size(), hi);
  std::uint64_t acc = 0;
  std::uint64_t wi = 0;
  for (const VertexId* p = first; p != last; ++p) {
    const std::uint64_t bit = *p - lo;
    const std::uint64_t word = bit >> 6;
    if (word != wi) {
      words[wi] = acc;  // each word is visited once; memset covers gaps.
      wi = word;
      acc = 0;
    }
    acc |= std::uint64_t{1} << (bit & 63);
  }
  words[wi] = acc;  // nwords >= 1, so the flush is in range even when empty.
  if (steps != nullptr) *steps += static_cast<std::uint64_t>(last - first);
  w.words = words;
  return w;
}

template <bool kEmit>
std::size_t BitsetImpl(VertexId* dst, std::span<const VertexId> a,
                       std::span<const VertexId> b, ScratchArena& arena,
                       std::uint64_t* steps) {
  // Elements outside the overlap window cannot match; pack only the
  // window [lo, hi].
  const VertexId lo = std::max(a.front(), b.front());
  const VertexId hi = std::min(a.back(), b.back());
  if (hi < lo) return 0;
  // Pack the larger side once, then probe with the smaller: linear in
  // |a|+|b| like the merge, but the probe iterations are independent (no
  // loop-carried compare chain), and the sorted probe side emits matches
  // already in order — no bit-extraction pass.
  std::span<const VertexId> small = a.size() <= b.size() ? a : b;
  std::span<const VertexId> large = a.size() <= b.size() ? b : a;
  ArenaScope scope(arena);
  const PackedWindow w = Pack(arena, large, lo, hi, steps);
  const VertexId* first =
      std::lower_bound(small.data(), small.data() + small.size(), lo);
  const VertexId* last =
      std::upper_bound(first, small.data() + small.size(), hi);
  std::size_t k = 0;
  for (const VertexId* p = first; p != last; ++p) {
    const std::uint64_t bit = *p - lo;
    // Unconditional write, advance on hit: by the time dst[k] is written,
    // k <= probes-so-far < |small|, so the slot exists (same argument as
    // the branchless merge).
    if constexpr (kEmit) dst[k] = *p;
    k += static_cast<std::size_t>((w.words[bit >> 6] >> (bit & 63)) & 1u);
  }
  if (steps != nullptr) *steps += static_cast<std::uint64_t>(last - first);
  return k;
}

enum class Kernel { kNone, kMerge, kGallop, kBitset };

// The dispatch heuristic shared by every adaptive entry point; see the
// header comment and docs/PERF.md for the crossovers behind the
// constants.
Kernel Choose(std::span<const VertexId> a, std::span<const VertexId> b,
              const ScratchArena* arena) {
  const std::size_t small = std::min(a.size(), b.size());
  const std::size_t large = std::max(a.size(), b.size());
  if (small == 0) return Kernel::kNone;
  if (a.front() > b.back() || b.front() > a.back()) return Kernel::kNone;
  if (small * kGallopRatio < large) return Kernel::kGallop;
  if (arena != nullptr && small >= kBitsetMinSize) {
    const std::uint64_t lo = std::max(a.front(), b.front());
    const std::uint64_t hi = std::min(a.back(), b.back());
    const std::uint64_t window = hi - lo + 1;
    if (window <= static_cast<std::uint64_t>(a.size() + b.size()) *
                      kBitsetDensityBits) {
      return Kernel::kBitset;
    }
  }
  return Kernel::kMerge;
}

void Count(KernelStats* stats, Kernel kernel) {
  if (stats == nullptr) return;
  ++stats->calls;
  switch (kernel) {
    case Kernel::kNone:
      break;
    case Kernel::kMerge:
      ++stats->merge;
      break;
    case Kernel::kGallop:
      ++stats->gallop;
      break;
    case Kernel::kBitset:
      ++stats->bitset;
      break;
  }
}

}  // namespace

std::size_t IntersectInto(VertexId* dst, std::span<const VertexId> a,
                          std::span<const VertexId> b, ScratchArena* arena,
                          KernelStats* stats) {
  const Kernel kernel = Choose(a, b, arena);
  Count(stats, kernel);
  std::uint64_t* steps = stats != nullptr ? &stats->steps : nullptr;
  switch (kernel) {
    case Kernel::kNone:
      return 0;
    case Kernel::kGallop:
      return GallopImpl<true>(dst, a, b, steps);
    case Kernel::kBitset:
      return BitsetImpl<true>(dst, a, b, *arena, steps);
    case Kernel::kMerge:
      break;
  }
  return MergeInto(dst, a, b, steps);
}

std::uint32_t IntersectSize(std::span<const VertexId> a,
                            std::span<const VertexId> b, ScratchArena* arena,
                            KernelStats* stats) {
  const Kernel kernel = Choose(a, b, arena);
  Count(stats, kernel);
  std::uint64_t* steps = stats != nullptr ? &stats->steps : nullptr;
  switch (kernel) {
    case Kernel::kNone:
      return 0;
    case Kernel::kGallop:
      return static_cast<std::uint32_t>(GallopImpl<false>(nullptr, a, b, steps));
    case Kernel::kBitset:
      return static_cast<std::uint32_t>(
          BitsetImpl<false>(nullptr, a, b, *arena, steps));
    case Kernel::kMerge:
      break;
  }
  return static_cast<std::uint32_t>(MergeSize(a, b, steps));
}

std::size_t MergeIntersectInto(VertexId* dst, std::span<const VertexId> a,
                               std::span<const VertexId> b,
                               KernelStats* stats) {
  if (stats != nullptr) {
    ++stats->calls;
    ++stats->merge;
  }
  return MergeInto(dst, a, b, stats != nullptr ? &stats->steps : nullptr);
}

std::size_t GallopIntersectInto(VertexId* dst, std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                KernelStats* stats) {
  if (stats != nullptr) {
    ++stats->calls;
    ++stats->gallop;
  }
  if (a.empty() || b.empty()) return 0;
  return GallopImpl<true>(dst, a, b,
                          stats != nullptr ? &stats->steps : nullptr);
}

std::size_t BitsetIntersectInto(VertexId* dst, std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                ScratchArena& arena, KernelStats* stats) {
  if (stats != nullptr) {
    ++stats->calls;
    ++stats->bitset;
  }
  if (a.empty() || b.empty()) return 0;
  return BitsetImpl<true>(dst, a, b, arena,
                          stats != nullptr ? &stats->steps : nullptr);
}

BitsetView BitsetView::Load(ScratchArena& arena,
                            std::span<const VertexId> ids) {
  BitsetView view;
  FAIRBC_KERNEL_DCHECK(!ids.empty());
  view.lo_ = ids.front();
  view.hi_ = ids.back();
  const std::size_t nwords =
      (static_cast<std::uint64_t>(view.hi_) - view.lo_) / 64 + 1;
  std::uint64_t* words = arena.AllocWords(nwords);
  std::memset(words, 0, nwords * sizeof(std::uint64_t));
  std::uint64_t acc = 0;
  std::uint64_t wi = 0;
  for (const VertexId v : ids) {
    const std::uint64_t bit = v - view.lo_;
    const std::uint64_t word = bit >> 6;
    if (word != wi) {
      words[wi] = acc;
      wi = word;
      acc = 0;
    }
    acc |= std::uint64_t{1} << (bit & 63);
  }
  words[wi] = acc;
  view.words_ = words;
  return view;
}

std::uint32_t BitsetView::CountHits(std::span<const VertexId> ids,
                                    KernelStats* stats) const {
  if (stats != nullptr) {
    ++stats->calls;
    ++stats->bitset;
    stats->steps += ids.size();
  }
  std::uint32_t hits = 0;
  for (const VertexId v : ids) hits += Test(v) ? 1u : 0u;
  return hits;
}

}  // namespace fairbc
