// Property tests for the adaptive set-intersection kernels
// (core/kernels.h): every kernel — forced merge/gallop/bitset and the
// adaptive dispatchers — must match the std::set_intersection oracle on
// randomized and adversarial inputs. Also covers the ScratchArena stack
// discipline, the arena-backed containers, BitsetView, the
// allocation-free recursion contract, and an 8-worker engine run for the
// sanitizer suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <vector>

#include "core/kernels.h"
#include "core/pipeline.h"
#include "test_util.h"

// The replacement operators below pair ::operator new with
// std::malloc/std::free, which GCC flags when it inlines both sides of a
// new/delete pair in this TU; the pairing is intentional and consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Global allocation counter for the allocation-free recursion test. The
// overrides count every heap allocation made by the test binary; tests
// read the counter before/after a code region.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// a pair left to the runtime would hand malloc'ed blocks to a foreign
// free, which AddressSanitizer reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fairbc {
namespace {

using ::fairbc::testing::RandomSmallGraph;

std::vector<VertexId> Oracle(const std::vector<VertexId>& a,
                             const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Sorted duplicate-free set of `n` ids with mean gap `mean_gap`, starting
// at `base` (lets tests park sets near the top of the id space).
std::vector<VertexId> RandomSet(std::mt19937& rng, std::size_t n,
                                std::uint32_t mean_gap, VertexId base = 0) {
  std::uniform_int_distribution<std::uint32_t> gap(
      1, mean_gap > 1 ? 2 * mean_gap - 1 : 1);
  std::vector<VertexId> v(n);
  VertexId cur = base;
  for (std::size_t i = 0; i < n; ++i) {
    cur += gap(rng);
    v[i] = cur;
  }
  return v;
}

// Runs every kernel on (a, b) and checks each against the oracle.
// `check_bitset` is off for inputs whose overlap window is so wide that
// the forced bitset kernel would pack gigabytes (the adaptive dispatch
// never picks it there; the forced entry point trusts its caller).
void ExpectAllKernelsMatch(const std::vector<VertexId>& a,
                           const std::vector<VertexId>& b,
                           bool check_bitset = true) {
  const std::vector<VertexId> want = Oracle(a, b);
  const std::size_t cap = std::min(a.size(), b.size());
  std::vector<VertexId> dst(cap + 1, 0xdeadbeef);
  ScratchArena arena;
  KernelStats stats;

  dst.assign(cap + 1, 0xdeadbeef);
  std::size_t n = MergeIntersectInto(dst.data(), a, b, &stats);
  EXPECT_EQ(std::vector<VertexId>(dst.begin(), dst.begin() + n), want)
      << "merge";

  dst.assign(cap + 1, 0xdeadbeef);
  n = GallopIntersectInto(dst.data(), a, b, &stats);
  EXPECT_EQ(std::vector<VertexId>(dst.begin(), dst.begin() + n), want)
      << "gallop";
  // Probing order is symmetric in the result.
  dst.assign(cap + 1, 0xdeadbeef);
  n = GallopIntersectInto(dst.data(), b, a, &stats);
  EXPECT_EQ(std::vector<VertexId>(dst.begin(), dst.begin() + n), want)
      << "gallop swapped";

  if (check_bitset && !a.empty() && !b.empty()) {
    dst.assign(cap + 1, 0xdeadbeef);
    const ScratchArena::Mark before = arena.Save();
    n = BitsetIntersectInto(dst.data(), a, b, arena, &stats);
    EXPECT_EQ(std::vector<VertexId>(dst.begin(), dst.begin() + n), want)
        << "bitset";
    // The kernel's packing scratch must be released on return.
    const ScratchArena::Mark after = arena.Save();
    EXPECT_EQ(before.chunk, after.chunk);
    EXPECT_EQ(before.used, after.used);
  }

  // Adaptive dispatch, with and without an arena.
  dst.assign(cap + 1, 0xdeadbeef);
  n = IntersectInto(dst.data(), a, b, &arena, &stats);
  EXPECT_EQ(std::vector<VertexId>(dst.begin(), dst.begin() + n), want)
      << "adaptive+arena";
  dst.assign(cap + 1, 0xdeadbeef);
  n = IntersectInto(dst.data(), a, b, nullptr, &stats);
  EXPECT_EQ(std::vector<VertexId>(dst.begin(), dst.begin() + n), want)
      << "adaptive";
  EXPECT_EQ(IntersectSize(a, b, &arena, &stats), want.size());
  EXPECT_EQ(IntersectSize(a, b), want.size());

  // The unconditional-write kernels must not write past min(|a|,|b|).
  EXPECT_EQ(dst[cap], 0xdeadbeefu);
}

TEST(KernelsPropertyTest, RandomizedAgainstOracle) {
  std::mt19937 rng(20230817);
  std::uniform_int_distribution<std::size_t> size_a(0, 300);
  std::uniform_int_distribution<std::size_t> ratio(1, 24);
  std::uniform_int_distribution<std::uint32_t> density(1, 80);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t na = size_a(rng);
    const std::size_t nb = std::min<std::size_t>(na * ratio(rng), 4000);
    std::vector<VertexId> a = RandomSet(rng, na, density(rng));
    std::vector<VertexId> b = RandomSet(rng, nb, density(rng));
    // Half the trials share a window (overlap likely); the rest are
    // independent windows (overlap coincidental).
    if (trial % 2 == 0 && !a.empty() && !b.empty()) {
      const VertexId shift = std::min(a.front(), b.front());
      for (VertexId& x : b) x = x - b.front() + shift;
    }
    ExpectAllKernelsMatch(a, b);
  }
}

TEST(KernelsPropertyTest, AdversarialSkew1To1024) {
  std::mt19937 rng(7);
  std::vector<VertexId> big = RandomSet(rng, 16384, 5);
  // Small side sampled from the big side: every element hits.
  std::vector<VertexId> small;
  std::sample(big.begin(), big.end(), std::back_inserter(small), 16, rng);
  ExpectAllKernelsMatch(small, big);
  // And a small side that misses everything (odd offsets of a gap-2 set).
  std::vector<VertexId> miss;
  for (VertexId v : small) miss.push_back(v + 1);
  miss.erase(std::unique(miss.begin(), miss.end()), miss.end());
  ExpectAllKernelsMatch(miss, big);
}

TEST(KernelsPropertyTest, AllEqual) {
  std::mt19937 rng(11);
  std::vector<VertexId> a = RandomSet(rng, 500, 3);
  ExpectAllKernelsMatch(a, a);
}

TEST(KernelsPropertyTest, DisjointInterleavedAndSeparated) {
  std::vector<VertexId> evens;
  std::vector<VertexId> odds;
  for (VertexId v = 0; v < 512; ++v) {
    (v % 2 == 0 ? evens : odds).push_back(v);
  }
  ExpectAllKernelsMatch(evens, odds);  // interleaved, zero hits.
  std::vector<VertexId> high;
  for (VertexId v = 10000; v < 10256; ++v) high.push_back(v);
  // Separated windows: the dispatch short-circuits, the forced kernels
  // must still agree.
  ExpectAllKernelsMatch(evens, high);
}

TEST(KernelsPropertyTest, EmptyAndSingleElement) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{42};
  const std::vector<VertexId> other{41};
  const std::vector<VertexId> many{1, 2, 42, 99};
  ExpectAllKernelsMatch(empty, empty);
  ExpectAllKernelsMatch(empty, many);
  ExpectAllKernelsMatch(many, empty);
  ExpectAllKernelsMatch(one, one);
  ExpectAllKernelsMatch(one, other);
  ExpectAllKernelsMatch(one, many);
  ExpectAllKernelsMatch(many, one);
}

TEST(KernelsPropertyTest, MaxIdBoundaries) {
  const VertexId top = std::numeric_limits<VertexId>::max();
  // Narrow window parked at the very top of the id space: the bitset
  // window arithmetic must not overflow 32 bits.
  std::vector<VertexId> a;
  std::vector<VertexId> b;
  for (VertexId off = 200; off > 0; off -= 2) a.push_back(top - off);
  for (VertexId off = 201; off > 0; off -= 3) b.push_back(top - off);
  a.push_back(top);
  b.push_back(top);
  ExpectAllKernelsMatch(a, b);
  // Extreme spread (0 and top in the same set): the forced bitset kernel
  // would pack a 4G-bit window, so only the other kernels run; the
  // adaptive dispatch must classify this as sparse and still be exact.
  std::vector<VertexId> spread{0, 1, 65536, top - 1, top};
  std::vector<VertexId> mid{1, 70000, top - 1};
  ExpectAllKernelsMatch(spread, mid, /*check_bitset=*/false);
}

TEST(KernelsPropertyTest, StatsCountDispatchedKernels) {
  std::mt19937 rng(5);
  ScratchArena arena;
  KernelStats stats;
  std::vector<VertexId> dst(4096);

  // Skewed -> gallop.
  std::vector<VertexId> small = RandomSet(rng, 8, 4);
  std::vector<VertexId> large = RandomSet(rng, 4096, 4);
  IntersectInto(dst.data(), small, large, &arena, &stats);
  EXPECT_EQ(stats.gallop, 1u);

  // Balanced + dense + arena -> bitset.
  std::vector<VertexId> d1 = RandomSet(rng, 512, 2);
  std::vector<VertexId> d2 = RandomSet(rng, 512, 2);
  IntersectInto(dst.data(), d1, d2, &arena, &stats);
  EXPECT_EQ(stats.bitset, 1u);
  // Same inputs without an arena fall back to the merge.
  IntersectInto(dst.data(), d1, d2, nullptr, &stats);
  EXPECT_EQ(stats.merge, 1u);

  EXPECT_EQ(stats.calls, 3u);
  EXPECT_GT(stats.steps, 0u);

  KernelStats total;
  MergeKernelStats(total, stats);
  MergeKernelStats(total, stats);
  EXPECT_EQ(total.calls, 2 * stats.calls);
  EXPECT_EQ(total.steps, 2 * stats.steps);
}

TEST(ScratchArenaTest, MarksRewindAndChunksGrow) {
  ScratchArena arena;
  EXPECT_EQ(arena.HighWaterBytes(), 0u);

  const ScratchArena::Mark root = arena.Save();
  std::uint32_t* a = arena.AllocU32(100);
  for (int i = 0; i < 100; ++i) a[i] = i;
  const std::size_t after_first = arena.HighWaterBytes();
  EXPECT_GT(after_first, 0u);

  {
    ArenaScope scope(arena);
    // Larger than the first chunk: forces a second chunk while `a` stays
    // live in the first one.
    std::uint32_t* big = arena.AllocU32(64 * 1024);
    big[0] = 7;
    big[64 * 1024 - 1] = 9;
    EXPECT_GT(arena.HighWaterBytes(), after_first);
    // The earlier block must not have moved or been clobbered.
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], static_cast<std::uint32_t>(i));
  }
  const std::size_t high_water = arena.HighWaterBytes();

  // Rewinding freed the big block's words; an identical allocation cycle
  // must reuse the grown chunks without acquiring more storage.
  for (int round = 0; round < 3; ++round) {
    ArenaScope scope(arena);
    std::uint32_t* big = arena.AllocU32(64 * 1024);
    big[0] = round;
    EXPECT_EQ(arena.HighWaterBytes(), high_water);
  }

  arena.Rewind(root);
  arena.Reset();
  EXPECT_EQ(arena.HighWaterBytes(), high_water);  // grow-only, kept.
  std::uint32_t* again = arena.AllocU32(100);
  EXPECT_EQ(again, a);  // Reset rewound to the very start.
}

TEST(ScratchArenaTest, IdVecAndCountVec) {
  ScratchArena arena;
  IdVec v(arena, 4);
  EXPECT_TRUE(v.empty());
  v.push_back(3);
  v.push_back(1);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 3u);
  EXPECT_EQ(v.view().size(), 2u);
  v.clear();
  EXPECT_TRUE(v.empty());
  // Kernel-style use: write through data(), then set_size.
  v.data()[0] = 8;
  v.data()[1] = 9;
  v.set_size(2);
  EXPECT_EQ(std::vector<VertexId>(v.begin(), v.end()),
            (std::vector<VertexId>{8, 9}));

  CountVec zero = CountVec::Zero(arena, 3);
  EXPECT_EQ(zero[0] + zero[1] + zero[2], 0u);
  zero[1] = 5;
  CountVec copy = CountVec::CopyOf(arena, zero.view());
  EXPECT_EQ(copy[1], 5u);
  copy[1] = 6;
  EXPECT_EQ(zero[1], 5u);  // independent storage.
}

TEST(BitsetViewTest, MatchesIntersectSize) {
  std::mt19937 rng(123);
  ScratchArena arena;
  std::vector<VertexId> base = RandomSet(rng, 700, 6);
  ArenaScope scope(arena);
  BitsetView view = BitsetView::Load(arena, base);
  ASSERT_TRUE(view.loaded());
  EXPECT_FALSE(BitsetView().loaded());

  EXPECT_TRUE(view.Test(base.front()));
  EXPECT_TRUE(view.Test(base.back()));
  EXPECT_FALSE(view.Test(base.front() - 1));
  EXPECT_FALSE(view.Test(base.back() + 1));

  KernelStats stats;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<VertexId> probe = RandomSet(rng, 120, 7);
    EXPECT_EQ(view.CountHits(probe, &stats), IntersectSize(probe, base));
  }
  EXPECT_EQ(stats.calls, 50u);
}

// The engines' recursion must be allocation-free: after a warm-up run has
// grown the per-worker arena to its high-water mark, a second identical
// run may only allocate a driver-level constant — independent of the
// number of search nodes visited and of the number of results.
TEST(KernelsEngineTest, RecursionIsAllocationFree) {
  BipartiteGraph g = RandomSmallGraph(/*seed=*/45, /*max_side=*/18,
                                      /*density=*/0.6);
  FairBicliqueParams params{1, 1, 2, 0.0};
  EnumOptions options;
  options.pruning = PruningLevel::kNone;  // isolate the search itself.
  options.num_threads = 1;

  CountSink warm;
  EnumStats warm_stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                        params, options, warm.AsSink());
  ASSERT_GT(warm_stats.search_nodes, 100u);

  CountSink sink;
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                   params, options, sink.AsSink());
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(sink.count(), warm.count());
  // Measured budget: a driver-level constant (ordering permutation, stats
  // plumbing, the emission stage's block and Biclique buffers growing to
  // their bounded size; ~46 blocks) — nothing proportional to
  // search_nodes or to the results. A recursion or an emission path that
  // allocated even one block per branch or per result would blow through
  // this bound.
  EXPECT_GT(stats.search_nodes, 100u);
  EXPECT_GT(sink.count(), 128u);  // the bound is meaningful.
  EXPECT_LT(allocs, 64u) << "allocated per branch or per result; nodes="
                         << stats.search_nodes
                         << " results=" << sink.count();
}

// FairBCEM++ expands each maximal biclique into its maximal fair subsets
// (paper Alg. 6 lines 25-28); that stage must not allocate per subset.
// K(4,18) plus two upper vertices covering overlapping halves of the
// lower side: the main maximal biclique expands to C(14,5) * C(4,4) =
// 2002 fair subsets, of which those inside the second half have a larger
// common neighborhood and are rejected.
TEST(KernelsEngineTest, FairSubsetExpansionIsAllocationFree) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 18; ++v) edges.emplace_back(u, v);
  }
  for (VertexId v = 0; v < 12; ++v) edges.emplace_back(4, v);
  for (VertexId v = 6; v < 18; ++v) edges.emplace_back(5, v);
  std::vector<AttrId> lower_attrs(18, 0);
  for (VertexId v = 14; v < 18; ++v) lower_attrs[v] = 1;
  BipartiteGraph g = testing::MakeGraph(
      6, 18, edges, std::vector<AttrId>(6, 0), lower_attrs);
  FairBicliqueParams params{1, 1, 1, 0.0};
  EnumOptions options;
  options.pruning = PruningLevel::kNone;
  options.num_threads = 1;

  CountSink warm;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, options,
                 warm.AsSink());

  CountSink sink;
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                                   params, options, sink.AsSink());
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(sink.count(), warm.count());
  EXPECT_EQ(stats.num_results, sink.count());
  ASSERT_GE(sink.count(), 1000u);
  EXPECT_LT(allocs, 64 + 16 * stats.maximal_bicliques_visited)
      << "allocated per fair subset; results=" << sink.count()
      << " mbc=" << stats.maximal_bicliques_visited;
}

// 8-worker run for the sanitizer suites: TSan sees the arena and kernel
// telemetry under real concurrency, and the result digest must match the
// serial run exactly.
TEST(KernelsEngineTest, EightWorkerRunMatchesSerial) {
  BipartiteGraph g = RandomSmallGraph(/*seed=*/77, /*max_side=*/12,
                                      /*density=*/0.55);
  FairBicliqueParams params{1, 1, 1, 0.0};

  EnumOptions serial;
  serial.num_threads = 1;
  CollectSink serial_sink;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem, params, serial,
                 serial_sink.AsSink());

  EnumOptions parallel;
  parallel.num_threads = 8;
  CollectSink parallel_sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                   params, parallel, parallel_sink.AsSink());

  EXPECT_EQ(testing::Canonicalize(parallel_sink.results()),
            testing::Canonicalize(serial_sink.results()));
  // Telemetry survived the merge. Steps, not calls: every root charges
  // its wedge visits, while nodes below a narrow root test rows and
  // charge no call, so calls depend on which lane runs a split child.
  EXPECT_GT(stats.kernels.steps, 0u);
}

}  // namespace
}  // namespace fairbc
