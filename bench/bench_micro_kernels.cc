// Google-benchmark microbenchmarks for the library's kernels: core
// peeling, 2-hop construction, coloring, combination counting, the
// enumeration engines on a fixed mid-size affiliation graph, and the
// set-intersection kernels of core/kernels.h.
//
// `--kernel_matrix[=quick]` bypasses Google Benchmark and prints one JSON
// document to stdout: run metadata plus a "kernel_matrix" array timing
// every kernel across size ratios 1:1..1:1024 and sparse..dense overlap
// windows, with the adaptive dispatcher's choice and its speedup over the
// scalar merge per cell. docs/PERF.md explains how to re-baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util/meta.h"
#include "core/cfcore.h"
#include "core/coloring.h"
#include "core/fcore.h"
#include "core/kernels.h"
#include "core/pipeline.h"
#include "core/reduction_context.h"
#include "core/two_hop_graph.h"
#include "fairness/fair_vector.h"
#include "graph/generators.h"

namespace {

const fairbc::BipartiteGraph& TestGraph() {
  static const fairbc::BipartiteGraph* g = [] {
    fairbc::AffiliationConfig config;
    config.num_upper = 2000;
    config.num_lower = 1000;
    config.num_communities = 60;
    config.seed = 99;
    return new fairbc::BipartiteGraph(fairbc::MakeAffiliation(config));
  }();
  return *g;
}

void BM_FCore(benchmark::State& state) {
  const auto& g = TestGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::FCore(g, 3, 2));
  }
}
BENCHMARK(BM_FCore);

void BM_BFCore(benchmark::State& state) {
  const auto& g = TestGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::BFCore(g, 2, 2));
  }
}
BENCHMARK(BM_BFCore);

void BM_CFCore(benchmark::State& state) {
  const auto& g = TestGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::CFCore(g, 3, 2));
  }
}
BENCHMARK(BM_CFCore);

void BM_TwoHopConstruction(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::SideMasks masks = fairbc::FCore(g, 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fairbc::Construct2HopGraph(g, fairbc::Side::kLower, 3, masks));
  }
}
BENCHMARK(BM_TwoHopConstruction);

void BM_GreedyColoring(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::SideMasks masks = fairbc::FCore(g, 3, 2);
  fairbc::UnipartiteGraph h =
      fairbc::Construct2HopGraph(g, fairbc::Side::kLower, 3, masks);
  std::vector<char> alive(h.NumVertices(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::GreedyColor(h, alive));
  }
}
BENCHMARK(BM_GreedyColoring);

void BM_JonesPlassmannColoring(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::SideMasks masks = fairbc::FCore(g, 3, 2);
  fairbc::UnipartiteGraph h =
      fairbc::Construct2HopGraph(g, fairbc::Side::kLower, 3, masks);
  std::vector<char> alive(h.NumVertices(), 1);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  fairbc::ReductionContext ctx(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::JonesPlassmannColor(h, alive, &ctx));
  }
}
BENCHMARK(BM_JonesPlassmannColoring)->Arg(1)->Arg(4);

void BM_TwoHopConstructionParallel(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::SideMasks masks = fairbc::FCore(g, 3, 2);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  fairbc::ReductionContext ctx(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fairbc::Construct2HopGraph(g, fairbc::Side::kLower, 3, masks, &ctx));
  }
}
BENCHMARK(BM_TwoHopConstructionParallel)->Arg(1)->Arg(4);

void BM_MaximalFairVectors(benchmark::State& state) {
  fairbc::SizeVector counts{static_cast<std::uint32_t>(state.range(0)),
                            static_cast<std::uint32_t>(state.range(0) / 2)};
  fairbc::FairnessSpec spec{2, 2, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::MaximalFairVectors(counts, spec));
  }
}
BENCHMARK(BM_MaximalFairVectors)->Arg(8)->Arg(64)->Arg(1024);

void BM_CountMaximalFairSubsets(benchmark::State& state) {
  fairbc::SizeVector counts{static_cast<std::uint32_t>(state.range(0)),
                            static_cast<std::uint32_t>(state.range(0)) / 2};
  fairbc::FairnessSpec spec{2, 2, 0.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::CountMaximalFairSubsets(counts, spec));
  }
}
BENCHMARK(BM_CountMaximalFairSubsets)->Arg(16)->Arg(256);

void BM_SSFBCPlusPlus(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::FairBicliqueParams params{3, 2, 2, 0.0};
  for (auto _ : state) {
    fairbc::CountSink sink;
    fairbc::RunEnumeration(g, fairbc::FairModel::kSsfbc,
                           fairbc::FairAlgo::kPlusPlus, params, {},
                           sink.AsSink());
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_SSFBCPlusPlus);

void BM_SSFBC(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::FairBicliqueParams params{3, 2, 2, 0.0};
  for (auto _ : state) {
    fairbc::CountSink sink;
    fairbc::RunEnumeration(g, fairbc::FairModel::kSsfbc,
                           fairbc::FairAlgo::kBcem, params, {},
                           sink.AsSink());
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_SSFBC);

void BM_BSFBCPlusPlus(benchmark::State& state) {
  const auto& g = TestGraph();
  fairbc::FairBicliqueParams params{2, 2, 2, 0.0};
  for (auto _ : state) {
    fairbc::CountSink sink;
    fairbc::RunEnumeration(g, fairbc::FairModel::kBsfbc,
                           fairbc::FairAlgo::kPlusPlus, params, {},
                           sink.AsSink());
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_BSFBCPlusPlus);

// --- Intersection-kernel microbenchmarks ------------------------------------

// Sorted duplicate-free id set of `n` elements with mean gap `mean_gap`
// (window span ~ n * mean_gap, i.e. `mean_gap` bits per element).
std::vector<fairbc::VertexId> MakeIdSet(std::mt19937& rng, std::size_t n,
                                        std::uint32_t mean_gap) {
  std::uniform_int_distribution<std::uint32_t> gap(
      1, mean_gap > 1 ? 2 * mean_gap - 1 : 1);
  std::vector<fairbc::VertexId> v(n);
  fairbc::VertexId cur = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cur += gap(rng);
    v[i] = cur;
  }
  return v;
}

// Random sorted `n`-subset of `from` (the small side of a skewed pair —
// mirrors a candidate set drawn from a neighbor list).
std::vector<fairbc::VertexId> MakeSubset(std::mt19937& rng,
                                         const std::vector<fairbc::VertexId>& from,
                                         std::size_t n) {
  std::vector<fairbc::VertexId> out;
  out.reserve(n);
  std::sample(from.begin(), from.end(), std::back_inserter(out), n, rng);
  return out;  // std::sample preserves order => still sorted.
}

void BM_IntersectAdaptive(benchmark::State& state) {
  std::mt19937 rng(1234);
  const auto ratio = static_cast<std::size_t>(state.range(0));
  const std::size_t small_n = 2048;
  auto b = MakeIdSet(rng, small_n * ratio, 16);
  auto a = MakeSubset(rng, b, small_n);
  std::vector<fairbc::VertexId> dst(small_n);
  fairbc::ScratchArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairbc::IntersectInto(dst.data(), a, b, &arena));
  }
}
BENCHMARK(BM_IntersectAdaptive)->Arg(1)->Arg(16)->Arg(256);

// --- `--kernel_matrix` JSON mode --------------------------------------------

// ns/op of `op`: min average across fixed-size batches until the cell's
// time budget is spent. The min filters scheduler stalls and cgroup
// throttling, which otherwise dominate short windows on shared runners.
template <typename Op>
double TimeNs(Op&& op, double budget_ms) {
  using Clock = std::chrono::steady_clock;
  // Warm-up: loads caches and grows the arena to its high water.
  op();
  // Size batches so one batch is ~1/16 of the budget.
  const auto t0 = Clock::now();
  op();
  const double probe_ns =
      std::max(1.0, std::chrono::duration<double, std::nano>(Clock::now() - t0)
                        .count());
  const std::uint64_t batch = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(budget_ms * 1e6 / 16.0 / probe_ns));
  const auto deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(budget_ms * 1000));
  double best = 1e300;
  do {
    const auto start = Clock::now();
    for (std::uint64_t r = 0; r < batch; ++r) op();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        static_cast<double>(batch);
    best = std::min(best, ns);
  } while (Clock::now() < deadline);
  return best;
}

int RunKernelMatrix(bool quick) {
  const std::size_t small_n = quick ? 1024 : 4096;
  const double budget_ms = quick ? 2.0 : 20.0;
  const std::size_t ratios[] = {1, 4, 16, 64, 256, 1024};
  struct Density {
    const char* label;
    std::uint32_t bits;  // mean window bits per element.
  };
  const Density densities[] = {{"dense", 2}, {"mid", 16}, {"sparse", 64}};

  std::ostringstream os;
  os << "{\"meta\":"
     << fairbc::RunMetadataJson(fairbc::CollectRunMetadata(/*dataset_seed=*/1234))
     << ",\"quick\":" << (quick ? "true" : "false") << ",\"kernel_matrix\":[";
  bool first_cell = true;
  for (std::size_t ratio : ratios) {
    for (const Density& d : densities) {
      std::mt19937 rng(1234);
      const auto b = MakeIdSet(rng, small_n * ratio, d.bits);
      const auto a = MakeSubset(rng, b, small_n);
      std::vector<fairbc::VertexId> dst(small_n);
      fairbc::ScratchArena arena;

      const double merge_ns = TimeNs(
          [&] {
            benchmark::DoNotOptimize(
                fairbc::MergeIntersectInto(dst.data(), a, b));
          },
          budget_ms);
      const double gallop_ns = TimeNs(
          [&] {
            benchmark::DoNotOptimize(
                fairbc::GallopIntersectInto(dst.data(), a, b));
          },
          budget_ms);
      const double bitset_ns = TimeNs(
          [&] {
            benchmark::DoNotOptimize(
                fairbc::BitsetIntersectInto(dst.data(), a, b, arena));
          },
          budget_ms);
      fairbc::KernelStats stats;
      const double adaptive_ns = TimeNs(
          [&] {
            benchmark::DoNotOptimize(
                fairbc::IntersectInto(dst.data(), a, b, &arena, &stats));
          },
          budget_ms);
      const char* dispatch = stats.gallop > 0   ? "gallop"
                             : stats.bitset > 0 ? "bitset"
                                                : "merge";

      if (!first_cell) os << ",";
      first_cell = false;
      os << "{\"ratio\":" << ratio << ",\"density\":\"" << d.label
         << "\",\"density_bits\":" << d.bits << ",\"small\":" << small_n
         << ",\"large\":" << small_n * ratio << ",\"merge_ns\":" << merge_ns
         << ",\"gallop_ns\":" << gallop_ns << ",\"bitset_ns\":" << bitset_ns
         << ",\"adaptive_ns\":" << adaptive_ns << ",\"dispatch\":\"" << dispatch
         << "\",\"speedup_vs_merge\":" << merge_ns / adaptive_ns << "}";
    }
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--kernel_matrix" || arg == "--kernel_matrix=quick") {
      return RunKernelMatrix(arg == "--kernel_matrix=quick");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
