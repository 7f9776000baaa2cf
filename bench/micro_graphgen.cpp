// Graph generator throughput (experiments regenerate graphs per
// configuration, so generation must stay cheap relative to simulation),
// plus the BM_GraphIo* axis: the same workhorse graph obtained by
// in-process generation vs loading a pre-baked binary .cgr (owned copy
// vs O(header) mmap open vs mmap + full adjacency scan). The committed
// bench_results/BENCH_graph_io.json baseline is guarded by
// scripts/check_step_bench.py --suite graph_io.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>

#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"

namespace {

using namespace cobra;

void BM_GenComplete(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::complete(static_cast<graph::VertexId>(state.range(0))));
}
BENCHMARK(BM_GenComplete)->Arg(256)->Arg(1024);

void BM_GenHypercube(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::hypercube(static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_GenHypercube)->Arg(10)->Arg(14);

void BM_GenTorus2D(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::torus_power(
        static_cast<graph::VertexId>(state.range(0)), 2));
}
BENCHMARK(BM_GenTorus2D)->Arg(32)->Arg(128);

void BM_GenGnp(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  const double p = 10.0 / static_cast<double>(n);  // mean degree 10
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(5, salt++);
    benchmark::DoNotOptimize(graph::erdos_renyi_gnp(n, p, rng));
  }
}
BENCHMARK(BM_GenGnp)->Arg(1 << 12)->Arg(1 << 15);

void BM_GenRandomRegular(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  const auto r = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(6, salt++);
    benchmark::DoNotOptimize(graph::random_regular(n, r, rng));
  }
}
// {1 << 17, 8} is the expander_cover graph: at r = 8 every rejection
// attempt fails, so it times 64 doomed pairings plus the repair path.
BENCHMARK(BM_GenRandomRegular)
    ->Args({1 << 12, 4})
    ->Args({1 << 12, 16})
    ->Args({1 << 16, 3})
    ->Args({1 << 17, 8})
    ->Unit(benchmark::kMillisecond);

void BM_GenWattsStrogatz(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(8, salt++);
    benchmark::DoNotOptimize(graph::watts_strogatz(n, k, 0.1, rng));
  }
}
BENCHMARK(BM_GenWattsStrogatz)
    ->Args({1 << 12, 6})
    ->Args({1 << 16, 10})
    ->Unit(benchmark::kMillisecond);

void BM_GenBarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(7, salt++);
    benchmark::DoNotOptimize(graph::barabasi_albert(n, 3, rng));
  }
}
BENCHMARK(BM_GenBarabasiAlbert)->Arg(1 << 12)->Unit(benchmark::kMillisecond);

// --- BM_GraphIo*: generate vs load vs mmap for the workhorse graph -----

constexpr const char* kIoSpec = "regular_262144_r8";

// The spec baked to a temp .cgr, named per process so concurrent runs do
// not share it, and removed when the program exits.
struct BakedCgr {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("cobra_micro_graph_io." + std::to_string(::getpid()) +
                       ".cgr"))
                         .string();
  BakedCgr() {
    graph::write_cgr_file(graph::build_graph_spec(kIoSpec), path);
  }
  ~BakedCgr() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
};

// Bakes the spec once; every load/mmap bench reads it.
const std::string& baked_cgr_path() {
  static const BakedCgr baked;
  return baked.path;
}

void BM_GraphIoGenerate(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::build_graph_spec(kIoSpec));
  state.SetLabel(std::string(kIoSpec) + "/generate");
}
BENCHMARK(BM_GraphIoGenerate)->Unit(benchmark::kMillisecond);

void BM_GraphIoLoadOwned(benchmark::State& state) {
  const std::string& path = baked_cgr_path();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::load_cgr_file(path, graph::CgrLoadMode::kOwned));
  state.SetLabel(std::string(kIoSpec) + "/load_owned");
}
BENCHMARK(BM_GraphIoLoadOwned)->Unit(benchmark::kMillisecond);

void BM_GraphIoMmapOpen(benchmark::State& state) {
  const std::string& path = baked_cgr_path();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::load_cgr_file(path, graph::CgrLoadMode::kMapped));
  state.SetLabel(std::string(kIoSpec) + "/mmap_open");
}
BENCHMARK(BM_GraphIoMmapOpen)->Unit(benchmark::kMillisecond);

void BM_GraphIoMmapScan(benchmark::State& state) {
  const std::string& path = baked_cgr_path();
  for (auto _ : state) {
    const graph::Graph g =
        graph::load_cgr_file(path, graph::CgrLoadMode::kMapped);
    std::uint64_t sum = 0;
    for (const graph::VertexId v : g.adjacency()) sum += v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(std::string(kIoSpec) + "/mmap_scan");
}
BENCHMARK(BM_GraphIoMmapScan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
