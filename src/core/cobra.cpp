#include "core/cobra.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cobra::core {

FrontierKernel::Config CobraProcess::kernel_config() const {
  FrontierKernel::Config cfg;
  cfg.engine = engine_;
  cfg.laziness = options_.laziness;
  // The legacy reference engine draws destinations sequentially from the
  // replicate stream and never needs the push sampler.
  cfg.build_sampler = engine_ != Engine::kReference;
  cfg.track_visited = true;
  cfg.sampler = engine_ != Engine::kReference ? options_.sampler : nullptr;
  cfg.metrics = options_.metrics;
  cfg.kernel_threads = resolve_kernel_threads(options_.kernel_threads);
  return cfg;
}

CobraProcess::CobraProcess(const graph::Graph& g, ProcessOptions options)
    : graph_(&g),
      options_(std::move(options)),
      engine_((options_.validate(), resolve_engine(options_.engine))),
      kernel_(g, kernel_config()) {
  COBRA_CHECK_MSG(g.num_vertices() >= 1, "empty graph");
  COBRA_CHECK_MSG(g.num_vertices() == 1 || g.min_degree() >= 1,
                  "COBRA needs every vertex to have a neighbour to push to "
                  "(the single-vertex graph is the one degree-0 exception)");
  reset(0);
}

void CobraProcess::reset(graph::VertexId start) {
  const graph::VertexId one[] = {start};
  reset(std::span<const graph::VertexId>(one, 1));
}

void CobraProcess::reset(std::span<const graph::VertexId> start) {
  kernel_.assign(start);
  round_ = 0;
  transmissions_ = 0;
}

std::uint32_t CobraProcess::step(rng::Rng& rng) {
  if (engine_ == Engine::kReference) return step_reference(rng);

  // Fast engines: one round key from the sequential stream; every
  // per-vertex choice below is a pure function of (round_key, vertex), so
  // the frontier representation cannot affect the outcome.
  return step_fast(rng.next_u64());
}

std::uint32_t CobraProcess::step_reference(rng::Rng& rng) {
  const std::uint64_t transmissions_before = transmissions_;
  kernel_.begin_round(0.0);  // kReference: always a sparse round
  auto sink = kernel_.coalescing_sink();
  const double laziness = options_.laziness;

  kernel_.for_each_in_frontier([&](graph::VertexId u) {
    const std::uint32_t fanout = draw_fanout(rng);
    transmissions_ += fanout;
    const auto nbrs = graph_->neighbors(u);
    for (std::uint32_t j = 0; j < fanout; ++j) {
      graph::VertexId dest;
      if (laziness > 0.0 && rng.bernoulli(laziness)) {
        dest = u;
      } else if (nbrs.empty()) {
        dest = u;  // single-vertex graph: every push stays put
      } else {
        dest = nbrs[static_cast<std::size_t>(rng.below(nbrs.size()))];
      }
      sink.emit(dest);
    }
  });

  const std::uint32_t newly = kernel_.commit(FrontierKernel::Commit::kReplace);
  if (StepMetrics* m = kernel_.metrics())
    m->emissions += transmissions_ - transmissions_before;
  ++round_;
  return newly;
}

template <typename Sink>
void CobraProcess::push_round(std::uint64_t round_key, Sink sink) {
  const Branching& branching = options_.branching;
  const NeighborSampler& sampler = kernel_.sampler();
  kernel_.for_each_in_frontier([&](graph::VertexId u) {
    VertexDraws draws = kernel_.draws(round_key, u);
    std::uint32_t fanout = branching.base;
    if (branching.extra_prob > 0.0 && draws.bernoulli(branching.extra_prob))
      ++fanout;
    transmissions_ += fanout;
    for (std::uint32_t j = 0; j < fanout; ++j)
      sink.emit(sampler.sample(u, draws.next_word()));
  });
}

void CobraProcess::push_round_dense(std::uint64_t round_key) {
  const Branching& branching = options_.branching;
  const NeighborSampler& sampler = kernel_.sampler();
  transmissions_ += kernel_.scatter_frontier_scan(
      [&](FrontierKernel::DenseLane& lane, graph::VertexId u) {
        VertexDraws draws = lane.draws(round_key, u);
        std::uint32_t fanout = branching.base;
        if (branching.extra_prob > 0.0 &&
            draws.bernoulli(branching.extra_prob))
          ++fanout;
        lane.user += fanout;
        for (std::uint32_t j = 0; j < fanout; ++j)
          lane.emit(sampler.sample(u, draws.next_word()));
      });
}

std::uint32_t CobraProcess::step_fast(std::uint64_t round_key) {
  const std::uint64_t transmissions_before = transmissions_;
  const bool dense =
      kernel_.begin_round(kernel_.density_score(kernel_.frontier_size()));
  if (dense) {
    push_round_dense(round_key);
  } else {
    push_round(round_key, kernel_.coalescing_sink());
  }
  const std::uint32_t newly = kernel_.commit(FrontierKernel::Commit::kReplace);
  if (StepMetrics* m = kernel_.metrics())
    m->emissions += transmissions_ - transmissions_before;
  ++round_;
  return newly;
}

std::optional<std::uint64_t> CobraProcess::run_until_cover(
    rng::Rng& rng, std::uint64_t max_rounds) {
  if (all_visited()) return round_;
  while (round_ < max_rounds) {
    step(rng);
    if (all_visited()) return round_;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> CobraProcess::run_until_hit(
    rng::Rng& rng, graph::VertexId target, std::uint64_t max_rounds) {
  COBRA_CHECK(target < graph_->num_vertices());
  if (is_visited(target)) return round_;
  while (round_ < max_rounds) {
    step(rng);
    if (is_visited(target)) return round_;
  }
  return std::nullopt;
}

}  // namespace cobra::core
