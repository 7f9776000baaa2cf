#include "baselines/pull_gossip.hpp"

#include "util/assert.hpp"

namespace cobra::baselines {

namespace {

core::FrontierKernel make_gossip_kernel(const graph::Graph& g,
                                        const BaselineOptions& options) {
  core::FrontierKernel::Config cfg;
  cfg.engine = core::resolve_engine(options.engine);
  cfg.kernel_threads = core::resolve_kernel_threads(options.kernel_threads);
  cfg.sampler = options.sampler;
  return core::FrontierKernel(g, cfg);
}

}  // namespace

PullResult pull_gossip_cover(const graph::Graph& g, graph::VertexId start,
                             rng::Rng& rng, std::uint64_t max_rounds,
                             const BaselineOptions& options) {
  COBRA_CHECK(start < g.num_vertices());
  COBRA_CHECK(g.min_degree() >= 1);
  using core::FrontierKernel;
  FrontierKernel kernel = make_gossip_kernel(g, options);
  const graph::VertexId one[] = {start};
  kernel.assign(one);
  const core::NeighborSampler& sampler = kernel.sampler();

  PullResult result;
  while (!kernel.all_visited() && result.rounds < max_rounds) {
    const std::uint64_t round_key = rng.next_u64();
    const bool dense =
        kernel.begin_round(kernel.density_score(kernel.frontier_size()));
    // Synchronous semantics: pulls test the round's starting frontier; new
    // adopters join only at commit.
    if (dense) {
      result.transmissions += kernel.scatter_complement_scan(
          [&](core::FrontierKernel::DenseLane& lane, graph::VertexId u) {
            const graph::VertexId contact =
                sampler.sample(u, lane.draws(round_key, u).next_word());
            ++lane.user;
            if (kernel.in_frontier(contact)) lane.emit(u);
          });
    } else {
      auto sink = kernel.growth_sink();
      kernel.for_each_outside_frontier([&](graph::VertexId u) {
        const graph::VertexId contact =
            sampler.sample(u, kernel.draws(round_key, u).next_word());
        ++result.transmissions;
        if (kernel.in_frontier(contact)) sink.emit(u);
      });
    }
    kernel.commit(FrontierKernel::Commit::kAccumulate);
    ++result.rounds;
  }
  result.completed = kernel.all_visited();
  return result;
}

PullResult push_pull_gossip_cover(const graph::Graph& g,
                                  graph::VertexId start, rng::Rng& rng,
                                  std::uint64_t max_rounds,
                                  const BaselineOptions& options) {
  COBRA_CHECK(start < g.num_vertices());
  COBRA_CHECK(g.min_degree() >= 1);
  using core::FrontierKernel;
  const graph::VertexId n = g.num_vertices();
  FrontierKernel kernel = make_gossip_kernel(g, options);
  const graph::VertexId one[] = {start};
  kernel.assign(one);
  const core::NeighborSampler& sampler = kernel.sampler();

  PullResult result;
  while (!kernel.all_visited() && result.rounds < max_rounds) {
    const std::uint64_t round_key = rng.next_u64();
    // Every vertex contacts every round, so the representation never
    // changes the work; the round inherits the current one.
    const bool dense = kernel.begin_round(
        kernel.dense_mode() ? 1.0 : 0.0);
    if (dense) {
      result.transmissions += kernel.scatter_vertex_scan(
          [&](core::FrontierKernel::DenseLane& lane, graph::VertexId u) {
            const graph::VertexId contact =
                sampler.sample(u, lane.draws(round_key, u).next_word());
            ++lane.user;
            if (kernel.in_frontier(u)) {
              // Push: u informs its contact.
              if (!kernel.in_frontier(contact)) lane.emit(contact);
            } else if (kernel.in_frontier(contact)) {
              // Pull: u learns from its contact.
              lane.emit(u);
            }
          });
    } else {
      auto sink = kernel.growth_sink();
      for (graph::VertexId u = 0; u < n; ++u) {
        const graph::VertexId contact =
            sampler.sample(u, kernel.draws(round_key, u).next_word());
        ++result.transmissions;
        if (kernel.in_frontier(u)) {
          // Push: u informs its contact.
          if (!kernel.in_frontier(contact)) sink.emit(contact);
        } else if (kernel.in_frontier(contact)) {
          // Pull: u learns from its contact.
          sink.emit(u);
        }
      }
    }
    kernel.commit(FrontierKernel::Commit::kAccumulate);
    ++result.rounds;
  }
  result.completed = kernel.all_visited();
  return result;
}

}  // namespace cobra::baselines
