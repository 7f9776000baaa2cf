#include "baselines/push_gossip.hpp"

#include "util/assert.hpp"

namespace cobra::baselines {

GossipResult push_gossip_cover(const graph::Graph& g, graph::VertexId start,
                               rng::Rng& rng, std::uint64_t max_rounds,
                               const BaselineOptions& options) {
  COBRA_CHECK(start < g.num_vertices());
  COBRA_CHECK(g.min_degree() >= 1);
  using core::FrontierKernel;
  FrontierKernel::Config cfg;
  cfg.engine = core::resolve_engine(options.engine);
  cfg.kernel_threads = core::resolve_kernel_threads(options.kernel_threads);
  cfg.sampler = options.sampler;
  FrontierKernel kernel(g, cfg);
  const graph::VertexId one[] = {start};
  kernel.assign(one);
  const core::NeighborSampler& sampler = kernel.sampler();

  GossipResult result;
  while (!kernel.all_visited() && result.rounds < max_rounds) {
    // Synchronous semantics: pushes this round come from vertices informed
    // before it — the frontier snapshot the kernel iterates.
    const std::uint32_t senders = kernel.frontier_size();
    const std::uint64_t round_key = rng.next_u64();
    const bool dense = kernel.begin_round(kernel.density_score(senders));
    if (dense) {
      kernel.scatter_frontier_scan(
          [&](core::FrontierKernel::DenseLane& lane, graph::VertexId u) {
            const graph::VertexId v =
                sampler.sample(u, lane.draws(round_key, u).next_word());
            if (!kernel.is_visited(v)) lane.emit(v);
          });
    } else {
      auto sink = kernel.growth_sink();
      kernel.for_each_in_frontier([&](graph::VertexId u) {
        sink.emit(sampler.sample(u, kernel.draws(round_key, u).next_word()));
      });
    }
    kernel.commit(FrontierKernel::Commit::kAccumulate);
    ++result.rounds;
    result.transmissions += senders;
  }
  result.completed = kernel.all_visited();
  return result;
}

}  // namespace cobra::baselines
