#include "baselines/multi_walk.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace cobra::baselines {

MultiWalkResult multi_walk_cover(const graph::Graph& g,
                                 graph::VertexId start, std::uint32_t k,
                                 rng::Rng& rng, std::uint64_t max_rounds,
                                 const BaselineOptions& options) {
  COBRA_CHECK(start < g.num_vertices());
  COBRA_CHECK(k >= 1);
  COBRA_CHECK(g.min_degree() >= 1);
  core::resolve_engine(options.engine);  // validate the session engine
  std::shared_ptr<const core::NeighborSampler> sampler = options.sampler;
  if (sampler) {
    COBRA_CHECK_MSG(&sampler->graph() == &g && sampler->laziness() == 0.0,
                    "shared NeighborSampler must match the graph with "
                    "laziness 0");
  } else {
    sampler = std::make_shared<const core::NeighborSampler>(g, 0.0);
  }

  util::DynamicBitset visited(g.num_vertices());
  visited.set(start);
  std::uint32_t remaining = g.num_vertices() - 1;
  std::vector<graph::VertexId> particles(k, start);

  MultiWalkResult result;
  while (remaining > 0 && result.rounds < max_rounds) {
    const std::uint64_t round_key = rng.next_u64();
    for (std::uint32_t i = 0; i < k; ++i) {
      core::VertexDraws draws(round_key, i);
      graph::VertexId& u = particles[i];
      u = sampler->sample(u, draws.next_word());
      if (visited.set_and_test(u)) --remaining;
    }
    ++result.rounds;
    result.transmissions += k;
  }
  result.completed = (remaining == 0);
  return result;
}

}  // namespace cobra::baselines
