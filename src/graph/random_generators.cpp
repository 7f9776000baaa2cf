#include "graph/random_generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace cobra::graph {

Graph erdos_renyi_gnp(VertexId n, double p, rng::Rng& rng) {
  COBRA_CHECK(n >= 2);
  COBRA_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  std::ostringstream name;
  name << "gnp(" << n << ",p=" << p << ")";

  if (p <= 0.0) return std::move(b).build(name.str());
  if (p >= 1.0) return complete(n);

  // Enumerate pairs (u, v), u < v, as a flat index and jump geometrically:
  // between successive edges there are Geom(p)-distributed failures, so the
  // expected cost is O(n + m) instead of O(n^2).
  const double log1mp = std::log1p(-p);
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Flat index k -> pair: row u covers (n-1-u) pairs starting at row_start.
  std::int64_t k = -1;
  VertexId u = 0;
  std::uint64_t row_start = 0;            // flat index of (u, u+1)
  std::uint64_t row_len = n - 1;          // pairs in row u
  while (true) {
    const double x = rng.uniform01();
    const double skip = std::floor(std::log1p(-x) / log1mp);
    // skip can exceed any integer range for tiny p; clamp via total.
    if (skip >= static_cast<double>(total)) break;
    k += static_cast<std::int64_t>(skip) + 1;
    const auto ku = static_cast<std::uint64_t>(k);
    if (ku >= total) break;
    while (ku >= row_start + row_len) {
      row_start += row_len;
      ++u;
      row_len = n - 1 - u;
    }
    const VertexId v = u + 1 + static_cast<VertexId>(ku - row_start);
    b.add_edge(u, v);
  }
  return std::move(b).build(name.str());
}

namespace {

using Edge = std::pair<VertexId, VertexId>;

Edge canonical(VertexId a, VertexId b) { return std::minmax(a, b); }

/// The simple (good) edges of a pairing as a flat per-vertex adjacency.
/// Every vertex owns r stubs, so it is never an endpoint of more than r
/// good edges: n·r slots plus a degree array hold them all. Membership
/// scans at most r slots, insert appends to both endpoints and erase
/// swap-removes from both.
class BoundedAdjacency {
 public:
  BoundedAdjacency(VertexId n, std::uint32_t r)
      : r_(r), degree_(n, 0), slots_(static_cast<std::size_t>(n) * r) {}

  void clear() { std::fill(degree_.begin(), degree_.end(), 0u); }

  [[nodiscard]] bool contains(VertexId a, VertexId b) const {
    if (degree_[b] < degree_[a]) std::swap(a, b);
    const VertexId* first = row(a);
    const VertexId* last = first + degree_[a];
    return std::find(first, last, b) != last;
  }

  void insert(VertexId a, VertexId b) {
    COBRA_DCHECK(degree_[a] < r_ && degree_[b] < r_);
    row(a)[degree_[a]++] = b;
    row(b)[degree_[b]++] = a;
  }

  void erase(VertexId a, VertexId b) {
    remove_from(a, b);
    remove_from(b, a);
  }

 private:
  VertexId* row(VertexId v) {
    return slots_.data() + static_cast<std::size_t>(v) * r_;
  }
  const VertexId* row(VertexId v) const {
    return slots_.data() + static_cast<std::size_t>(v) * r_;
  }
  void remove_from(VertexId v, VertexId w) {
    VertexId* first = row(v);
    VertexId* last = first + degree_[v];
    VertexId* it = std::find(first, last, w);
    COBRA_DCHECK(it != last);
    *it = *(last - 1);
    --degree_[v];
  }

  std::uint32_t r_;
  std::vector<std::uint32_t> degree_;
  std::vector<VertexId> slots_;
};

/// Refills `stubs` with r copies of each vertex in order and shuffles it:
/// consecutive pairs are the pairing model's edges.
void shuffled_stubs(VertexId n, std::uint32_t r, rng::Rng& rng,
                    std::vector<VertexId>& stubs) {
  auto it = stubs.begin();
  for (VertexId v = 0; v < n; ++v) it = std::fill_n(it, r, v);
  rng.shuffle(stubs.begin(), stubs.end());
}

/// One pairing-model attempt; false as soon as a collision (self-loop or
/// parallel edge) occurs.
bool try_pairing(VertexId n, std::uint32_t r, rng::Rng& rng,
                 std::vector<VertexId>& stubs, BoundedAdjacency& simple,
                 std::vector<Edge>& edges) {
  shuffled_stubs(n, r, rng, stubs);
  edges.clear();
  simple.clear();
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    const VertexId a = stubs[i], b = stubs[i + 1];
    if (a == b || simple.contains(a, b)) return false;
    simple.insert(a, b);
    edges.emplace_back(a, b);
  }
  return true;
}

/// Pairing attempt that keeps collisions, then repairs them with random
/// edge switches: replace {(u,v) bad, (x,y) good} by {(u,x),(v,y)} when the
/// result is simple. Terminates quickly because collisions are O(r^2) in
/// expectation while good edges are ~ nr/2.
void pairing_with_repair(VertexId n, std::uint32_t r, rng::Rng& rng,
                         std::vector<VertexId>& stubs,
                         BoundedAdjacency& simple, std::vector<Edge>& edges) {
  shuffled_stubs(n, r, rng, stubs);
  edges.clear();
  for (std::size_t i = 0; i < stubs.size(); i += 2)
    edges.emplace_back(stubs[i], stubs[i + 1]);

  simple.clear();
  std::vector<std::size_t> bad;
  std::vector<char> is_bad(edges.size(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [a, b] = edges[i];
    if (a == b || simple.contains(a, b)) {
      bad.push_back(i);
      is_bad[i] = 1;
    } else {
      simple.insert(a, b);
    }
  }

  std::uint64_t guard = 0;
  const std::uint64_t guard_limit =
      1000 + 200 * static_cast<std::uint64_t>(bad.size() + 1) *
                 static_cast<std::uint64_t>(r + 1);
  while (!bad.empty()) {
    COBRA_CHECK_MSG(++guard < guard_limit,
                    "random_regular repair failed to converge (n="
                        << n << ", r=" << r << ")");
    const std::size_t i = bad.back();
    const std::size_t j = static_cast<std::size_t>(rng.below(edges.size()));
    if (i == j) continue;
    // j must be a good edge: testing `simple` membership is NOT enough —
    // a duplicate bad edge's pair is in `simple` via its good twin, and
    // switching with it would strand that twin outside `simple` (a later
    // switch could then re-create the pair, leaving a duplicate in the
    // final edge list).
    if (is_bad[j]) continue;
    // Propose switch: (u,v),(x,y) -> (u,x),(v,y).
    const auto [u, v] = edges[i];
    const auto [x, y] = edges[j];
    const Edge e1 = canonical(u, x);
    const Edge e2 = canonical(v, y);
    if (e1.first == e1.second || e2.first == e2.second || e1 == e2) continue;
    if (simple.contains(u, x) || simple.contains(v, y)) continue;
    // Erase before inserting: x and y may already hold r good edges.
    simple.erase(x, y);
    simple.insert(u, x);
    simple.insert(v, y);
    edges[i] = e1;
    edges[j] = e2;
    is_bad[i] = 0;
    bad.pop_back();
  }
}

/// Canonical edges {u < v} packed as u<<32 | v in an open-addressed,
/// linear-probing table with tombstones. Sized once for `max_keys`
/// occupied slots (live keys plus tombstones), at most half full.
class PackedEdgeSet {
 public:
  explicit PackedEdgeSet(std::size_t max_keys)
      : table_(std::bit_ceil(2 * max_keys + 2), kEmpty),
        mask_(table_.size() - 1) {}

  [[nodiscard]] bool contains(VertexId a, VertexId b) const {
    const std::uint64_t key = pack(a, b);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (table_[i] == key) return true;
      if (table_[i] == kEmpty) return false;
    }
  }

  /// Requires the edge to be absent.
  void insert(VertexId a, VertexId b) {
    const std::uint64_t key = pack(a, b);
    std::size_t i = home(key);
    while (table_[i] != kEmpty && table_[i] != kTombstone) i = (i + 1) & mask_;
    table_[i] = key;
  }

  /// Requires the edge to be present.
  void erase(VertexId a, VertexId b) {
    const std::uint64_t key = pack(a, b);
    std::size_t i = home(key);
    while (table_[i] != key) i = (i + 1) & mask_;
    table_[i] = kTombstone;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint64_t key : table_)
      if (key != kEmpty && key != kTombstone)
        fn(static_cast<VertexId>(key >> 32), static_cast<VertexId>(key));
  }

 private:
  // u < v <= 2^32 - 1 keeps every packed key below both sentinels.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kTombstone = kEmpty - 1;

  static std::uint64_t pack(VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(rng::mix64(key)) & mask_;
  }

  std::vector<std::uint64_t> table_;
  std::size_t mask_;
};

}  // namespace

Graph random_regular(VertexId n, std::uint32_t r, rng::Rng& rng,
                     std::uint32_t max_restarts) {
  COBRA_CHECK(n >= 2 && r >= 1 && r < n);
  COBRA_CHECK_MSG((static_cast<std::uint64_t>(n) * r) % 2 == 0,
                  "n*r must be even for an r-regular graph");
  std::ostringstream name;
  name << "random_regular(" << n << ",r=" << r << ")";

  std::vector<VertexId> stubs(static_cast<std::size_t>(n) * r);
  BoundedAdjacency simple(n, r);
  std::vector<Edge> edges;
  edges.reserve(stubs.size() / 2);
  auto build = [&] {
    GraphBuilder b(n);
    b.reserve(edges.size());
    for (const auto& [u, v] : edges) b.add_edge(u, v);
    return std::move(b).build(name.str());
  };
  // Rejection keeps exact uniformity over simple pairings; success
  // probability is roughly exp(-(r^2-1)/4), so give up early for large r.
  const std::uint32_t restarts = r <= 8 ? max_restarts : max_restarts / 8 + 1;
  for (std::uint32_t attempt = 0; attempt < restarts; ++attempt)
    if (try_pairing(n, r, rng, stubs, simple, edges)) return build();
  pairing_with_repair(n, r, rng, stubs, simple, edges);
  return build();
}

Graph watts_strogatz(VertexId n, std::uint32_t k, double beta,
                     rng::Rng& rng) {
  COBRA_CHECK(n >= 4);
  COBRA_CHECK_MSG(k >= 2 && k % 2 == 0 && k < n,
                  "watts_strogatz needs even 2 <= k < n");
  COBRA_CHECK(beta >= 0.0 && beta <= 1.0);

  // Each rewire erases one lattice edge and inserts one new edge, so the
  // table sees at most two keys per lattice edge over its lifetime.
  const std::size_t lattice_edges = static_cast<std::size_t>(n) * (k / 2);
  PackedEdgeSet edge_set(2 * lattice_edges);
  for (VertexId u = 0; u < n; ++u)
    for (std::uint32_t s = 1; s <= k / 2; ++s)
      edge_set.insert(u, static_cast<VertexId>((u + s) % n));

  // Rewire pass (lattice order, as in the original model).
  for (VertexId u = 0; u < n; ++u) {
    for (std::uint32_t s = 1; s <= k / 2; ++s) {
      const auto v = static_cast<VertexId>((u + s) % n);
      if (!edge_set.contains(u, v)) continue;  // already rewired
      if (!rng.bernoulli(beta)) continue;
      // Try a handful of replacement endpoints; keep the edge on failure.
      for (int tries = 0; tries < 32; ++tries) {
        const auto w = static_cast<VertexId>(rng.below(n));
        if (w == u || w == v) continue;
        if (edge_set.contains(u, w)) continue;
        edge_set.erase(u, v);
        edge_set.insert(u, w);
        break;
      }
    }
  }

  GraphBuilder b(n);
  b.reserve(lattice_edges);
  edge_set.for_each([&b](VertexId x, VertexId y) { b.add_edge(x, y); });
  std::ostringstream name;
  name << "watts_strogatz(" << n << ",k=" << k << ",beta=" << beta << ")";
  return std::move(b).build(name.str());
}

Graph barabasi_albert(VertexId n, std::uint32_t edges_per_vertex,
                      rng::Rng& rng) {
  const std::uint32_t m = edges_per_vertex;
  COBRA_CHECK(m >= 1);
  COBRA_CHECK(n >= m + 2);

  GraphBuilder b(n);
  // Endpoint multiset for degree-proportional sampling.
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(n) * m);

  // Seed: star on vertices 0..m (vertex m is the hub) keeps everything
  // connected from the start.
  for (VertexId v = 0; v < m; ++v) {
    b.add_edge(v, m);
    endpoints.push_back(v);
    endpoints.push_back(m);
  }

  std::vector<VertexId> targets;
  for (VertexId v = m + 1; v < n; ++v) {
    targets.clear();
    while (targets.size() < m) {
      const VertexId t =
          endpoints[static_cast<std::size_t>(rng.below(endpoints.size()))];
      if (std::find(targets.begin(), targets.end(), t) == targets.end())
        targets.push_back(t);
    }
    for (const VertexId t : targets) {
      b.add_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  std::ostringstream name;
  name << "barabasi_albert(" << n << ",m=" << m << ")";
  return std::move(b).build(name.str());
}

Graph connected_erdos_renyi(VertexId n, double c, rng::Rng& rng,
                            std::uint32_t max_attempts) {
  COBRA_CHECK(c > 1.0);
  const double p = std::min(1.0, c * std::log(static_cast<double>(n)) /
                                     static_cast<double>(n));
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = erdos_renyi_gnp(n, p, rng);
    if (is_connected(g)) return g;
  }
  COBRA_CHECK_MSG(false, "connected_erdos_renyi: no connected sample in "
                             << max_attempts << " attempts (n=" << n
                             << ", c=" << c << ")");
  return Graph{};  // unreachable
}

Graph connected_random_regular(VertexId n, std::uint32_t r, rng::Rng& rng,
                               std::uint32_t max_attempts) {
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = random_regular(n, r, rng);
    if (is_connected(g)) return g;
  }
  COBRA_CHECK_MSG(false, "connected_random_regular: no connected sample in "
                             << max_attempts << " attempts (n=" << n
                             << ", r=" << r << ")");
  return Graph{};  // unreachable
}

}  // namespace cobra::graph
