#include "mesh/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "support/check.hpp"

namespace earthred::mesh {

namespace {

struct Candidate {
  double dist2;
  std::uint32_t a, b;
};

/// Enumerates all pairs within `radius` using a uniform cell grid over the
/// coordinate bounding box, then returns the `target` shortest (ties broken
/// by index pair, so the result is deterministic).
std::vector<Edge> k_shortest_pairs(
    const std::vector<std::array<double, 3>>& pts, std::uint64_t target) {
  const std::uint32_t n = static_cast<std::uint32_t>(pts.size());
  ER_CHECK_MSG(target <= static_cast<std::uint64_t>(n) * (n - 1) / 2,
               "more edges requested than node pairs exist");

  std::array<double, 3> lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
  for (const auto& p : pts) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  const double volume = std::max({hi[0] - lo[0], 1e-12}) *
                        std::max({hi[1] - lo[1], 1e-12}) *
                        std::max({hi[2] - lo[2], 1e-12});
  // Start from the radius at which the expected number of in-range pairs
  // (n^2 * sphere/volume / 2) is ~1.5x the target, then grow until enough
  // candidates are found.
  const bool planar = (hi[2] - lo[2]) < 1e-9;
  double radius;
  if (planar) {
    const double area = std::max(hi[0] - lo[0], 1e-12) *
                        std::max(hi[1] - lo[1], 1e-12);
    radius = std::sqrt(3.0 * static_cast<double>(target) * area /
                       (3.14159265358979 * static_cast<double>(n) *
                        static_cast<double>(n)));
  } else {
    radius = std::cbrt(4.5 * static_cast<double>(target) * volume /
                       (4.18879 * static_cast<double>(n) *
                        static_cast<double>(n)));
  }

  std::vector<Candidate> cands;
  for (int attempt = 0; attempt < 24; ++attempt) {
    cands.clear();
    const double r2 = radius * radius;
    const double cell = radius;
    auto cell_of = [&](const std::array<double, 3>& p, int d) {
      return static_cast<std::int64_t>(std::floor((p[d] - lo[d]) / cell));
    };
    const std::int64_t nx = cell_of(hi, 0) + 1;
    const std::int64_t ny = cell_of(hi, 1) + 1;
    const std::int64_t nz = cell_of(hi, 2) + 1;
    auto key = [&](std::int64_t cx, std::int64_t cy, std::int64_t cz) {
      return (cx * ny + cy) * nz + cz;
    };
    // Bucket points by cell (counting sort into a CSR layout).
    const auto ncells = static_cast<std::size_t>(nx * ny * nz);
    std::vector<std::uint32_t> count(ncells + 1, 0);
    std::vector<std::size_t> pkey(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      pkey[i] = static_cast<std::size_t>(
          key(cell_of(pts[i], 0), cell_of(pts[i], 1), cell_of(pts[i], 2)));
      ++count[pkey[i] + 1];
    }
    for (std::size_t c = 1; c <= ncells; ++c) count[c] += count[c - 1];
    std::vector<std::uint32_t> bucket(n);
    {
      std::vector<std::uint32_t> cur(count.begin(), count.end() - 1);
      for (std::uint32_t i = 0; i < n; ++i) bucket[cur[pkey[i]]++] = i;
    }
    // For each point, scan the 27 neighbouring cells; count each pair once.
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::int64_t cx = cell_of(pts[i], 0);
      const std::int64_t cy = cell_of(pts[i], 1);
      const std::int64_t cz = cell_of(pts[i], 2);
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          for (std::int64_t dz = -1; dz <= 1; ++dz) {
            const std::int64_t ox = cx + dx, oy = cy + dy, oz = cz + dz;
            if (ox < 0 || oy < 0 || oz < 0 || ox >= nx || oy >= ny ||
                oz >= nz)
              continue;
            const auto c = static_cast<std::size_t>(key(ox, oy, oz));
            for (std::uint32_t s = count[c]; s < count[c + 1]; ++s) {
              const std::uint32_t j = bucket[s];
              if (j <= i) continue;
              const double ddx = pts[i][0] - pts[j][0];
              const double ddy = pts[i][1] - pts[j][1];
              const double ddz = pts[i][2] - pts[j][2];
              const double d2 = ddx * ddx + ddy * ddy + ddz * ddz;
              if (d2 <= r2) cands.push_back(Candidate{d2, i, j});
            }
          }
        }
      }
    }
    if (cands.size() >= target) break;
    radius *= 1.35;
  }
  ER_CHECK_MSG(cands.size() >= target,
               "could not find enough candidate pairs");

  std::sort(cands.begin(), cands.end(),
            [](const Candidate& x, const Candidate& y) {
              return std::tie(x.dist2, x.a, x.b) <
                     std::tie(y.dist2, y.a, y.b);
            });
  std::vector<Edge> edges;
  edges.reserve(target);
  for (std::uint64_t e = 0; e < target; ++e)
    edges.push_back(Edge{std::min(cands[e].a, cands[e].b),
                         std::max(cands[e].a, cands[e].b)});
  // Order edges by endpoint, the way mesh generators and neighbour-list
  // builders emit them: iteration order then correlates with node
  // numbering, which is what makes a *block* distribution of iterations
  // spatially coherent (and the paper's block-vs-cyclic contrast real).
  std::sort(edges.begin(), edges.end(), [](Edge x, Edge y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return edges;
}

}  // namespace

Mesh make_geometric_mesh(const GeomMeshParams& p) {
  ER_EXPECTS(p.num_nodes >= 2);
  Xoshiro256 rng(p.seed);
  // 3D points: the paper's euler dataset has the edge density of a
  // tetrahedral (3D) mesh, and 3D numbering locality (bandwidth ~ n^(2/3))
  // is what a real unstructured CFD mesh exhibits.
  std::vector<std::array<double, 3>> pts(p.num_nodes);
  for (auto& pt : pts) pt = {rng.uniform(), rng.uniform(), rng.uniform()};

  // Spatially coherent numbering: sort points into slab-major cells, the
  // way mesh generators emit nodes.
  const auto grid = static_cast<std::uint32_t>(std::max(
      1.0, std::floor(std::cbrt(static_cast<double>(p.num_nodes) / 8.0))));
  std::sort(pts.begin(), pts.end(),
            [&](const std::array<double, 3>& a, const std::array<double, 3>& b) {
              const auto za = static_cast<std::uint32_t>(a[2] * grid);
              const auto zb = static_cast<std::uint32_t>(b[2] * grid);
              if (za != zb) return za < zb;
              const auto ya = static_cast<std::uint32_t>(a[1] * grid);
              const auto yb = static_cast<std::uint32_t>(b[1] * grid);
              if (ya != yb) return ya < yb;
              return a[0] < b[0];
            });

  Mesh m;
  m.num_nodes = p.num_nodes;
  m.coords = std::move(pts);
  m.edges = k_shortest_pairs(m.coords, p.num_edges);
  m.validate();
  return m;
}

Mesh euler_mesh_small() {
  return make_geometric_mesh(GeomMeshParams{2800, 17377, 20020415});
}

Mesh euler_mesh_large() {
  return make_geometric_mesh(GeomMeshParams{9428, 59863, 20020416});
}

Mesh make_moldyn_lattice(const MoldynParams& p) {
  ER_EXPECTS(p.cells_per_side >= 2);
  Xoshiro256 rng(p.seed);
  // FCC basis within a unit cell.
  static constexpr std::array<std::array<double, 3>, 4> kBasis{{
      {0.0, 0.0, 0.0},
      {0.5, 0.5, 0.0},
      {0.5, 0.0, 0.5},
      {0.0, 0.5, 0.5},
  }};
  Mesh m;
  const std::uint32_t c = p.cells_per_side;
  m.num_nodes = 4u * c * c * c;
  m.coords.reserve(m.num_nodes);
  for (std::uint32_t x = 0; x < c; ++x)
    for (std::uint32_t y = 0; y < c; ++y)
      for (std::uint32_t z = 0; z < c; ++z)
        for (const auto& b : kBasis)
          m.coords.push_back({static_cast<double>(x) + b[0] +
                                  rng.uniform(-p.jitter, p.jitter),
                              static_cast<double>(y) + b[1] +
                                  rng.uniform(-p.jitter, p.jitter),
                              static_cast<double>(z) + b[2] +
                                  rng.uniform(-p.jitter, p.jitter)});
  m.edges = k_shortest_pairs(m.coords, p.num_interactions);
  m.validate();
  return m;
}

Mesh moldyn_small() {
  return make_moldyn_lattice(MoldynParams{9, 26244, 0.05, 19941122});
}

Mesh moldyn_large() {
  return make_moldyn_lattice(MoldynParams{14, 65856, 0.05, 19941123});
}

void jitter_coords(Mesh& m, double sigma, Xoshiro256& rng) {
  ER_EXPECTS(!m.coords.empty());
  for (auto& p : m.coords) {
    // Box-Muller pairs; the third component reuses a fresh pair's first.
    for (int d = 0; d < 3; ++d) {
      const double u1 = std::max(rng.uniform(), 1e-300);
      const double u2 = rng.uniform();
      p[d] += sigma * std::sqrt(-2.0 * std::log(u1)) *
              std::cos(2.0 * 3.14159265358979 * u2);
    }
  }
}

void rebuild_interactions(Mesh& m, std::uint64_t num_edges) {
  ER_EXPECTS(!m.coords.empty());
  std::vector<Edge> fresh = k_shortest_pairs(m.coords, num_edges);
  if (m.edges.size() != num_edges) {
    m.edges = std::move(fresh);
    m.validate();
    return;
  }
  // Incremental neighbour-list maintenance: pairs that survive the rebuild
  // keep their old slot; dropped pairs' slots are refilled with the new
  // pairs. This keeps the iteration->pair mapping stable so downstream
  // incremental preprocessing (update_light_inspector) touches only the
  // interactions that actually changed.
  std::set<std::pair<std::uint32_t, std::uint32_t>> fresh_set;
  for (const Edge& e : fresh) fresh_set.emplace(e.a, e.b);
  std::vector<std::size_t> vacated;
  for (std::size_t i = 0; i < m.edges.size(); ++i) {
    const auto key = std::make_pair(m.edges[i].a, m.edges[i].b);
    if (!fresh_set.erase(key)) vacated.push_back(i);
  }
  ER_ENSURES(vacated.size() == fresh_set.size());
  auto it = fresh_set.begin();
  for (const std::size_t slot : vacated) {
    m.edges[slot] = Edge{it->first, it->second};
    ++it;
  }
  m.validate();
}

std::vector<std::uint32_t> rewire_edges(Mesh& m, std::uint64_t count,
                                        std::uint64_t seed) {
  ER_EXPECTS_MSG(count <= m.edges.size(),
                 "cannot rewire more edges than the mesh has");
  ER_EXPECTS_MSG(m.num_nodes >= 2, "rewiring needs at least two nodes");
  Xoshiro256 rng(seed);

  // Sample `count` distinct slots (Floyd's algorithm: uniform without
  // needing a full permutation of the edge list).
  std::set<std::uint32_t> slots;
  const std::uint64_t n = m.edges.size();
  for (std::uint64_t j = n - count; j < n; ++j) {
    const std::uint32_t t = static_cast<std::uint32_t>(rng.below(j + 1));
    if (!slots.insert(t).second)
      slots.insert(static_cast<std::uint32_t>(j));
  }

  for (const std::uint32_t slot : slots) {
    const Edge old = m.edges[slot];
    Edge fresh;
    do {
      fresh.a = static_cast<std::uint32_t>(rng.below(m.num_nodes));
      fresh.b = static_cast<std::uint32_t>(rng.below(m.num_nodes));
      if (fresh.a > fresh.b) std::swap(fresh.a, fresh.b);
    } while (fresh.a == fresh.b || fresh == old);
    m.edges[slot] = fresh;
  }
  m.validate();
  return std::vector<std::uint32_t>(slots.begin(), slots.end());
}

Mesh shuffle_nodes(const Mesh& m, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(m.num_nodes);
  std::iota(perm.begin(), perm.end(), 0u);
  Xoshiro256 rng(seed);
  for (std::uint32_t i = m.num_nodes; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  return renumber(m, perm);
}

}  // namespace earthred::mesh
