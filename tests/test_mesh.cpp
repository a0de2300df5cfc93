// Tests for the mesh substrate: structure, generators at the paper's
// dataset sizes, renumbering, and adaptive rebuild utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace earthred::mesh {
namespace {

Mesh tiny_path() {
  // 0-1-2-3 path.
  Mesh m;
  m.num_nodes = 4;
  m.edges = {{0, 1}, {1, 2}, {2, 3}};
  return m;
}

TEST(Mesh, ValidateCatchesBadEdges) {
  Mesh m;
  m.num_nodes = 3;
  m.edges = {{0, 3}};
  EXPECT_THROW(m.validate(), check_error);
  m.edges = {{1, 1}};
  EXPECT_THROW(m.validate(), check_error);
  m.edges = {{0, 1}};
  m.coords.resize(2);
  EXPECT_THROW(m.validate(), check_error);
}

TEST(Mesh, DegreesAndBandwidth) {
  const Mesh m = tiny_path();
  const auto deg = node_degrees(m);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(mesh_bandwidth(m), 1u);
  Mesh far;
  far.num_nodes = 10;
  far.edges = {{0, 9}};
  EXPECT_EQ(mesh_bandwidth(far), 9u);
}

TEST(Mesh, AdjacencyListsBothDirections) {
  const Adjacency adj = build_adjacency(tiny_path());
  ASSERT_EQ(adj.offsets.size(), 5u);
  EXPECT_EQ(adj.neighbors.size(), 6u);  // 3 edges * 2
  // Node 1's neighbors are 0 and 2, sorted.
  EXPECT_EQ(adj.neighbors[adj.offsets[1]], 0u);
  EXPECT_EQ(adj.neighbors[adj.offsets[1] + 1], 2u);
}

TEST(Mesh, RenumberPreservesStructure) {
  const Mesh m = tiny_path();
  const std::vector<std::uint32_t> perm{3, 2, 1, 0};
  const Mesh r = renumber(m, perm);
  EXPECT_EQ(r.num_edges(), 3u);
  EXPECT_EQ(r.edges[0].a, 3u);
  EXPECT_EQ(r.edges[0].b, 2u);
}

TEST(Generators, GeometricMeshExactCounts) {
  const Mesh m = make_geometric_mesh({500, 2500, 42});
  m.validate();
  EXPECT_EQ(m.num_nodes, 500u);
  EXPECT_EQ(m.num_edges(), 2500u);
  EXPECT_EQ(m.coords.size(), 500u);
}

TEST(Generators, GeometricMeshDeterministic) {
  const Mesh a = make_geometric_mesh({300, 1500, 7});
  const Mesh b = make_geometric_mesh({300, 1500, 7});
  EXPECT_TRUE(std::equal(a.edges.begin(), a.edges.end(), b.edges.begin()));
}

TEST(Generators, GeometricMeshRejectsOverdenseRequest) {
  EXPECT_THROW(make_geometric_mesh({4, 100, 1}), check_error);
}

TEST(Generators, EulerDatasetsMatchPaperSizes) {
  const Mesh small = euler_mesh_small();
  EXPECT_EQ(small.num_nodes, 2800u);
  EXPECT_EQ(small.num_edges(), 17377u);
  const Mesh large = euler_mesh_large();
  EXPECT_EQ(large.num_nodes, 9428u);
  EXPECT_EQ(large.num_edges(), 59863u);
}

TEST(Generators, EulerMeshNumberingIsSpatiallyCoherent) {
  // Mesh-generator-style numbering: bandwidth far below random (~n).
  const Mesh m = euler_mesh_small();
  EXPECT_LT(mesh_bandwidth(m), m.num_nodes / 4);
}

TEST(Generators, MoldynDatasetsMatchPaperSizes) {
  const Mesh small = moldyn_small();
  EXPECT_EQ(small.num_nodes, 2916u);
  EXPECT_EQ(small.num_edges(), 26244u);
  const Mesh large = moldyn_large();
  EXPECT_EQ(large.num_nodes, 10976u);
  EXPECT_EQ(large.num_edges(), 65856u);
}

TEST(Generators, MoldynInteractionsAreShortRange) {
  // Cutoff-style pairs: every kept interaction should span well under two
  // lattice cells.
  const Mesh m = make_moldyn_lattice({4, 1000, 0.02, 5});
  for (const Edge& e : m.edges) {
    const auto& a = m.coords[e.a];
    const auto& b = m.coords[e.b];
    double d2 = 0;
    for (int d = 0; d < 3; ++d) d2 += (a[d] - b[d]) * (a[d] - b[d]);
    EXPECT_LT(d2, 2.0 * 2.0);
  }
}

TEST(Generators, NoDuplicateEdges) {
  const Mesh m = make_geometric_mesh({200, 900, 3});
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Edge& e : m.edges) {
    const auto key = std::minmax(e.a, e.b);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second);
  }
}

TEST(Adaptive, JitterMovesCoords) {
  Mesh m = make_moldyn_lattice({3, 200, 0.02, 5});
  const auto before = m.coords;
  Xoshiro256 rng(1);
  jitter_coords(m, 0.05, rng);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != m.coords[i]) ++moved;
  EXPECT_EQ(moved, before.size());
}

TEST(Adaptive, RebuildChangesNeighborListAfterBigJitter) {
  Mesh m = make_moldyn_lattice({4, 1500, 0.02, 5});
  const auto before = m.edges;
  Xoshiro256 rng(2);
  jitter_coords(m, 0.3, rng);
  rebuild_interactions(m, 1500);
  EXPECT_EQ(m.num_edges(), 1500u);
  std::uint64_t common = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> old_set;
  for (const Edge& e : before) {
    const auto k = std::minmax(e.a, e.b);
    old_set.emplace(k.first, k.second);
  }
  for (const Edge& e : m.edges) {
    const auto k = std::minmax(e.a, e.b);
    common += old_set.count({k.first, k.second});
  }
  EXPECT_LT(common, before.size());  // some pairs changed
  EXPECT_GT(common, 0u);             // but not a completely new graph
}

TEST(Adaptive, SmallJitterKeepsMostInteractions) {
  Mesh m = make_moldyn_lattice({4, 1500, 0.02, 5});
  const auto before = m.edges;
  Xoshiro256 rng(3);
  jitter_coords(m, 0.02, rng);
  rebuild_interactions(m, 1500);
  std::set<std::pair<std::uint32_t, std::uint32_t>> old_set;
  for (const Edge& e : before) {
    const auto k = std::minmax(e.a, e.b);
    old_set.emplace(k.first, k.second);
  }
  std::uint64_t common = 0;
  for (const Edge& e : m.edges) {
    const auto k = std::minmax(e.a, e.b);
    common += old_set.count({k.first, k.second});
  }
  EXPECT_GT(common, before.size() * 8 / 10);
}

}  // namespace
}  // namespace earthred::mesh
