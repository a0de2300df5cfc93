#include "mesh/mesh.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace earthred::mesh {

void Mesh::validate() const {
  for (const Edge& e : edges) {
    ER_CHECK_MSG(e.a < num_nodes && e.b < num_nodes,
                 "edge endpoint out of range");
    ER_CHECK_MSG(e.a != e.b, "self-loop edge");
  }
  ER_CHECK_MSG(coords.empty() || coords.size() == num_nodes,
               "coords must be empty or one per node");
}

std::vector<std::uint32_t> node_degrees(const Mesh& m) {
  std::vector<std::uint32_t> deg(m.num_nodes, 0);
  for (const Edge& e : m.edges) {
    ++deg[e.a];
    ++deg[e.b];
  }
  return deg;
}

std::uint64_t mesh_bandwidth(const Mesh& m) {
  std::uint64_t bw = 0;
  for (const Edge& e : m.edges) {
    const std::uint64_t d = e.a > e.b ? e.a - e.b : e.b - e.a;
    bw = std::max(bw, d);
  }
  return bw;
}

Adjacency build_adjacency(const Mesh& m) {
  Adjacency adj;
  adj.offsets.assign(m.num_nodes + 1, 0);
  for (const Edge& e : m.edges) {
    ++adj.offsets[e.a + 1];
    ++adj.offsets[e.b + 1];
  }
  std::partial_sum(adj.offsets.begin(), adj.offsets.end(),
                   adj.offsets.begin());
  adj.neighbors.resize(adj.offsets.back());
  std::vector<std::uint64_t> cursor(adj.offsets.begin(),
                                    adj.offsets.end() - 1);
  for (const Edge& e : m.edges) {
    adj.neighbors[cursor[e.a]++] = e.b;
    adj.neighbors[cursor[e.b]++] = e.a;
  }
  // Sort each neighbor list for deterministic traversal order.
  for (std::uint32_t v = 0; v < m.num_nodes; ++v) {
    std::sort(adj.neighbors.begin() + static_cast<std::ptrdiff_t>(adj.offsets[v]),
              adj.neighbors.begin() + static_cast<std::ptrdiff_t>(adj.offsets[v + 1]));
  }
  return adj;
}

Mesh renumber(const Mesh& m, std::span<const std::uint32_t> perm) {
  ER_EXPECTS(perm.size() == m.num_nodes);
  Mesh out;
  out.num_nodes = m.num_nodes;
  out.edges.reserve(m.edges.size());
  for (const Edge& e : m.edges)
    out.edges.push_back(Edge{perm[e.a], perm[e.b]});
  if (!m.coords.empty()) {
    out.coords.resize(m.num_nodes);
    for (std::uint32_t v = 0; v < m.num_nodes; ++v)
      out.coords[perm[v]] = m.coords[v];
  }
  out.validate();
  return out;
}

}  // namespace earthred::mesh
