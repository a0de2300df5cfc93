// Unstructured mesh / interaction-list types.
//
// The irregular-reduction kernels iterate over *edges* (mesh edges for
// euler, pair interactions for moldyn) and update values at their two end
// *nodes* — exactly the Figure 1 pattern of the paper. The `Mesh` type
// carries the edge list (the indirection arrays IA(*,1) and IA(*,2)),
// optional node coordinates (used by generators and locality analyses),
// and validation of the structural invariants.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace earthred::mesh {

/// One edge / pair interaction between two distinct nodes.
struct Edge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend constexpr bool operator==(Edge, Edge) = default;
};

/// An unstructured mesh: `num_nodes` nodes and an edge list. Coordinates
/// are optional (empty or one entry per node).
struct Mesh {
  std::uint32_t num_nodes = 0;
  std::vector<Edge> edges;
  std::vector<std::array<double, 3>> coords;

  std::uint64_t num_edges() const noexcept { return edges.size(); }

  /// Throws check_error on out-of-range endpoints, self-loops, or a
  /// coordinate array of the wrong length.
  void validate() const;
};

/// Degree (edges incident) of every node.
std::vector<std::uint32_t> node_degrees(const Mesh& m);

/// Graph bandwidth: max |a - b| over edges (0 for an edgeless mesh).
/// Lower bandwidth = more locality-friendly numbering.
std::uint64_t mesh_bandwidth(const Mesh& m);

/// Adjacency in CSR form: offsets (size num_nodes+1) and neighbor lists,
/// each undirected edge appearing in both endpoints' lists.
struct Adjacency {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> neighbors;
};
Adjacency build_adjacency(const Mesh& m);

/// Applies a node permutation (perm[old] = new) to edges and coordinates.
Mesh renumber(const Mesh& m, std::span<const std::uint32_t> perm);

}  // namespace earthred::mesh
