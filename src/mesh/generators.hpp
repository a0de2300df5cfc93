// Dataset generators reproducing the paper's euler and moldyn inputs.
//
// The paper's exact meshes are not distributed; these generators build
// synthetic equivalents with the same node/edge counts (see DESIGN.md §2):
//
//   euler : random points in the unit square connected to near neighbours
//           (an unstructured-CFD-like graph). 2,800 nodes / 17,377 edges
//           and 9,428 nodes / 59,863 edges.
//   moldyn: FCC lattice of molecules with cutoff-radius pair interactions
//           (the construction of the original moldyn benchmark).
//           2,916 molecules / 26,244 interactions and
//           10,976 molecules / 65,856 interactions.
//
// Both generators connect the exact requested number of edges by keeping
// the `num_edges` geometrically shortest candidate pairs, so every run of
// a bench sees the paper's exact problem sizes. Node numbering is
// spatially coherent (cells in row-major order / lattice order) — this is
// what makes a *block* distribution of iterations concentrate each
// processor's updates in few portions and produce the phase load imbalance
// the paper observes (Sec. 5.4.2).
#pragma once

#include <cstdint>

#include "mesh/mesh.hpp"
#include "support/prng.hpp"

namespace earthred::mesh {

/// Parameters for the random-geometric euler-style mesh.
struct GeomMeshParams {
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t seed = 20020415;  ///< workload RNG seed
};

/// Builds a random geometric mesh with exactly the requested edge count.
/// Throws check_error if the request is denser than a complete graph.
Mesh make_geometric_mesh(const GeomMeshParams& params);

/// The paper's euler datasets.
Mesh euler_mesh_small();  ///< 2,800 nodes, 17,377 edges ("2K mesh")
Mesh euler_mesh_large();  ///< 9,428 nodes, 59,863 edges ("10K mesh")

/// Parameters for the moldyn FCC lattice.
struct MoldynParams {
  std::uint32_t cells_per_side = 0;   ///< FCC unit cells per dimension
  std::uint64_t num_interactions = 0; ///< pair-interaction count to keep
  double jitter = 0.05;               ///< positional noise (lattice units)
  std::uint64_t seed = 19941122;
};

/// Builds an FCC lattice with 4*cells^3 molecules and the
/// `num_interactions` shortest pair interactions.
Mesh make_moldyn_lattice(const MoldynParams& params);

/// The paper's moldyn datasets.
Mesh moldyn_small();  ///< 2,916 molecules, 26,244 interactions
Mesh moldyn_large();  ///< 10,976 molecules, 65,856 interactions

/// Randomly displaces every coordinate by N(0, sigma) per axis — the
/// "molecules moved" step of an adaptive run.
void jitter_coords(Mesh& m, double sigma, Xoshiro256& rng);

/// Recomputes the interaction list from current coordinates, keeping the
/// `num_edges` shortest pairs (a neighbour-list rebuild). The edge list is
/// replaced; node count and coordinates are untouched.
void rebuild_interactions(Mesh& m, std::uint64_t num_edges);

/// Rewires `count` randomly chosen distinct edge slots to fresh random
/// endpoint pairs (no self-loops, each new pair differs from the slot's
/// old pair). Edge count, node count, and every other slot are untouched —
/// the count-preserving mesh mutation that drives incremental re-planning
/// (PlanCache::patch_or_build). Returns the mutated slot ids, sorted
/// ascending. Requires count <= num_edges and num_nodes >= 2.
std::vector<std::uint32_t> rewire_edges(Mesh& m, std::uint64_t count,
                                        std::uint64_t seed);

/// Renumbers the nodes by a uniform random permutation drawn from `seed`
/// (Fisher-Yates), so node ids carry no locality: every processor's
/// references spread over every portion.
Mesh shuffle_nodes(const Mesh& m, std::uint64_t seed);

}  // namespace earthred::mesh
