// Cartesian domain decomposition of a periodic box over ranks.
//
// CRK-HACC divides the simulation volume into cuboid subdomains, one per
// rank, with overlapping ("overloaded") boundary regions so short-range
// work is node-local. This class owns the geometry: near-cubic rank grid
// factorization, rank <-> coordinate maps, subdomain bounds, periodic
// neighbor enumeration, and point-in-overloaded-region tests.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace crkhacc::comm {

/// Axis-aligned cuboid in box coordinates.
struct Box3 {
  std::array<double, 3> lo{0.0, 0.0, 0.0};
  std::array<double, 3> hi{0.0, 0.0, 0.0};

  bool contains(const std::array<double, 3>& p) const {
    for (int d = 0; d < 3; ++d) {
      if (p[d] < lo[d] || p[d] >= hi[d]) return false;
    }
    return true;
  }
  double volume() const {
    return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
  }
};

class CartDecomposition {
 public:
  /// Decompose a periodic cube of side `box_size` over `num_ranks` ranks,
  /// choosing the most cubic factorization nx*ny*nz = num_ranks.
  CartDecomposition(int num_ranks, double box_size);

  int num_ranks() const { return dims_[0] * dims_[1] * dims_[2]; }

  /// True when the world has one rank: the rank is its own periodic
  /// neighbor in every dimension. Short-range work then wraps the
  /// chaining mesh (tree::ChainingMeshConfig::periodic) instead of
  /// evolving overloaded self-image replicas, the exchange builds no
  /// ghosts, and in situ analysis builds its replica cloud at analysis
  /// time only (core/exchange.h). Every layer reads this one predicate.
  bool self_periodic() const { return num_ranks() == 1; }
  double box_size() const { return box_size_; }
  const std::array<int, 3>& dims() const { return dims_; }

  std::array<int, 3> coords_of(int rank) const;
  int rank_of(const std::array<int, 3>& coords) const;

  /// Owned (non-overloaded) subdomain of `rank`.
  Box3 local_box(int rank) const;

  /// Subdomain of `rank` expanded by `overload` on every face (may extend
  /// outside [0, box) — callers handle periodic wrapping of particles).
  Box3 overloaded_box(int rank, double overload) const;

  /// Rank owning position `p` (positions wrapped periodically).
  int owner_of(const std::array<double, 3>& p) const;

  /// The up-to-26 distinct neighbor ranks (periodic), excluding `rank`
  /// itself. With few ranks per axis, neighbors collapse and duplicates
  /// are removed.
  std::vector<int> neighbors_of(int rank) const;

  /// Wrap a coordinate into [0, box).
  double wrap(double x) const;
  std::array<double, 3> wrap(const std::array<double, 3>& p) const;

  /// Minimum-image displacement a-b in the periodic box.
  double min_image(double dx) const;

  /// "AxBxC grid over N ranks" — shrink/relaunch log and report lines.
  std::string describe() const;

 private:
  std::array<int, 3> dims_;
  double box_size_;
};

/// Most cubic factorization of n into three factors (descending).
std::array<int, 3> near_cubic_factorization(int n);

}  // namespace crkhacc::comm
