// Friends-of-friends (FOF) halo finding.
//
// The classic percolation group finder (Davis et al. 1985): particles
// closer than the linking length b belong to the same group; halos are
// the connected components with at least `min_members` members. Neighbor
// discovery runs on the ArborX-analog BVH, as the paper's in situ
// pipeline does on-device: one dual-tree self-join links leaf against
// leaf (tree::Bvh::for_each_pair_within) instead of a query per
// particle. Operates on a rank's local (overloaded) particle set;
// cross-rank dedup keys halos on whether their center lies in the rank's
// owned box.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace crkhacc::analysis {

struct FofResult {
  /// Group id per particle: [0, num_groups) for grouped particles,
  /// kUngrouped for members of below-threshold components.
  std::vector<std::int32_t> group_of;
  /// Member indices per surviving group, largest group first.
  std::vector<std::vector<std::uint32_t>> groups;

  static constexpr std::int32_t kUngrouped = -1;
  std::size_t num_groups() const { return groups.size(); }
};

/// Find FOF groups over the point set with linking length `b`.
FofResult fof(std::span<const float> x, std::span<const float> y,
              std::span<const float> z, float linking_length,
              std::size_t min_members);

/// Mean-interparticle-spacing linking length: b_frac * (V / N)^(1/3),
/// the survey convention (b_frac typically 0.168-0.2).
double fof_linking_length(double box, std::size_t n_global, double b_frac);

}  // namespace crkhacc::analysis
