#include "analysis/fof.h"

#include <algorithm>
#include <cmath>

#include "analysis/union_find.h"
#include "tree/lbvh.h"
#include "util/assertions.h"

namespace crkhacc::analysis {

FofResult fof(std::span<const float> x, std::span<const float> y,
              std::span<const float> z, float linking_length,
              std::size_t min_members) {
  const std::size_t n = x.size();
  CHECK(y.size() == n && z.size() == n);
  FofResult result;
  result.group_of.assign(n, FofResult::kUngrouped);
  if (n == 0) return result;

  // The join reports each pair within the linking length once: the pairs
  // a radius query from every particle finds. Components, and so the
  // groups below, do not depend on the order of the unions.
  const tree::Bvh bvh(x, y, z);
  UnionFind dsu(n);
  bvh.for_each_pair_within(linking_length,
                           [&dsu](std::uint32_t i, std::uint32_t j) {
                             dsu.unite(i, j);
                           });

  // Component roots -> dense group ids for components above threshold.
  std::vector<std::uint32_t> root(n);
  for (std::size_t i = 0; i < n; ++i) {
    root[i] = dsu.find(static_cast<std::uint32_t>(i));
  }
  std::vector<std::int32_t> group_of_root(n, FofResult::kUngrouped);
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = root[i];
    if (dsu.component_size(r) < min_members) continue;
    if (group_of_root[r] == FofResult::kUngrouped) {
      group_of_root[r] = static_cast<std::int32_t>(groups.size());
      groups.emplace_back();
    }
    const auto g = group_of_root[r];
    groups[static_cast<std::size_t>(g)].push_back(static_cast<std::uint32_t>(i));
    result.group_of[i] = g;
  }

  // Largest-first ordering (stable ids re-mapped afterwards).
  std::vector<std::size_t> order(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&groups](std::size_t a, std::size_t b) {
    return groups[a].size() > groups[b].size();
  });
  std::vector<std::int32_t> remap(groups.size());
  std::vector<std::vector<std::uint32_t>> sorted_groups(groups.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    remap[order[rank]] = static_cast<std::int32_t>(rank);
    sorted_groups[rank] = std::move(groups[order[rank]]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (result.group_of[i] != FofResult::kUngrouped) {
      result.group_of[i] = remap[static_cast<std::size_t>(result.group_of[i])];
    }
  }
  result.groups = std::move(sorted_groups);
  return result;
}

double fof_linking_length(double box, std::size_t n_global, double b_frac) {
  CHECK(n_global > 0);
  return b_frac * box / std::cbrt(static_cast<double>(n_global));
}

}  // namespace crkhacc::analysis
