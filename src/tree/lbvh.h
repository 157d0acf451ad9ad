// Linear BVH over points (ArborX analog).
//
// The in situ analysis pipeline (Section IV-B3) leans on ArborX for
// GPU-native spatial indexing: bounding-volume hierarchies built over
// Morton-sorted primitives with batched range queries. This is the same
// construction — points are sorted by the Morton code of their quantized
// position and a binary hierarchy of fitted AABBs is built over the
// sorted order, each range split at its count midpoint until it holds at
// most `leaf_size` points (4 to 8 per leaf at the default of 8, once the
// set outgrows one leaf). Fixed-radius neighbor queries drive SO and
// DBSCAN; FOF links through the dual-tree self-join, for_each_pair_within.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assertions.h"

namespace crkhacc::tree {

class Bvh {
 public:
  /// Build over points (x[i], y[i], z[i]). The BVH copies the
  /// coordinates, so the spans need not outlive the constructor.
  Bvh(std::span<const float> x, std::span<const float> y,
      std::span<const float> z, std::uint32_t leaf_size = 8);

  std::size_t size() const { return count_; }

  /// Call visit(point_index) for every point within `radius` of q.
  template <typename Visitor>
  void radius_query(float qx, float qy, float qz, float radius,
                    Visitor&& visit) const {
    if (nodes_.empty()) return;
    const float r2 = radius * radius;
    std::uint32_t stack[64];
    int top = 0;
    stack[top++] = 0;
    while (top > 0) {
      const Node& node = nodes_[stack[--top]];
      if (aabb_point_distance_sq(node, qx, qy, qz) > r2) continue;
      if (node.is_leaf()) {
        for (std::uint32_t s = node.begin; s < node.end; ++s) {
          const float dx = px_[s] - qx;
          const float dy = py_[s] - qy;
          const float dz = pz_[s] - qz;
          if (dx * dx + dy * dy + dz * dz <= r2) {
            visit(index_[s]);
          }
        }
      } else {
        stack[top++] = node.left;
        stack[top++] = node.right;
      }
    }
  }

  /// Count of points within radius of q (convenience for DBSCAN cores).
  std::size_t count_within(float qx, float qy, float qz, float radius) const {
    std::size_t n = 0;
    radius_query(qx, qy, qz, radius, [&n](std::uint32_t) { ++n; });
    return n;
  }

  /// Dual-tree self-join: call visit(i, j) once for every unordered pair
  /// of distinct points within `radius` of each other (which of the two
  /// comes first is unspecified). A pair is within the radius when
  /// dx*dx + dy*dy + dz*dz <= radius*radius in float, the test
  /// radius_query makes, and the value does not depend on which point
  /// comes first: the join reports exactly the pairs that a radius_query
  /// from every point finds.
  ///
  /// The walk starts at (root, root). A node paired with itself splits
  /// into its children's two self pairs and their cross pair. A cross
  /// pair is dropped when its boxes lie farther apart than the radius,
  /// and otherwise splits the node with the larger extent. Two leaves
  /// test their points against each other: s < t inside one leaf, and
  /// each point of one leaf against the other leaf's box first. Neither
  /// prune can drop a pair within the radius, because float box gaps
  /// never exceed the coordinate differences of the points inside.
  ///
  /// Allocates nothing: pending pairs live on a fixed stack. Each split
  /// leaves at most two pairs behind (one for a cross pair), so the stack
  /// holds at most 2 * depth + 1 pairs; the bound is CHECKed.
  template <typename Visitor>
  void for_each_pair_within(float radius, Visitor&& visit) const {
    if (nodes_.empty()) return;
    const float r2 = radius * radius;
    struct NodePair {
      std::uint32_t a, b;
    };
    constexpr int kStack = 128;
    NodePair stack[kStack];
    int top = 0;
    stack[top++] = {0, 0};
    while (top > 0) {
      const NodePair pair = stack[--top];
      const Node& na = nodes_[pair.a];
      if (pair.a == pair.b) {
        if (na.is_leaf()) {
          for (std::uint32_t s = na.begin; s < na.end; ++s) {
            for (std::uint32_t t = s + 1; t < na.end; ++t) {
              if (point_distance_sq(s, t) <= r2) visit(index_[s], index_[t]);
            }
          }
        } else {
          CHECK(top + 3 <= kStack);
          stack[top++] = {na.left, na.right};
          stack[top++] = {na.right, na.right};
          stack[top++] = {na.left, na.left};
        }
        continue;
      }
      const Node& nb = nodes_[pair.b];
      if (aabb_aabb_distance_sq(na, nb) > r2) continue;
      if (na.is_leaf() && nb.is_leaf()) {
        for (std::uint32_t s = na.begin; s < na.end; ++s) {
          if (aabb_point_distance_sq(nb, px_[s], py_[s], pz_[s]) > r2) continue;
          for (std::uint32_t t = nb.begin; t < nb.end; ++t) {
            if (point_distance_sq(s, t) <= r2) visit(index_[s], index_[t]);
          }
        }
        continue;
      }
      CHECK(top + 2 <= kStack);
      if (nb.is_leaf() || (!na.is_leaf() && extent(na) >= extent(nb))) {
        stack[top++] = {na.left, pair.b};
        stack[top++] = {na.right, pair.b};
      } else {
        stack[top++] = {pair.a, nb.left};
        stack[top++] = {pair.a, nb.right};
      }
    }
  }

 private:
  struct Node {
    std::array<float, 3> lo;
    std::array<float, 3> hi;
    std::uint32_t left = 0;   ///< child node index (internal only)
    std::uint32_t right = 0;
    std::uint32_t begin = 0;  ///< sorted point range (leaf only)
    std::uint32_t end = 0;

    bool is_leaf() const { return end > begin; }
  };

  static float aabb_point_distance_sq(const Node& node, float x, float y,
                                      float z) {
    const float p[3] = {x, y, z};
    float d2 = 0.f;
    for (int d = 0; d < 3; ++d) {
      const float gap = std::max({0.f, node.lo[d] - p[d], p[d] - node.hi[d]});
      d2 += gap * gap;
    }
    return d2;
  }

  static float aabb_aabb_distance_sq(const Node& a, const Node& b) {
    float d2 = 0.f;
    for (int d = 0; d < 3; ++d) {
      const float gap = std::max({0.f, a.lo[d] - b.hi[d], b.lo[d] - a.hi[d]});
      d2 += gap * gap;
    }
    return d2;
  }

  /// Longest box side: the join splits the node where it is larger.
  static float extent(const Node& node) {
    return std::max({node.hi[0] - node.lo[0], node.hi[1] - node.lo[1],
                     node.hi[2] - node.lo[2]});
  }

  /// Squared distance of sorted points s and t, summed as radius_query
  /// sums it.
  float point_distance_sq(std::uint32_t s, std::uint32_t t) const {
    const float dx = px_[s] - px_[t];
    const float dy = py_[s] - py_[t];
    const float dz = pz_[s] - pz_[t];
    return dx * dx + dy * dy + dz * dz;
  }

  std::uint32_t build_range(std::uint32_t begin, std::uint32_t end);

  std::size_t count_;
  std::uint32_t leaf_size_;
  // Sorted-by-Morton copies of the coordinates plus original indices.
  std::vector<float> px_, py_, pz_;
  std::vector<std::uint32_t> index_;
  std::vector<Node> nodes_;
};

}  // namespace crkhacc::tree
