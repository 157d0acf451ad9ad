// Linear BVH over points (ArborX analog).
//
// The in situ analysis pipeline (Section IV-B3) leans on ArborX for
// GPU-native spatial indexing: bounding-volume hierarchies built over
// Morton-sorted primitives with batched range queries. This is the same
// construction — points are sorted by the Morton code of their quantized
// position and a balanced binary hierarchy of fitted AABBs is built over
// the sorted order. Fixed-radius neighbor queries drive FOF and DBSCAN.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace crkhacc::tree {

class Bvh {
 public:
  /// Build over points (x[i], y[i], z[i]). Spans must stay alive for the
  /// lifetime of queries (the BVH stores copies of coordinates it needs).
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
                                      float z);

  std::uint32_t build_range(std::uint32_t begin, std::uint32_t end);

  std::size_t count_;
  std::uint32_t leaf_size_;
  // Sorted-by-Morton copies of the coordinates plus original indices.
  std::vector<float> px_, py_, pz_;
  std::vector<std::uint32_t> index_;
  std::vector<Node> nodes_;
};

}  // namespace crkhacc::tree
