#include "tree/lbvh.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/assertions.h"
#include "util/morton.h"

namespace crkhacc::tree {
namespace {

/// Nodes build_range makes over n points: the same count-midpoint split.
std::uint32_t node_count(std::uint32_t n, std::uint32_t leaf_size) {
  if (n <= leaf_size) return 1;
  return 1 + node_count(n / 2, leaf_size) + node_count(n - n / 2, leaf_size);
}

}  // namespace

Bvh::Bvh(std::span<const float> x, std::span<const float> y,
         std::span<const float> z, std::uint32_t leaf_size)
    : count_(x.size()), leaf_size_(std::max<std::uint32_t>(1, leaf_size)) {
  CHECK(y.size() == count_ && z.size() == count_);
  if (count_ == 0) return;

  // Bounding box of the point set for Morton quantization.
  float lo[3], hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = std::numeric_limits<float>::max();
    hi[d] = std::numeric_limits<float>::lowest();
  }
  for (std::size_t i = 0; i < count_; ++i) {
    lo[0] = std::min(lo[0], x[i]); hi[0] = std::max(hi[0], x[i]);
    lo[1] = std::min(lo[1], y[i]); hi[1] = std::max(hi[1], y[i]);
    lo[2] = std::min(lo[2], z[i]); hi[2] = std::max(hi[2], z[i]);
  }
  const double span[3] = {std::max(1e-30, static_cast<double>(hi[0]) - lo[0]),
                          std::max(1e-30, static_cast<double>(hi[1]) - lo[1]),
                          std::max(1e-30, static_cast<double>(hi[2]) - lo[2])};

  std::vector<std::uint64_t> codes(count_);
  std::vector<std::uint32_t> order(count_);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = 0; i < count_; ++i) {
    const auto qx = quantize21((x[i] - lo[0]) / span[0], 1.0000001);
    const auto qy = quantize21((y[i] - lo[1]) / span[1], 1.0000001);
    const auto qz = quantize21((z[i] - lo[2]) / span[2], 1.0000001);
    codes[i] = morton3d(qx, qy, qz);
  }
  std::sort(order.begin(), order.end(), [&codes](std::uint32_t a, std::uint32_t b) {
    return codes[a] < codes[b];
  });

  px_.resize(count_); py_.resize(count_); pz_.resize(count_);
  index_.resize(count_);
  for (std::size_t s = 0; s < count_; ++s) {
    const std::uint32_t i = order[s];
    px_[s] = x[i]; py_[s] = y[i]; pz_[s] = z[i];
    index_[s] = i;
  }
  const std::uint32_t nodes =
      node_count(static_cast<std::uint32_t>(count_), leaf_size_);
  nodes_.reserve(nodes);
  nodes_.emplace_back();  // root placeholder at index 0
  const std::uint32_t root = build_range(0, static_cast<std::uint32_t>(count_));
  CHECK(root == 0);
  CHECK(nodes_.size() == nodes);
}

std::uint32_t Bvh::build_range(std::uint32_t begin, std::uint32_t end) {
  const auto my_index = begin == 0 && end == count_
                            ? 0u
                            : static_cast<std::uint32_t>(nodes_.size());
  if (my_index != 0) nodes_.emplace_back();

  Node node;
  for (int d = 0; d < 3; ++d) {
    node.lo[d] = std::numeric_limits<float>::max();
    node.hi[d] = std::numeric_limits<float>::lowest();
  }
  if (end - begin <= leaf_size_) {
    node.begin = begin;
    node.end = end;
    for (std::uint32_t s = begin; s < end; ++s) {
      node.lo[0] = std::min(node.lo[0], px_[s]); node.hi[0] = std::max(node.hi[0], px_[s]);
      node.lo[1] = std::min(node.lo[1], py_[s]); node.hi[1] = std::max(node.hi[1], py_[s]);
      node.lo[2] = std::min(node.lo[2], pz_[s]); node.hi[2] = std::max(node.hi[2], pz_[s]);
    }
    nodes_[my_index] = node;
    return my_index;
  }
  const std::uint32_t mid = begin + (end - begin) / 2;
  const std::uint32_t left = build_range(begin, mid);
  const std::uint32_t right = build_range(mid, end);
  node.left = left;
  node.right = right;
  for (int d = 0; d < 3; ++d) {
    node.lo[d] = std::min(nodes_[left].lo[d], nodes_[right].lo[d]);
    node.hi[d] = std::max(nodes_[left].hi[d], nodes_[right].hi[d]);
  }
  nodes_[my_index] = node;
  return my_index;
}

}  // namespace crkhacc::tree
