#include "comm/decomposition.h"

#include <algorithm>
#include <cmath>

#include "util/assertions.h"

namespace crkhacc::comm {

std::array<int, 3> near_cubic_factorization(int n) {
  CHECK(n >= 1);
  std::array<int, 3> best{n, 1, 1};
  // Surface-to-volume ratio proxy: minimize the sum of the factors, which
  // for a fixed product favors the most cubic split.
  int best_cost = n + 2;
  for (int a = 1; a * a * a <= n; ++a) {
    if (n % a != 0) continue;
    const int rest = n / a;
    for (int b = a; b * b <= rest; ++b) {
      if (rest % b != 0) continue;
      const int c = rest / b;
      const int cost = a + b + c;
      if (cost < best_cost) {
        best_cost = cost;
        best = {c, b, a};  // descending
      }
    }
  }
  return best;
}

CartDecomposition::CartDecomposition(int num_ranks, double box_size)
    : dims_(near_cubic_factorization(num_ranks)), box_size_(box_size) {
  CHECK(box_size > 0.0);
}

std::array<int, 3> CartDecomposition::coords_of(int rank) const {
  CHECK(rank >= 0 && rank < num_ranks());
  std::array<int, 3> c;
  c[2] = rank % dims_[2];
  c[1] = (rank / dims_[2]) % dims_[1];
  c[0] = rank / (dims_[1] * dims_[2]);
  return c;
}

int CartDecomposition::rank_of(const std::array<int, 3>& coords) const {
  std::array<int, 3> c = coords;
  for (int d = 0; d < 3; ++d) {
    c[d] = ((c[d] % dims_[d]) + dims_[d]) % dims_[d];
  }
  return (c[0] * dims_[1] + c[1]) * dims_[2] + c[2];
}

Box3 CartDecomposition::local_box(int rank) const {
  const auto c = coords_of(rank);
  Box3 box;
  for (int d = 0; d < 3; ++d) {
    const double width = box_size_ / dims_[d];
    box.lo[d] = c[d] * width;
    box.hi[d] = (c[d] + 1) * width;
  }
  return box;
}

Box3 CartDecomposition::overloaded_box(int rank, double overload) const {
  Box3 box = local_box(rank);
  for (int d = 0; d < 3; ++d) {
    // The pad may exceed the subdomain (a rank can legitimately hold
    // ghost images of its own particles when an axis is unsplit — a slab
    // grid, or a one-rank world's analysis replica cloud); cap at one
    // full box so the +-1 image offsets used by the exchange always
    // suffice.
    const double pad = std::min(overload, box_size_);
    box.lo[d] -= pad;
    box.hi[d] += pad;
  }
  return box;
}

int CartDecomposition::owner_of(const std::array<double, 3>& p) const {
  std::array<int, 3> c;
  for (int d = 0; d < 3; ++d) {
    const double x = wrap(p[d]);
    const double width = box_size_ / dims_[d];
    c[d] = std::min(static_cast<int>(x / width), dims_[d] - 1);
  }
  return rank_of(c);
}

std::vector<int> CartDecomposition::neighbors_of(int rank) const {
  const auto c = coords_of(rank);
  std::vector<int> out;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const int r = rank_of({c[0] + dx, c[1] + dy, c[2] + dz});
        if (r != rank) out.push_back(r);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double CartDecomposition::wrap(double x) const {
  double t = std::fmod(x, box_size_);
  if (t < 0.0) t += box_size_;
  // fmod can return exactly box_size_ after the correction when x is a
  // tiny negative value; fold it back.
  if (t >= box_size_) t = 0.0;
  return t;
}

std::array<double, 3> CartDecomposition::wrap(const std::array<double, 3>& p) const {
  return {wrap(p[0]), wrap(p[1]), wrap(p[2])};
}

double CartDecomposition::min_image(double dx) const {
  const double half = 0.5 * box_size_;
  while (dx > half) dx -= box_size_;
  while (dx < -half) dx += box_size_;
  return dx;
}

std::string CartDecomposition::describe() const {
  return std::to_string(dims_[0]) + "x" + std::to_string(dims_[1]) + "x" +
         std::to_string(dims_[2]) + " grid over " +
         std::to_string(num_ranks()) + " ranks";
}

}  // namespace crkhacc::comm
