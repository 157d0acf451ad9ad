#include "tree/chaining_mesh.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/assertions.h"
#include "util/trace.h"

namespace crkhacc::tree {
namespace {

// Image codes number the 27 shifts k in {-1, 0, 1}^3 so that code 0 is
// the zero shift (real leaves keep their own ids): code = (raw + 14) mod
// 27 with raw = (kx + 1) + 3 (ky + 1) + 9 (kz + 1), and raw(0) = 13.
constexpr int kMaxPeriods = 1;
constexpr int kSpan = 2 * kMaxPeriods + 1;
constexpr int kZeroRaw = (kSpan * kSpan * kSpan) / 2;
static_assert(kSpan * kSpan * kSpan == ChainingMesh::kImages);

std::uint32_t code_of_periods(const std::array<int, 3>& k) {
  HACC_ASSERT(std::abs(k[0]) <= kMaxPeriods && std::abs(k[1]) <= kMaxPeriods &&
              std::abs(k[2]) <= kMaxPeriods);
  const int raw = (k[0] + kMaxPeriods) + kSpan * (k[1] + kMaxPeriods) +
                  kSpan * kSpan * (k[2] + kMaxPeriods);
  return static_cast<std::uint32_t>((raw + ChainingMesh::kImages - kZeroRaw) %
                                    ChainingMesh::kImages);
}

std::array<int, 3> periods_of_code(std::uint32_t code) {
  const int raw = static_cast<int>((code + kZeroRaw) % ChainingMesh::kImages);
  return {raw % kSpan - kMaxPeriods, (raw / kSpan) % kSpan - kMaxPeriods,
          raw / (kSpan * kSpan) - kMaxPeriods};
}

}  // namespace

ChainingMesh::ChainingMesh(const comm::Box3& domain,
                           const ChainingMeshConfig& config)
    : domain_(domain), config_(config) {
  CHECK(config.bin_width > 0.0);
  CHECK(config.leaf_size >= 4);
  for (int d = 0; d < 3; ++d) {
    const double extent = domain.hi[d] - domain.lo[d];
    CHECK(extent > 0.0);
    dims_[d] = std::max(1, static_cast<int>(extent / config.bin_width));
    width_[d] = extent / dims_[d];
    if (config.periodic) period_[d] = extent;
  }
  for (std::uint32_t code = 0; code < kImages; ++code) {
    const auto k = periods_of_code(code);
    for (int d = 0; d < 3; ++d) {
      image_shift_[code][d] = static_cast<float>(k[d] * period_[d]);
    }
  }
}

std::uint32_t ChainingMesh::image_id(std::uint32_t leaf,
                                     const std::array<int, 3>& k) const {
  HACC_ASSERT(periodic() || (k[0] == 0 && k[1] == 0 && k[2] == 0));
  return code_of_periods(k) * static_cast<std::uint32_t>(leaves_.size()) +
         leaf;
}

std::array<int, 3> ChainingMesh::image_periods(std::uint32_t id) const {
  if (id < leaves_.size()) return {0, 0, 0};
  return periods_of_code(static_cast<std::uint32_t>(id / leaves_.size()));
}

int ChainingMesh::stencil(int c, int d, int out[3]) const {
  int n = 0;
  for (int dd = -1; dd <= 1; ++dd) {
    int v = c + dd;
    if (periodic()) {
      v = (v % dims_[d] + dims_[d]) % dims_[d];
      // Fewer than three cells per period: the stencil wraps onto
      // itself, and each cell must be visited once.
      if (std::find(out, out + n, v) != out + n) continue;
    } else if (v < 0 || v >= dims_[d]) {
      continue;
    }
    out[n++] = v;
  }
  return n;
}

void ChainingMesh::image_range(double me_lo, double me_hi, double lo,
                               double hi, double radius, int d, int& k_lo,
                               int& k_hi) const {
  // [lo + kP, hi + kP] is within radius of [me_lo, me_hi] only if
  // me_lo - hi - radius <= kP <= me_hi - lo + radius. Rounded outwards;
  // callers apply the exact gap test per image.
  // Clamped in floating point before the int cast, so a non-finite box
  // (a corrupted position the SDC audit has yet to catch) gets the full
  // range instead of undefined behaviour.
  const double p = period_[d];
  const double a = std::floor((me_lo - hi - radius) / p);
  const double b = std::ceil((me_hi - lo + radius) / p);
  constexpr double m = kMaxPeriods;
  k_lo = a >= -m ? (a <= m ? static_cast<int>(a) : kMaxPeriods) : -kMaxPeriods;
  k_hi = b <= m ? (b >= -m ? static_cast<int>(b) : -kMaxPeriods) : kMaxPeriods;
}

void ChainingMesh::check_reach(double radius) const {
  CHECK_MSG(radius <= min_bin_width(),
            "periodic chaining mesh: query radius exceeds the smallest bin "
            "width, so the 27-bin stencil cannot reach every neighbor");
}

std::size_t ChainingMesh::bin_of_position(float x, float y, float z) const {
  const double p[3] = {static_cast<double>(x), static_cast<double>(y),
                       static_cast<double>(z)};
  int c[3];
  for (int d = 0; d < 3; ++d) {
    // Particles may drift slightly outside the overloaded box between the
    // build and refresh; clamp them into the edge bins. The clamp happens
    // in floating point BEFORE the int cast: a NaN or wildly out-of-range
    // coordinate (e.g. a flipped exponent bit the SDC audit hasn't caught
    // yet) must land in a valid edge bin, not invoke float->int UB.
    double cell = (p[d] - domain_.lo[d]) / width_[d];
    if (!(cell > 0.0)) cell = 0.0;  // negatives and NaN both land here
    const double top = static_cast<double>(dims_[d] - 1);
    if (cell > top) cell = top;
    c[d] = static_cast<int>(cell);
  }
  return (static_cast<std::size_t>(c[2]) * dims_[1] + c[1]) * dims_[0] + c[0];
}

void ChainingMesh::build(const Particles& particles, util::ThreadPool* pool) {
  std::vector<std::uint32_t> all(particles.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<std::uint32_t>(i);
  }
  build(particles, all, pool);
}

void ChainingMesh::build(const Particles& particles,
                         std::span<const std::uint32_t> subset,
                         util::ThreadPool* pool) {
  HACC_TRACE_SPAN("cm_build");
  const std::size_t n = subset.size();
  const std::size_t nbins = static_cast<std::size_t>(dims_[0]) * dims_[1] * dims_[2];

  // Counting sort of the subset into bins. Bin indices are pure per-slot
  // functions of position, so the fill parallelizes over disjoint slots;
  // the count/scatter passes stay serial to preserve stable bin order.
  std::vector<std::uint32_t> bin_count(nbins, 0);
  std::vector<std::uint32_t> bin_index(n);
  auto index_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const std::uint32_t i = subset[s];
      bin_index[s] = static_cast<std::uint32_t>(
          bin_of_position(particles.x[i], particles.y[i], particles.z[i]));
    }
  };
  if (pool && pool->num_threads() > 1) {
    pool->parallel_for(0, n, 2048,
                       [&](std::size_t lo, std::size_t hi, std::size_t) {
                         index_range(lo, hi);
                       });
  } else {
    index_range(0, n);
  }
  for (std::size_t s = 0; s < n; ++s) ++bin_count[bin_index[s]];
  std::vector<std::uint32_t> bin_begin(nbins + 1, 0);
  for (std::size_t b = 0; b < nbins; ++b) {
    bin_begin[b + 1] = bin_begin[b] + bin_count[b];
  }
  perm_.assign(n, 0);
  {
    std::vector<std::uint32_t> cursor(bin_begin.begin(), bin_begin.end() - 1);
    for (std::size_t s = 0; s < n; ++s) {
      perm_[cursor[bin_index[s]]++] = subset[s];
    }
  }

  // Per-bin k-d subdivision into coarse leaves. Bins own disjoint perm_
  // ranges, so subdivisions run concurrently into per-bin leaf lists and
  // are stitched in bin order — identical output for any thread count.
  std::vector<std::vector<Leaf>> bin_leaves(nbins);
  auto split_bins = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      if (bin_count[b] > 0) {
        split_leaf(particles, bin_begin[b], bin_begin[b + 1], bin_leaves[b]);
      }
    }
  };
  if (pool && pool->num_threads() > 1) {
    pool->parallel_for(0, nbins, 1,
                       [&](std::size_t lo, std::size_t hi, std::size_t) {
                         split_bins(lo, hi);
                       });
  } else {
    split_bins(0, nbins);
  }

  leaves_.clear();
  leaf_bin_.clear();
  bin_leaf_begin_.assign(nbins + 1, 0);
  for (std::size_t b = 0; b < nbins; ++b) {
    bin_leaf_begin_[b] = static_cast<std::uint32_t>(leaves_.size());
    leaves_.insert(leaves_.end(), bin_leaves[b].begin(), bin_leaves[b].end());
    for (std::size_t l = 0; l < bin_leaves[b].size(); ++l) {
      leaf_bin_.push_back(static_cast<std::uint32_t>(b));
    }
  }
  bin_leaf_begin_[nbins] = static_cast<std::uint32_t>(leaves_.size());
  CHECK_MSG(!periodic() || leaves_.size() <= 0xFFFFFFFFull / kImages,
            "periodic chaining mesh: too many leaves for 32-bit image ids");
  refit_bounds(particles, pool);
}

void ChainingMesh::split_leaf(const Particles& particles, std::uint32_t begin,
                              std::uint32_t end, std::vector<Leaf>& out) {
  if (end - begin <= config_.leaf_size) {
    out.push_back(Leaf{begin, end, {}, {}});
    return;
  }
  // Widest axis of the range's AABB.
  float lo[3], hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = std::numeric_limits<float>::max();
    hi[d] = std::numeric_limits<float>::lowest();
  }
  for (std::uint32_t s = begin; s < end; ++s) {
    const std::uint32_t i = perm_[s];
    const float p[3] = {particles.x[i], particles.y[i], particles.z[i]};
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  int axis = 0;
  for (int d = 1; d < 3; ++d) {
    if (hi[d] - lo[d] > hi[axis] - lo[axis]) axis = d;
  }
  const float* coord = (axis == 0)   ? particles.x.data()
                       : (axis == 1) ? particles.y.data()
                                     : particles.z.data();
  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                   perm_.begin() + end,
                   [coord](std::uint32_t a, std::uint32_t b) {
                     return coord[a] < coord[b];
                   });
  split_leaf(particles, begin, mid, out);
  split_leaf(particles, mid, end, out);
}

void ChainingMesh::fit_leaf(const Particles& particles, Leaf& leaf) const {
  for (int d = 0; d < 3; ++d) {
    leaf.lo[d] = std::numeric_limits<float>::max();
    leaf.hi[d] = std::numeric_limits<float>::lowest();
  }
  for (std::uint32_t s = leaf.begin; s < leaf.end; ++s) {
    const std::uint32_t i = perm_[s];
    const float p[3] = {particles.x[i], particles.y[i], particles.z[i]};
    for (int d = 0; d < 3; ++d) {
      leaf.lo[d] = std::min(leaf.lo[d], p[d]);
      leaf.hi[d] = std::max(leaf.hi[d], p[d]);
    }
  }
}

void ChainingMesh::refit_bounds(const Particles& particles,
                                util::ThreadPool* pool) {
  HACC_TRACE_SPAN("cm_refit");
  if (pool && pool->num_threads() > 1) {
    pool->parallel_for(0, leaves_.size(), 16,
                       [&](std::size_t lo, std::size_t hi, std::size_t) {
                         for (std::size_t l = lo; l < hi; ++l) {
                           fit_leaf(particles, leaves_[l]);
                         }
                       });
  } else {
    for (auto& leaf : leaves_) fit_leaf(particles, leaf);
  }
}

void ChainingMesh::order_members_by_bin(const Particles& particles,
                                       util::ThreadPool* pool) {
  HACC_TRACE_SPAN("cm_bin_order");
  const auto order_leaf = [&](const Leaf& leaf) {
    std::stable_sort(perm_.begin() + leaf.begin, perm_.begin() + leaf.end,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return particles.bin[a] > particles.bin[b];
                     });
  };
  if (pool && pool->num_threads() > 1) {
    pool->parallel_for(0, leaves_.size(), 16,
                       [&](std::size_t lo, std::size_t hi, std::size_t) {
                         for (std::size_t l = lo; l < hi; ++l) {
                           order_leaf(leaves_[l]);
                         }
                       });
  } else {
    for (const Leaf& leaf : leaves_) order_leaf(leaf);
  }
}

double ChainingMesh::aabb_distance_sq(const Leaf& a, const Leaf& b) {
  double d2 = 0.0;
  for (int d = 0; d < 3; ++d) {
    const double gap = std::max(
        {0.0, static_cast<double>(a.lo[d]) - b.hi[d],
         static_cast<double>(b.lo[d]) - a.hi[d]});
    d2 += gap * gap;
  }
  return d2;
}

std::vector<std::uint32_t> ChainingMesh::neighbor_leaves(std::size_t l,
                                                         double radius) const {
  if (periodic()) check_reach(radius);
  const Leaf& me = leaves_[l];
  const std::uint32_t bin = leaf_bin_[l];
  const int bc[3] = {
      static_cast<int>(bin % static_cast<std::uint32_t>(dims_[0])),
      static_cast<int>((bin / dims_[0]) % static_cast<std::uint32_t>(dims_[1])),
      static_cast<int>(bin / (static_cast<std::uint32_t>(dims_[0]) * dims_[1]))};
  int cells[3][3];
  int ncells[3];
  for (int d = 0; d < 3; ++d) ncells[d] = stencil(bc[d], d, cells[d]);
  const double r2 = radius * radius;
  std::vector<std::uint32_t> out;
  for (int iz = 0; iz < ncells[2]; ++iz) {
    for (int iy = 0; iy < ncells[1]; ++iy) {
      for (int ix = 0; ix < ncells[0]; ++ix) {
        const std::size_t nb =
            (static_cast<std::size_t>(cells[2][iz]) * dims_[1] + cells[1][iy]) *
                dims_[0] +
            cells[0][ix];
        for (std::uint32_t m = bin_leaf_begin_[nb]; m < bin_leaf_begin_[nb + 1];
             ++m) {
          const Leaf& other = leaves_[m];
          // Images from the refit AABBs: the shifts under which the
          // partner's box comes within reach, whatever bins its members
          // started in. Only the zero shift on an overloaded mesh.
          int k_lo[3] = {0, 0, 0}, k_hi[3] = {0, 0, 0};
          if (periodic()) {
            for (int d = 0; d < 3; ++d) {
              image_range(me.lo[d], me.hi[d], other.lo[d], other.hi[d], radius,
                          d, k_lo[d], k_hi[d]);
            }
          }
          for (int kz = k_lo[2]; kz <= k_hi[2]; ++kz) {
            for (int ky = k_lo[1]; ky <= k_hi[1]; ++ky) {
              for (int kx = k_lo[0]; kx <= k_hi[0]; ++kx) {
                const int k[3] = {kx, ky, kz};
                double d2 = 0.0;
                for (int d = 0; d < 3; ++d) {
                  const double s = k[d] * period_[d];
                  const double gap = std::max(
                      {0.0, static_cast<double>(me.lo[d]) - (other.hi[d] + s),
                       (other.lo[d] + s) - static_cast<double>(me.hi[d])});
                  d2 += gap * gap;
                }
                if (d2 <= r2) out.push_back(image_id(m, {kx, ky, kz}));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
ChainingMesh::interaction_pairs(double radius) const {
  if (periodic()) check_reach(radius);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    for (std::uint32_t id : neighbor_leaves(l, radius)) {
      const std::uint32_t m = base_leaf(id);
      // Each unordered pair once: the lower base leaf owns it, and of a
      // self-image pair {k, -k} only the lexicographically positive k
      // (its mirror carries the other direction).
      bool keep = m > l || id == l;
      if (m == l && id != l) {
        const auto k = image_periods(id);
        keep = k[2] > 0 || (k[2] == 0 && (k[1] > 0 || (k[1] == 0 && k[0] > 0)));
      }
      if (keep) pairs.emplace_back(static_cast<std::uint32_t>(l), id);
    }
  }
  return pairs;
}

std::uint64_t ChainingMesh::bin_particle_count(std::size_t b) const {
  std::uint64_t count = 0;
  for (std::uint32_t l = bin_leaf_begin_[b]; l < bin_leaf_begin_[b + 1]; ++l) {
    count += leaves_[l].size();
  }
  return count;
}

ChainingMesh ChainingMesh::adopt(std::span<const std::uint32_t> leaf_begin) {
  CHECK(!leaf_begin.empty());
  comm::Box3 unit;
  unit.lo = {0.0, 0.0, 0.0};
  unit.hi = {1.0, 1.0, 1.0};
  ChainingMesh mesh(unit, ChainingMeshConfig{});
  const std::size_t num_leaves = leaf_begin.size() - 1;
  const std::uint32_t num_particles = leaf_begin[num_leaves];
  mesh.perm_.resize(num_particles);
  for (std::uint32_t s = 0; s < num_particles; ++s) mesh.perm_[s] = s;
  mesh.leaves_.resize(num_leaves);
  for (std::size_t l = 0; l < num_leaves; ++l) {
    CHECK(leaf_begin[l] <= leaf_begin[l + 1]);
    mesh.leaves_[l].begin = leaf_begin[l];
    mesh.leaves_[l].end = leaf_begin[l + 1];
  }
  mesh.bin_leaf_begin_ = {0, static_cast<std::uint32_t>(num_leaves)};
  mesh.leaf_bin_.assign(num_leaves, 0);
  return mesh;
}

OccupancyStats bin_occupancy(const comm::Box3& domain, double bin_width,
                             const Particles& particles, double slack,
                             double period) {
  CHECK(bin_width > 0.0);
  CHECK(slack >= 0.0);
  int dims[3];
  double width[3];
  for (int d = 0; d < 3; ++d) {
    const double extent = domain.hi[d] - domain.lo[d];
    CHECK(extent > 0.0);
    dims[d] = std::max(1, static_cast<int>(extent / bin_width));
    width[d] = extent / dims[d];
  }
  OccupancyStats stats;
  stats.bins = static_cast<std::uint64_t>(dims[0]) * dims[1] * dims[2];
  std::vector<std::uint64_t> count(stats.bins, 0);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    if (!particles.is_owned(i)) continue;
    const double raw[3] = {static_cast<double>(particles.x[i]),
                           static_cast<double>(particles.y[i]),
                           static_cast<double>(particles.z[i])};
    int c[3];
    bool inside = true;
    for (int d = 0; d < 3; ++d) {
      // Negated comparisons so NaN coordinates count as escaped. A
      // particle that drifted across the periodic box edge since the
      // last exchange wraps to the far side of the global box — still
      // legitimately owned here — so each ±period image is tried before
      // declaring escape.
      const double lo = domain.lo[d] - slack;
      const double hi = domain.hi[d] + slack;
      double v = raw[d];
      if (!(v >= lo && v <= hi) && period > 0.0) {
        if (raw[d] + period >= lo && raw[d] + period <= hi) {
          v = raw[d] + period;
        } else if (raw[d] - period >= lo && raw[d] - period <= hi) {
          v = raw[d] - period;
        }
      }
      if (!(v >= lo && v <= hi)) {
        inside = false;
        break;
      }
      double cell = (v - domain.lo[d]) / width[d];
      if (!(cell > 0.0)) cell = 0.0;
      const double top = static_cast<double>(dims[d] - 1);
      if (cell > top) cell = top;
      c[d] = static_cast<int>(cell);
    }
    if (!inside) {
      ++stats.out_of_domain;
      continue;
    }
    const std::size_t bin =
        (static_cast<std::size_t>(c[2]) * dims[1] + c[1]) * dims[0] + c[0];
    ++count[bin];
    ++stats.counted;
  }
  for (const std::uint64_t n : count) {
    stats.max_bin = std::max(stats.max_bin, n);
  }
  stats.mean_bin =
      static_cast<double>(stats.counted) / static_cast<double>(stats.bins);
  return stats;
}

}  // namespace crkhacc::tree
