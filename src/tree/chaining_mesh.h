// Chaining mesh + per-bin k-d trees with coarse, growable leaves.
//
// The GPU tree solver of the paper (Section IV-B1): the rank's overloaded
// domain is divided into fixed chaining-mesh (CM) bins at least one
// short-range cutoff wide, so all forces act within a bin and its 26
// neighbors. Each bin holds a small k-d tree subdividing its particles
// into base leaves of O(100) particles — much coarser than CPU trees.
// Only the leaves are kept; no internal hierarchy is stored. The
// partition is built ONCE per global PM step; as particles drift during
// sub-cycling, leaf bounding boxes are re-fit (they grow), avoiding
// repartitioning at the cost of extra neighbor overlap. refit_bounds() is
// a linear pass and is far cheaper than the force kernels it feeds.
//
// Periodic mode (ChainingMeshConfig::periodic, set in one-rank worlds —
// comm::CartDecomposition::self_periodic): the domain is the periodic
// box itself, with no overload shell, and the bin stencil wraps. A leaf
// seen through a periodic image is named by a virtual leaf id:
// image_id(leaf, k) = code(k) * num_leaves() + leaf for a shift of k
// periods per dimension, k in {-1, 0, 1}^3, with code 0 the zero shift
// — so ids below num_leaves() are the real leaves and pair lists keep
// their (u32, u32) type. resolve() turns an id back into (base leaf,
// position shift). Which images a leaf pair needs is decided from the
// refit AABBs, not from bin indices, so coverage stays exact after
// members drift or wrap across the box edge mid-step (a leaf whose
// member wrapped spans the box and takes more images). Members lie in
// the box (the drift wraps them), so one period per side reaches every
// image within a radius of at most one bin width (<= the box).
//
// Builds accept an optional util::ThreadPool: binning and the per-bin k-d
// subdivisions are independent across bins, so bins are built into
// per-bin leaf lists concurrently and stitched in bin order on the
// calling thread — the resulting permutation/leaf arrays are identical
// for every thread count (bins never share permutation ranges).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/decomposition.h"
#include "core/particles.h"
#include "util/assertions.h"
#include "util/thread_pool.h"

namespace crkhacc::tree {

struct Leaf {
  std::uint32_t begin = 0;  ///< range [begin, end) in the permutation array
  std::uint32_t end = 0;
  std::array<float, 3> lo{0.f, 0.f, 0.f};  ///< fitted AABB
  std::array<float, 3> hi{0.f, 0.f, 0.f};

  std::uint32_t size() const { return end - begin; }
};

struct ChainingMeshConfig {
  double bin_width = 1.0;       ///< minimum CM bin width (>= force cutoff)
  std::uint32_t leaf_size = 64; ///< max particles per base leaf
  /// Wrap the domain periodically (one-rank worlds): pair lists and
  /// radius queries visit periodic images through virtual leaf ids.
  bool periodic = false;
};

/// A (possibly virtual) leaf id resolved into its base leaf and the
/// position shift of the image: partner positions are x + shift.
struct LeafImage {
  std::uint32_t leaf = 0;
  std::array<float, 3> shift{0.f, 0.f, 0.f};
  bool shifted = false;

  /// The shift for a lane fill, or nullptr for the zero shift (a fill
  /// with no shift does no add, so non-image loads keep their bits).
  const float* shift_or_null() const { return shifted ? shift.data() : nullptr; }
};

class ChainingMesh {
 public:
  /// Bins cover `domain` (the rank's overloaded box, or the periodic box
  /// itself in periodic mode). Actual bin widths are >= config.bin_width
  /// (the domain is divided evenly) unless the domain is narrower.
  ChainingMesh(const comm::Box3& domain, const ChainingMeshConfig& config);

  /// Full build: bin particles, build per-bin k-d leaves, fit AABBs.
  /// Called once per PM step. With a pool, per-bin work runs on the
  /// worker threads (result independent of the thread count).
  void build(const Particles& particles, util::ThreadPool* pool = nullptr);

  /// Build over a subset of particle indices (e.g. gas only, matching
  /// the species-separated trees of the hydro solver). The permutation
  /// array then holds indices drawn from `subset`.
  void build(const Particles& particles, std::span<const std::uint32_t> subset,
             util::ThreadPool* pool = nullptr);

  /// Re-fit all leaf AABBs to current particle positions (called per
  /// sub-cycle; leaves keep their membership).
  void refit_bounds(const Particles& particles,
                    util::ThreadPool* pool = nullptr);

  /// Stably reorder each leaf's members by descending timestep bin
  /// (particles.bin), keeping build order among equal bins. A bin active
  /// at a substep implies every deeper bin is active
  /// (integrator::bin_active), so each substep's active members form a
  /// prefix of every leaf, and the launch's owner-lane culling
  /// (gpu/warp.h) skips whole chunks. Member sets, AABBs and leaf ranges
  /// are unchanged. Called after each timestep-bin assignment and after
  /// every rebuild within a step.
  void order_members_by_bin(const Particles& particles,
                            util::ThreadPool* pool = nullptr);

  std::size_t num_leaves() const { return leaves_.size(); }
  const Leaf& leaf(std::size_t l) const { return leaves_[l]; }

  /// Permutation array: particle index at sorted slot s.
  const std::vector<std::uint32_t>& permutation() const { return perm_; }

  /// Leaves in the bin of leaf l and its 26 neighbor bins whose AABBs
  /// come within `radius` of leaf l's AABB (includes l itself). On a
  /// periodic mesh: every image id whose shifted AABB comes within
  /// `radius` (l itself, unshifted, included), with radius at most the
  /// smallest bin width (checked).
  std::vector<std::uint32_t> neighbor_leaves(std::size_t l, double radius) const;

  /// All (i <= j) interacting leaf pairs within `radius`, for kernels that
  /// process symmetric pair lists. On a periodic mesh the second member
  /// may be an image id: (A, B + k) with A < B, or A == B and k the
  /// lexicographically positive one of a self-image pair {k, -k}. Every
  /// (particle, particle, image) within `radius` is covered exactly once
  /// by a pair and its mirror (see mirror()). Radius is checked against
  /// the smallest bin width on periodic meshes.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> interaction_pairs(
      double radius) const;

  bool periodic() const { return config_.periodic; }

  /// Box extent along dimension d on a periodic mesh; 0 otherwise.
  double period(int d) const { return period_[d]; }

  /// Image shifts per dimension are -1, 0, +1 periods: 27 images.
  static constexpr std::uint32_t kImages = 27;

  /// Leaf ids a pair list may name: num_leaves() real leaves, times
  /// kImages on a periodic mesh. Ids are valid until the next build.
  std::size_t num_leaf_ids() const {
    return periodic() ? kImages * leaves_.size() : leaves_.size();
  }

  /// Virtual id of leaf `leaf` shifted by `k` periods (each in -1..1);
  /// k = 0 is the leaf itself. Periodic meshes only.
  std::uint32_t image_id(std::uint32_t leaf, const std::array<int, 3>& k) const;

  /// Base leaf of a (possibly virtual) leaf id.
  std::uint32_t base_leaf(std::uint32_t id) const {
    return id < leaves_.size()
               ? id
               : static_cast<std::uint32_t>(id % leaves_.size());
  }

  /// Periods of shift of a leaf id (zero for real leaves).
  std::array<int, 3> image_periods(std::uint32_t id) const;

  /// Base leaf and position shift of a leaf id.
  LeafImage resolve(std::uint32_t id) const {
    if (id < leaves_.size()) return LeafImage{id, {0.f, 0.f, 0.f}, false};
    const std::size_t code = id / leaves_.size();
    return LeafImage{static_cast<std::uint32_t>(id % leaves_.size()),
                     image_shift_[code], true};
  }

  /// The j-side partner of pair (a, id): leaf `a` as seen from
  /// base_leaf(id), i.e. shifted by minus id's periods. (a, B + k) and
  /// (B, a - k) describe the same particle pairs.
  std::uint32_t mirror(std::uint32_t a, std::uint32_t id) const {
    if (id < leaves_.size()) return a;
    const auto k = image_periods(id);
    return image_id(a, {-k[0], -k[1], -k[2]});
  }

  const std::array<int, 3>& dims() const { return dims_; }
  std::size_t num_bins() const { return bin_leaf_begin_.size() - 1; }

  /// CM bin that leaf l was built into (constant between builds).
  std::uint32_t leaf_bin(std::size_t l) const { return leaf_bin_[l]; }

  /// Particles assigned to bin b at build time (bins own contiguous
  /// leaf and permutation ranges). Feeds the load-balancer's
  /// pair-count census (core/load_balancer.h).
  std::uint64_t bin_particle_count(std::size_t b) const;

  /// Adoption mesh for migrated work packets (comm/work_packets.h): a
  /// degenerate single-bin mesh whose leaves are consecutive particle
  /// ranges of the packet's flat arrays (leaf l = [leaf_begin[l],
  /// leaf_begin[l+1])) with an identity permutation. Only the leaf
  /// ranges and the permutation are meaningful — the launch drivers
  /// (gpu/warp.h) read nothing else — so neighbor queries and AABBs of
  /// an adopted mesh must not be used.
  static ChainingMesh adopt(std::span<const std::uint32_t> leaf_begin);

  /// Smallest bin width (radius limit for neighbor queries).
  double min_bin_width() const {
    return *std::min_element(width_.begin(), width_.end());
  }

  /// Total particles assigned at build time.
  std::size_t num_particles() const { return perm_.size(); }

  /// AABB-to-AABB minimum squared distance (public for tests).
  static double aabb_distance_sq(const Leaf& a, const Leaf& b);

  /// Visit every indexed particle within `radius` of (x, y, z):
  /// visit(particle_index, distance_sq). Point queries are served from the
  /// bin of the position and its 26 neighbors, so radius must not exceed
  /// the bin width (CHECKed on periodic meshes, debug-asserted otherwise).
  /// On a periodic mesh (x, y, z) lies in the box, as drifted positions
  /// do, and the distance is to each periodic image, so a particle within
  /// `radius` at two images is visited twice. Used by feedback injection
  /// and tests.
  template <typename Visitor>
  void for_each_in_radius(const Particles& particles, float x, float y,
                          float z, float radius, Visitor&& visit) const {
    if (periodic()) {
      check_reach(radius);
    } else {
      HACC_ASSERT(radius <= min_bin_width());
    }
    const float r2 = radius * radius;
    const float q[3] = {x, y, z};
    const std::size_t bin = bin_of_position(x, y, z);
    const int bc[3] = {
        static_cast<int>(bin % static_cast<std::size_t>(dims_[0])),
        static_cast<int>((bin / dims_[0]) % static_cast<std::size_t>(dims_[1])),
        static_cast<int>(bin / (static_cast<std::size_t>(dims_[0]) * dims_[1]))};
    int cells[3][3];
    int ncells[3];
    for (int d = 0; d < 3; ++d) ncells[d] = stencil(bc[d], d, cells[d]);
    for (int iz = 0; iz < ncells[2]; ++iz) {
      for (int iy = 0; iy < ncells[1]; ++iy) {
        for (int ix = 0; ix < ncells[0]; ++ix) {
          const std::size_t nb =
              (static_cast<std::size_t>(cells[2][iz]) * dims_[1] +
               cells[1][iy]) * dims_[0] + cells[0][ix];
          for (std::uint32_t l = bin_leaf_begin_[nb]; l < bin_leaf_begin_[nb + 1];
               ++l) {
            const Leaf& leaf = leaves_[l];
            int k_lo[3] = {0, 0, 0}, k_hi[3] = {0, 0, 0};
            if (periodic()) {
              for (int d = 0; d < 3; ++d) {
                image_range(q[d], q[d], leaf.lo[d], leaf.hi[d], radius, d,
                            k_lo[d], k_hi[d]);
              }
            }
            for (int kz = k_lo[2]; kz <= k_hi[2]; ++kz) {
              for (int ky = k_lo[1]; ky <= k_hi[1]; ++ky) {
                for (int kx = k_lo[0]; kx <= k_hi[0]; ++kx) {
                  const float s[3] = {static_cast<float>(kx * period_[0]),
                                      static_cast<float>(ky * period_[1]),
                                      static_cast<float>(kz * period_[2])};
                  // Quick AABB-point rejection.
                  float gap2 = 0.f;
                  for (int d = 0; d < 3; ++d) {
                    const float g = std::max(
                        {0.f, leaf.lo[d] + s[d] - q[d], q[d] - leaf.hi[d] - s[d]});
                    gap2 += g * g;
                  }
                  if (gap2 > r2) continue;
                  const bool shifted = kx != 0 || ky != 0 || kz != 0;
                  for (std::uint32_t t = leaf.begin; t < leaf.end; ++t) {
                    const std::uint32_t i = perm_[t];
                    float px = particles.x[i], py = particles.y[i],
                          pz = particles.z[i];
                    if (shifted) {
                      px += s[0];
                      py += s[1];
                      pz += s[2];
                    }
                    const float ddx = px - x;
                    const float ddy = py - y;
                    const float ddz = pz - z;
                    const float d2 = ddx * ddx + ddy * ddy + ddz * ddz;
                    if (d2 <= r2) visit(i, d2);
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  /// Test hook: expose the hardened position->bin mapping.
  std::size_t bin_of_position_for_test(float x, float y, float z) const {
    return bin_of_position(x, y, z);
  }

 private:
  std::size_t bin_of_position(float x, float y, float z) const;
  /// Distinct stencil cells of cell c along dimension d (c-1, c, c+1,
  /// wrapped and de-duplicated on periodic meshes, clipped otherwise);
  /// returns the count written to out.
  int stencil(int c, int d, int out[3]) const;
  /// Periods k (clamped to -1..1) for which [lo + k P, hi + k P] may come
  /// within `radius` of [me_lo, me_hi] along dimension d.
  void image_range(double me_lo, double me_hi, double lo, double hi,
                   double radius, int d, int& k_lo, int& k_hi) const;
  /// CHECK that a query radius is within the one-bin stencil's reach.
  void check_reach(double radius) const;
  void split_leaf(const Particles& particles, std::uint32_t begin,
                  std::uint32_t end, std::vector<Leaf>& out);
  void fit_leaf(const Particles& particles, Leaf& leaf) const;

  comm::Box3 domain_;
  ChainingMeshConfig config_;
  std::array<int, 3> dims_{1, 1, 1};
  std::array<double, 3> width_{1.0, 1.0, 1.0};
  std::array<double, 3> period_{0.0, 0.0, 0.0};  ///< domain extent (periodic)
  /// Position shift of each image code (code 0 = no shift).
  std::array<std::array<float, 3>, kImages> image_shift_{};

  std::vector<std::uint32_t> perm_;
  std::vector<Leaf> leaves_;
  /// leaves of bin b are [bin_leaf_begin_[b], bin_leaf_begin_[b+1]).
  std::vector<std::uint32_t> bin_leaf_begin_;
  /// bin index of each leaf.
  std::vector<std::uint32_t> leaf_bin_;
};

/// Occupancy census over the chaining-mesh grid of `domain` — an SDC
/// sanity check (core/sdc.h): a flipped position bit either leaves the
/// domain entirely (out_of_domain) or, en masse, piles particles into
/// one bin (max_bin >> mean_bin). Owned particles only; a particle
/// whose position is non-finite or farther than `slack` outside the
/// domain counts as out_of_domain.
struct OccupancyStats {
  std::uint64_t counted = 0;        ///< owned particles inside the domain
  std::uint64_t out_of_domain = 0;  ///< owned, non-finite or escaped
  std::uint64_t max_bin = 0;        ///< fullest bin
  double mean_bin = 0.0;            ///< counted / bins
  std::uint64_t bins = 0;
};

/// Census of owned particles over a uniform grid covering `domain`.
/// `period` > 0 is the global box size: a coordinate outside the slack
/// band is re-tried at ±period (a particle that drifted across the
/// periodic edge since the last exchange is still legitimately owned)
/// before being counted as out_of_domain.
OccupancyStats bin_occupancy(const comm::Box3& domain, double bin_width,
                             const Particles& particles, double slack,
                             double period = 0.0);

}  // namespace crkhacc::tree
