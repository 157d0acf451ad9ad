// Tests for the chaining mesh / coarse-leaf k-d trees and the LBVH.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/particles.h"
#include "tree/chaining_mesh.h"
#include "tree/lbvh.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crkhacc::tree {
namespace {

Particles random_particles(std::size_t n, double box, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, Species::kDarkMatter,
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box), 0, 0, 0, 1.0f);
  }
  return p;
}

comm::Box3 unit_box(double size) {
  comm::Box3 box;
  box.lo = {0.0, 0.0, 0.0};
  box.hi = {size, size, size};
  return box;
}

// --- chaining mesh -----------------------------------------------------------

TEST(ChainingMesh, EveryParticleInExactlyOneLeaf) {
  const auto p = random_particles(500, 10.0, 1);
  ChainingMesh mesh(unit_box(10.0), {2.0, 16});
  mesh.build(p);
  std::vector<int> seen(p.size(), 0);
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    const Leaf& leaf = mesh.leaf(l);
    for (std::uint32_t s = leaf.begin; s < leaf.end; ++s) {
      ++seen[mesh.permutation()[s]];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(mesh.num_particles(), p.size());
}

TEST(ChainingMesh, LeafSizeRespected) {
  const auto p = random_particles(1000, 10.0, 2);
  const std::uint32_t leaf_size = 24;
  ChainingMesh mesh(unit_box(10.0), {2.5, leaf_size});
  mesh.build(p);
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    EXPECT_LE(mesh.leaf(l).size(), leaf_size);
    EXPECT_GT(mesh.leaf(l).size(), 0u);
  }
}

TEST(ChainingMesh, BoundsContainMembers) {
  const auto p = random_particles(400, 8.0, 3);
  ChainingMesh mesh(unit_box(8.0), {2.0, 16});
  mesh.build(p);
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    const Leaf& leaf = mesh.leaf(l);
    for (std::uint32_t s = leaf.begin; s < leaf.end; ++s) {
      const auto i = mesh.permutation()[s];
      EXPECT_GE(p.x[i], leaf.lo[0]);
      EXPECT_LE(p.x[i], leaf.hi[0]);
      EXPECT_GE(p.y[i], leaf.lo[1]);
      EXPECT_LE(p.y[i], leaf.hi[1]);
      EXPECT_GE(p.z[i], leaf.lo[2]);
      EXPECT_LE(p.z[i], leaf.hi[2]);
    }
  }
}

TEST(ChainingMesh, RefitTracksMotionWithoutRepartition) {
  auto p = random_particles(300, 10.0, 4);
  ChainingMesh mesh(unit_box(10.0), {2.0, 16});
  mesh.build(p);
  const auto perm_before = mesh.permutation();
  // Drift everything.
  for (std::size_t i = 0; i < p.size(); ++i) p.x[i] += 0.3f;
  mesh.refit_bounds(p);
  EXPECT_EQ(mesh.permutation(), perm_before);  // membership unchanged
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    const Leaf& leaf = mesh.leaf(l);
    for (std::uint32_t s = leaf.begin; s < leaf.end; ++s) {
      const auto i = mesh.permutation()[s];
      EXPECT_GE(p.x[i], leaf.lo[0]);
      EXPECT_LE(p.x[i], leaf.hi[0]);
    }
  }
}

/// Property: every particle pair within `radius` is covered by some
/// leaf pair in interaction_pairs(radius).
TEST(ChainingMesh, InteractionPairsCoverAllCloseParticlePairs) {
  const double box = 6.0, radius = 0.9;
  const auto p = random_particles(250, box, 5);
  ChainingMesh mesh(unit_box(box), {1.0, 8});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(radius);

  // leaf of each particle
  std::vector<std::uint32_t> leaf_of(p.size());
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    const Leaf& leaf = mesh.leaf(l);
    for (std::uint32_t s = leaf.begin; s < leaf.end; ++s) {
      leaf_of[mesh.permutation()[s]] = static_cast<std::uint32_t>(l);
    }
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> pair_set(pairs.begin(),
                                                             pairs.end());
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      const double dx = p.x[i] - p.x[j];
      const double dy = p.y[i] - p.y[j];
      const double dz = p.z[i] - p.z[j];
      if (dx * dx + dy * dy + dz * dz > radius * radius) continue;
      auto a = leaf_of[i], b = leaf_of[j];
      if (a > b) std::swap(a, b);
      EXPECT_TRUE(pair_set.count({a, b}))
          << "pair (" << i << "," << j << ") not covered";
    }
  }
}

TEST(ChainingMesh, SubsetBuildUsesOnlySubset) {
  const auto p = random_particles(200, 10.0, 6);
  std::vector<std::uint32_t> subset;
  for (std::uint32_t i = 0; i < 200; i += 2) subset.push_back(i);
  ChainingMesh mesh(unit_box(10.0), {2.0, 16});
  mesh.build(p, subset);
  EXPECT_EQ(mesh.num_particles(), subset.size());
  for (std::uint32_t idx : mesh.permutation()) {
    EXPECT_EQ(idx % 2, 0u);
  }
}

TEST(ChainingMesh, ForEachInRadiusMatchesBruteForce) {
  const double box = 6.0;
  const auto p = random_particles(300, box, 7);
  ChainingMesh mesh(unit_box(box), {1.5, 8});
  mesh.build(p);
  const float radius = 1.2f;
  for (int trial = 0; trial < 20; ++trial) {
    const float qx = static_cast<float>(0.5 + trial * 0.25);
    const float qy = static_cast<float>(3.0 - trial * 0.1);
    const float qz = 2.0f;
    std::set<std::uint32_t> found;
    mesh.for_each_in_radius(p, qx, qy, qz, radius,
                            [&](std::uint32_t i, float) { found.insert(i); });
    std::set<std::uint32_t> expected;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float dx = p.x[i] - qx, dy = p.y[i] - qy, dz = p.z[i] - qz;
      if (dx * dx + dy * dy + dz * dz <= radius * radius) {
        expected.insert(static_cast<std::uint32_t>(i));
      }
    }
    EXPECT_EQ(found, expected);
  }
}

TEST(ChainingMesh, AabbDistanceSq) {
  Leaf a, b;
  a.lo = {0, 0, 0};
  a.hi = {1, 1, 1};
  b.lo = {3, 0, 0};
  b.hi = {4, 1, 1};
  EXPECT_DOUBLE_EQ(ChainingMesh::aabb_distance_sq(a, b), 4.0);
  b.lo = {0.5, 0.5, 0.5};
  b.hi = {2, 2, 2};
  EXPECT_DOUBLE_EQ(ChainingMesh::aabb_distance_sq(a, b), 0.0);
}

TEST(ChainingMesh, ClampsStrayParticlesIntoEdgeBins) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, -0.5f, 5.0f, 5.0f, 0, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 10.5f, 5.0f, 5.0f, 0, 0, 0, 1.0f);
  ChainingMesh mesh(unit_box(10.0), {2.0, 16});
  mesh.build(p);  // must not crash; both particles land in edge bins
  EXPECT_EQ(mesh.num_particles(), 2u);
}

// --- periodic chaining mesh -------------------------------------------------

comm::Box3 box_of(double lx, double ly, double lz) {
  comm::Box3 box;
  box.lo = {0.0, 0.0, 0.0};
  box.hi = {lx, ly, lz};
  return box;
}

Particles random_in(const comm::Box3& box, std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, Species::kDarkMatter,
                static_cast<float>(rng.next_double() * box.hi[0]),
                static_cast<float>(rng.next_double() * box.hi[1]),
                static_cast<float>(rng.next_double() * box.hi[2]), 0, 0, 0,
                1.0f);
  }
  return p;
}

int image_code(const std::array<int, 3>& k) {
  return (k[0] + 2) + 5 * (k[1] + 2) + 25 * (k[2] + 2);
}

/// The brute-force coverage contract of a periodic pair list: pair
/// (A, B + k) covers every ordered (i in A, j in B, k) and, through its
/// mirrored j-side, (j, i, -k); a self pair (A, A) covers (i, j != i, 0).
/// Every (i, j, image) closer than `radius` must be covered, and no
/// (i, j, image) more than once.
void expect_periodic_coverage(const Particles& p, const ChainingMesh& mesh,
                              const comm::Box3& box, double radius,
                              const std::string& label) {
  const auto pairs = mesh.interaction_pairs(radius);
  std::map<std::tuple<std::uint32_t, std::uint32_t, int>, int> covered;
  for (const auto& [la, id] : pairs) {
    ASSERT_LT(la, mesh.num_leaves()) << label;
    const LeafImage b = mesh.resolve(id);
    const auto k = mesh.image_periods(id);
    const std::array<int, 3> minus{-k[0], -k[1], -k[2]};
    const Leaf& a = mesh.leaf(la);
    const Leaf& lb = mesh.leaf(b.leaf);
    for (std::uint32_t s = a.begin; s < a.end; ++s) {
      for (std::uint32_t t = lb.begin; t < lb.end; ++t) {
        const std::uint32_t i = mesh.permutation()[s];
        const std::uint32_t j = mesh.permutation()[t];
        if (id == la) {
          if (i != j) ++covered[{i, j, image_code(k)}];
          continue;
        }
        ++covered[{i, j, image_code(k)}];
        ++covered[{j, i, image_code(minus)}];
      }
    }
  }
  for (const auto& [key, count] : covered) {
    EXPECT_EQ(count, 1) << label << ": (" << std::get<0>(key) << ", "
                        << std::get<1>(key) << ", image "
                        << std::get<2>(key) << ") covered twice";
  }
  std::size_t within = 0;
  const double r2 = radius * radius * (1.0 - 1e-9);
  for (std::uint32_t i = 0; i < p.size(); ++i) {
    for (std::uint32_t j = 0; j < p.size(); ++j) {
      for (int kz = -2; kz <= 2; ++kz) {
        for (int ky = -2; ky <= 2; ++ky) {
          for (int kx = -2; kx <= 2; ++kx) {
            if (i == j && kx == 0 && ky == 0 && kz == 0) continue;
            const double dx = static_cast<double>(p.x[i]) - p.x[j] - kx * box.hi[0];
            const double dy = static_cast<double>(p.y[i]) - p.y[j] - ky * box.hi[1];
            const double dz = static_cast<double>(p.z[i]) - p.z[j] - kz * box.hi[2];
            if (dx * dx + dy * dy + dz * dz >= r2) continue;
            ++within;
            EXPECT_TRUE(covered.count({i, j, image_code({kx, ky, kz})}))
                << label << ": (" << i << ", " << j << ", image (" << kx
                << "," << ky << "," << kz << ")) within radius not covered";
          }
        }
      }
    }
  }
  EXPECT_GT(within, 0u) << label << ": degenerate case";
}

TEST(ChainingMesh, PeriodicImageIdsRoundTrip) {
  const auto box = box_of(6.0, 3.0, 9.0);
  const auto p = random_in(box, 200, 30);
  ChainingMesh mesh(box, {2.0, 16, /*periodic=*/true});
  mesh.build(p);
  ASSERT_TRUE(mesh.periodic());
  const auto n = static_cast<std::uint32_t>(mesh.num_leaves());
  EXPECT_EQ(mesh.num_leaf_ids(), ChainingMesh::kImages * n);
  for (std::uint32_t l = 0; l < n; ++l) {
    EXPECT_EQ(mesh.image_id(l, {0, 0, 0}), l);
    EXPECT_FALSE(mesh.resolve(l).shifted);
    for (int kz = -1; kz <= 1; ++kz) {
      for (int ky = -1; ky <= 1; ++ky) {
        for (int kx = -1; kx <= 1; ++kx) {
          const std::uint32_t id = mesh.image_id(l, {kx, ky, kz});
          EXPECT_LT(id, mesh.num_leaf_ids());
          EXPECT_EQ(mesh.base_leaf(id), l);
          EXPECT_EQ(mesh.image_periods(id), (std::array<int, 3>{kx, ky, kz}));
          const LeafImage img = mesh.resolve(id);
          EXPECT_EQ(img.leaf, l);
          EXPECT_EQ(img.shifted, kx != 0 || ky != 0 || kz != 0);
          EXPECT_EQ(img.shift[0], static_cast<float>(kx * 6.0));
          EXPECT_EQ(img.shift[1], static_cast<float>(ky * 3.0));
          EXPECT_EQ(img.shift[2], static_cast<float>(kz * 9.0));
          // (l, m + k) mirrors to (m, l - k), and back.
          const std::uint32_t m = (l + 1) % n;
          const std::uint32_t back = mesh.mirror(l, mesh.image_id(m, {kx, ky, kz}));
          EXPECT_EQ(back, mesh.image_id(l, {-kx, -ky, -kz}));
          EXPECT_EQ(mesh.mirror(m, back), mesh.image_id(m, {kx, ky, kz}));
        }
      }
    }
  }
}

TEST(ChainingMesh, PeriodicPairsCoverEveryImageExactlyOnce) {
  struct Case {
    const char* label;
    comm::Box3 box;
    double bin_width;
    std::uint32_t leaf_size;
    double radius;
  };
  const Case cases[] = {
      // One bin per side and a radius past half the box: every pair is
      // seen at several images.
      {"dims 1, r > L/2", box_of(4.0, 4.0, 4.0), 4.0, 16, 3.0},
      // Two bins per side: the stencil wraps onto the same bins twice.
      {"dims 2", box_of(6.0, 6.0, 6.0), 3.0, 16, 2.9},
      {"dims 4", box_of(8.0, 8.0, 8.0), 2.0, 8, 1.7},
      // Mixed dims per side (the Sod tube shape).
      {"dims 8x1x1", box_of(16.0, 2.0, 2.0), 2.0, 8, 2.0},
  };
  for (const Case& c : cases) {
    const auto p = random_in(c.box, 180, 31);
    ChainingMesh mesh(c.box, {c.bin_width, c.leaf_size, /*periodic=*/true});
    mesh.build(p);
    expect_periodic_coverage(p, mesh, c.box, c.radius, c.label);
  }
}

TEST(ChainingMesh, PeriodicCoverageSurvivesMembersLeavingTheBox) {
  // Built, then every particle drifts (up to 0.2 per axis), wraps back
  // into the box as the drift does, and refits: leaves whose members
  // crossed the edge stretch across the box. The image shifts must
  // follow the refit AABBs, not the build bins.
  for (const double bin_width : {2.0, 4.0, 8.0}) {
    const auto box = box_of(8.0, 8.0, 8.0);
    auto p = random_in(box, 200, 32);
    ChainingMesh mesh(box, {bin_width, 8, /*periodic=*/true});
    mesh.build(p);
    SplitMix64 rng(33);
    std::size_t crossed = 0;
    const auto drift = [&](float& v) {
      v += static_cast<float>(0.4 * (rng.next_double() - 0.5));
      if (v < 0.0f || v >= 8.0f) {
        ++crossed;
        v += v < 0.0f ? 8.0f : -8.0f;
      }
    };
    for (std::size_t i = 0; i < p.size(); ++i) {
      drift(p.x[i]);
      drift(p.y[i]);
      drift(p.z[i]);
    }
    ASSERT_GT(crossed, 0u);
    mesh.refit_bounds(p);
    // The stencil reaches pairs whose build-time bins are adjacent:
    // radius + 2 x 0.2 of drift within a bin.
    expect_periodic_coverage(p, mesh, box, 1.5,
                             "bin " + std::to_string(bin_width));
  }
}

TEST(ChainingMesh, PeriodicForEachInRadiusVisitsImages) {
  for (const double bin_width : {1.5, 3.0, 6.0}) {
    const auto box = box_of(6.0, 6.0, 6.0);
    const auto p = random_in(box, 300, 34);
    ChainingMesh mesh(box, {bin_width, 8, /*periodic=*/true});
    mesh.build(p);
    const float radius = static_cast<float>(bin_width);
    SplitMix64 rng(35);
    for (int trial = 0; trial < 25; ++trial) {
      const float q[3] = {static_cast<float>(rng.next_double() * 6.0),
                          static_cast<float>(rng.next_double() * 6.0),
                          static_cast<float>(rng.next_double() * 6.0)};
      std::vector<std::pair<std::uint32_t, float>> found;
      mesh.for_each_in_radius(p, q[0], q[1], q[2], radius,
                              [&](std::uint32_t i, float d2) {
                                found.emplace_back(i, d2);
                              });
      std::vector<std::pair<std::uint32_t, float>> expected;
      const float r2 = radius * radius;
      for (std::uint32_t i = 0; i < p.size(); ++i) {
        for (int kz = -2; kz <= 2; ++kz) {
          for (int ky = -2; ky <= 2; ++ky) {
            for (int kx = -2; kx <= 2; ++kx) {
              float px = p.x[i], py = p.y[i], pz = p.z[i];
              if (kx != 0 || ky != 0 || kz != 0) {
                px += static_cast<float>(kx * 6.0);
                py += static_cast<float>(ky * 6.0);
                pz += static_cast<float>(kz * 6.0);
              }
              const float dx = px - q[0], dy = py - q[1], dz = pz - q[2];
              const float d2 = dx * dx + dy * dy + dz * dz;
              if (d2 <= r2) expected.emplace_back(i, d2);
            }
          }
        }
      }
      std::sort(found.begin(), found.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(found, expected) << "bin " << bin_width << " trial " << trial;
    }
  }
}

TEST(ChainingMeshDeathTest, PeriodicMeshRejectsOutOfReachRadius) {
  const auto box = box_of(6.0, 6.0, 6.0);
  const auto p = random_in(box, 60, 36);
  ChainingMesh mesh(box, {2.0, 8, /*periodic=*/true});
  mesh.build(p);
  // At the smallest bin width the one-bin stencil still reaches.
  EXPECT_FALSE(mesh.interaction_pairs(2.0).empty());
  EXPECT_DEATH(mesh.interaction_pairs(2.5), "query radius exceeds");
  EXPECT_DEATH(mesh.neighbor_leaves(0, 2.5), "query radius exceeds");
  EXPECT_DEATH(mesh.for_each_in_radius(p, 3.0f, 3.0f, 3.0f, 2.5f,
                                       [](std::uint32_t, float) {}),
               "query radius exceeds");
  // Overloaded meshes keep taking out-of-bin radii: Newtonian callers
  // ask for every stencil pair with a radius of 1e15.
  ChainingMesh open(box, {2.0, 8});
  open.build(p);
  EXPECT_FALSE(open.interaction_pairs(1e15).empty());
}

// --- LBVH ---------------------------------------------------------------------

class BvhTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BvhTest, RadiusQueryMatchesBruteForce) {
  const std::size_t n = GetParam();
  const auto p = random_particles(n, 4.0, 8);
  const Bvh bvh(p.x, p.y, p.z);
  EXPECT_EQ(bvh.size(), n);
  SplitMix64 rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const float qx = static_cast<float>(rng.next_double() * 4.0);
    const float qy = static_cast<float>(rng.next_double() * 4.0);
    const float qz = static_cast<float>(rng.next_double() * 4.0);
    const float radius = static_cast<float>(0.2 + rng.next_double());
    std::set<std::uint32_t> found;
    bvh.radius_query(qx, qy, qz, radius,
                     [&](std::uint32_t i) { found.insert(i); });
    std::set<std::uint32_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      const float dx = p.x[i] - qx, dy = p.y[i] - qy, dz = p.z[i] - qz;
      if (dx * dx + dy * dy + dz * dz <= radius * radius) {
        expected.insert(static_cast<std::uint32_t>(i));
      }
    }
    EXPECT_EQ(found, expected);
  }
}

/// Check the pair join of `bvh` over (x, y, z) against all pairs: every
/// unordered pair with d^2 <= r^2 in float is visited exactly once, no
/// other pair, and never (i, i). Returns the number of pairs visited.
std::size_t expect_join_matches_brute_force(const Bvh& bvh,
                                            std::span<const float> x,
                                            std::span<const float> y,
                                            std::span<const float> z,
                                            float radius) {
  using Pair = std::pair<std::uint32_t, std::uint32_t>;
  std::map<Pair, int> visits;
  bvh.for_each_pair_within(radius, [&](std::uint32_t i, std::uint32_t j) {
    EXPECT_NE(i, j);
    ++visits[{std::min(i, j), std::max(i, j)}];
  });
  std::map<Pair, int> expected;
  for (std::uint32_t i = 0; i < x.size(); ++i) {
    for (std::uint32_t j = i + 1; j < x.size(); ++j) {
      const float dx = x[i] - x[j], dy = y[i] - y[j], dz = z[i] - z[j];
      if (dx * dx + dy * dy + dz * dz <= radius * radius) expected[{i, j}] = 1;
    }
  }
  EXPECT_EQ(visits, expected) << "radius " << radius;
  return visits.size();
}

TEST_P(BvhTest, PairJoinVisitsEveryPairWithinRadiusOnce) {
  const std::size_t n = GetParam();
  const auto p = random_particles(n, 4.0, 8);
  // Leaf size 1 gives the deepest tree: every join split runs on it.
  for (const std::uint32_t leaf_size : {1u, 8u}) {
    const Bvh bvh(p.x, p.y, p.z, leaf_size);
    for (const float radius : {0.0f, 0.3f, 0.8f, 7.0f}) {
      const std::size_t pairs =
          expect_join_matches_brute_force(bvh, p.x, p.y, p.z, radius);
      // A radius past the box diagonal links everything.
      if (radius == 7.0f) {
        EXPECT_EQ(pairs, n * (n - 1) / 2);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BvhTest, ::testing::Values(1, 2, 7, 64, 500));

TEST(Bvh, EmptySetHandled) {
  std::vector<float> none;
  const Bvh bvh(none, none, none);
  std::size_t visits = 0;
  bvh.radius_query(0, 0, 0, 10, [&](std::uint32_t) { ++visits; });
  bvh.for_each_pair_within(10, [&](std::uint32_t, std::uint32_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(Bvh, PairJoinLinksDuplicatePoints) {
  // Twelve copies of one point, more than a leaf holds, among scattered
  // points: the copies are pairwise within any radius, even zero.
  auto p = random_particles(20, 4.0, 21);
  for (int k = 0; k < 12; ++k) {
    p.push_back(100 + k, Species::kDarkMatter, 1.5f, 2.5f, 0.5f, 0, 0, 0, 1.0f);
  }
  const Bvh bvh(p.x, p.y, p.z);
  EXPECT_GE(expect_join_matches_brute_force(bvh, p.x, p.y, p.z, 0.0f), 66u);
  expect_join_matches_brute_force(bvh, p.x, p.y, p.z, 0.5f);
}

TEST(Bvh, PairJoinLatticeSpacedAtTheRadius) {
  // Neighbors sit exactly one radius apart: the <= boundary decides every
  // link. 0.25 is exact in float, so each lattice edge links and no
  // diagonal does; 0.3 is not, and brute force decides each edge.
  constexpr int kSide = 7;
  for (const float spacing : {0.25f, 0.3f}) {
    std::vector<float> x, y, z;
    for (int i = 0; i < kSide; ++i) {
      for (int j = 0; j < kSide; ++j) {
        for (int k = 0; k < kSide; ++k) {
          x.push_back(static_cast<float>(i) * spacing);
          y.push_back(static_cast<float>(j) * spacing);
          z.push_back(static_cast<float>(k) * spacing);
        }
      }
    }
    const Bvh bvh(x, y, z);
    const std::size_t pairs =
        expect_join_matches_brute_force(bvh, x, y, z, spacing);
    if (spacing == 0.25f) {
      EXPECT_EQ(pairs, std::size_t{3} * kSide * kSide * (kSide - 1));
    }
  }
}

TEST(Bvh, CountWithinIncludesSelf) {
  std::vector<float> x{1.0f, 2.0f}, y{0.0f, 0.0f}, z{0.0f, 0.0f};
  const Bvh bvh(x, y, z);
  EXPECT_EQ(bvh.count_within(1.0f, 0.0f, 0.0f, 0.5f), 1u);
  EXPECT_EQ(bvh.count_within(1.0f, 0.0f, 0.0f, 1.5f), 2u);
}

TEST(Bvh, DuplicatePointsAllFound) {
  std::vector<float> x(10, 1.0f), y(10, 1.0f), z(10, 1.0f);
  const Bvh bvh(x, y, z);
  EXPECT_EQ(bvh.count_within(1.0f, 1.0f, 1.0f, 0.1f), 10u);
}

// --- bin occupancy census edge cases -----------------------------------------

TEST(BinOccupancy, EmptyRankCountsNothing) {
  const Particles none;
  const auto stats = bin_occupancy(unit_box(10.0), 2.0, none, 0.5);
  EXPECT_EQ(stats.counted, 0u);
  EXPECT_EQ(stats.out_of_domain, 0u);
  EXPECT_EQ(stats.max_bin, 0u);
  EXPECT_EQ(stats.mean_bin, 0.0);
  EXPECT_GT(stats.bins, 0u);
}

TEST(BinOccupancy, SingleOccupiedBinHoldsEveryParticle) {
  // All particles at the same position: max_bin must equal counted.
  Particles p;
  for (std::size_t i = 0; i < 25; ++i) {
    p.push_back(i, Species::kDarkMatter, 3.1f, 3.1f, 3.1f, 0, 0, 0, 1.0f);
  }
  const auto stats = bin_occupancy(unit_box(10.0), 2.0, p, 0.5);
  EXPECT_EQ(stats.counted, 25u);
  EXPECT_EQ(stats.max_bin, 25u);
  EXPECT_EQ(stats.out_of_domain, 0u);
}

TEST(BinOccupancy, BinWiderThanDomainCollapsesToOneBin) {
  const auto p = random_particles(40, 4.0, 11);
  const auto stats = bin_occupancy(unit_box(4.0), 100.0, p, 0.5);
  EXPECT_EQ(stats.bins, 1u);
  EXPECT_EQ(stats.counted, 40u);
  EXPECT_EQ(stats.max_bin, 40u);
  EXPECT_EQ(stats.mean_bin, 40.0);
}

// --- timestep-bin order within leaves ----------------------------------------

// order_members_by_bin is a stable sort of each leaf's members by
// descending bin: members, AABBs and leaf ranges stay, equal bins keep
// their build order, every substep's active members lead each leaf, and
// a pool changes nothing.
TEST(ChainingMesh, OrderMembersByBinStablySortsEachLeaf) {
  auto p = random_particles(600, 10.0, 31);
  SplitMix64 rng(32);
  constexpr int kDepth = 3;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.bin[i] = static_cast<std::uint8_t>(rng.next_bounded(kDepth + 1));
  }
  ChainingMesh built(unit_box(10.0), {2.0, 16});
  built.build(p);
  std::vector<std::uint32_t> build_slot(p.size());
  for (std::uint32_t s = 0; s < built.num_particles(); ++s) {
    build_slot[built.permutation()[s]] = s;
  }

  util::ThreadPool pool(4);
  std::vector<std::vector<std::uint32_t>> perms;
  for (util::ThreadPool* with : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool}) {
    ChainingMesh mesh = built;
    mesh.order_members_by_bin(p, with);
    ASSERT_EQ(mesh.num_leaves(), built.num_leaves());
    const auto& perm = mesh.permutation();
    for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
      const Leaf& got = mesh.leaf(l);
      const Leaf& want = built.leaf(l);
      ASSERT_EQ(got.begin, want.begin);
      ASSERT_EQ(got.end, want.end);
      EXPECT_EQ(got.lo, want.lo);
      EXPECT_EQ(got.hi, want.hi);
      std::vector<std::uint32_t> members(perm.begin() + got.begin,
                                         perm.begin() + got.end);
      std::vector<std::uint32_t> built_members(
          built.permutation().begin() + want.begin,
          built.permutation().begin() + want.end);
      std::sort(members.begin(), members.end());
      std::sort(built_members.begin(), built_members.end());
      EXPECT_EQ(members, built_members) << "leaf " << l;
      for (std::uint32_t s = got.begin + 1; s < got.end; ++s) {
        const std::uint32_t prev = perm[s - 1];
        const std::uint32_t cur = perm[s];
        ASSERT_GE(p.bin[prev], p.bin[cur]) << "leaf " << l << " slot " << s;
        if (p.bin[prev] == p.bin[cur]) {
          EXPECT_LT(build_slot[prev], build_slot[cur])
              << "equal bins left build order, leaf " << l;
        }
      }
      // Bin b is active at substep s iff s is a multiple of
      // 2^(depth - b) (integrator::bin_active): deeper bins are active
      // whenever shallower ones are, so the active members are a prefix.
      for (std::uint32_t sub = 0; sub < (1u << kDepth); ++sub) {
        bool seen_inactive = false;
        for (std::uint32_t s = got.begin; s < got.end; ++s) {
          const bool active = sub % (1u << (kDepth - p.bin[perm[s]])) == 0;
          EXPECT_FALSE(active && seen_inactive)
              << "active member after an inactive one, leaf " << l;
          seen_inactive = seen_inactive || !active;
        }
      }
    }
    perms.push_back(perm);
  }
  EXPECT_EQ(perms[0], perms[1]);
}

// --- load-balancer support accessors -----------------------------------------

TEST(ChainingMesh, BinParticleCountAndLeafBinAgreeWithLeaves) {
  const auto p = random_particles(300, 10.0, 21);
  ChainingMesh mesh(unit_box(10.0), {2.0, 16});
  mesh.build(p);
  std::uint64_t total = 0;
  std::vector<std::uint64_t> by_bin(mesh.num_bins(), 0);
  for (std::size_t l = 0; l < mesh.num_leaves(); ++l) {
    ASSERT_LT(mesh.leaf_bin(l), mesh.num_bins());
    by_bin[mesh.leaf_bin(l)] += mesh.leaf(l).size();
  }
  for (std::size_t b = 0; b < mesh.num_bins(); ++b) {
    EXPECT_EQ(mesh.bin_particle_count(b), by_bin[b]) << "bin " << b;
    total += mesh.bin_particle_count(b);
  }
  EXPECT_EQ(total, p.size());
}

TEST(ChainingMesh, AdoptRebuildsLeafRangesWithIdentityPermutation) {
  const std::vector<std::uint32_t> leaf_begin{0, 3, 3, 7};
  const ChainingMesh mesh = ChainingMesh::adopt(leaf_begin);
  ASSERT_EQ(mesh.num_leaves(), 3u);
  EXPECT_EQ(mesh.leaf(0).begin, 0u);
  EXPECT_EQ(mesh.leaf(0).end, 3u);
  EXPECT_EQ(mesh.leaf(1).size(), 0u);
  EXPECT_EQ(mesh.leaf(2).begin, 3u);
  EXPECT_EQ(mesh.leaf(2).end, 7u);
  ASSERT_EQ(mesh.permutation().size(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(mesh.permutation()[i], i);
  }
}

}  // namespace
}  // namespace crkhacc::tree
