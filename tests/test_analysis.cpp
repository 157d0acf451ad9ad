// Tests for the in situ analysis toolbox: union-find, FOF, DBSCAN, halo
// catalogs, power spectra, slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <set>
#include <span>
#include <utility>

#include "analysis/dbscan.h"
#include "analysis/fof.h"
#include "analysis/galaxies.h"
#include "analysis/halos.h"
#include "analysis/power_spectrum.h"
#include "analysis/slices.h"
#include "analysis/so_masses.h"
#include "analysis/union_find.h"
#include "comm/world.h"
#include "core/exchange.h"
#include "core/particles.h"
#include "core/simulation.h"
#include "tree/lbvh.h"
#include "util/rng.h"

namespace crkhacc::analysis {
namespace {

// --- union-find -----------------------------------------------------------

TEST(UnionFind, BasicConnectivity) {
  UnionFind dsu(6);
  EXPECT_FALSE(dsu.connected(0, 1));
  dsu.unite(0, 1);
  dsu.unite(2, 3);
  EXPECT_TRUE(dsu.connected(0, 1));
  EXPECT_FALSE(dsu.connected(1, 2));
  dsu.unite(1, 2);
  EXPECT_TRUE(dsu.connected(0, 3));
  EXPECT_EQ(dsu.component_size(0), 4u);
  EXPECT_EQ(dsu.component_size(4), 1u);
}

TEST(UnionFind, IdempotentUnions) {
  UnionFind dsu(4);
  dsu.unite(0, 1);
  dsu.unite(1, 0);
  dsu.unite(0, 1);
  EXPECT_EQ(dsu.component_size(0), 2u);
}

// --- FOF ---------------------------------------------------------------------

/// Two tight blobs plus isolated noise points.
struct TwoBlobs {
  std::vector<float> x, y, z;

  TwoBlobs(std::size_t per_blob, float spread, std::uint64_t seed) {
    SplitMix64 rng(seed);
    auto blob = [&](float cx, float cy, float cz) {
      for (std::size_t i = 0; i < per_blob; ++i) {
        x.push_back(cx + spread * static_cast<float>(rng.next_gaussian()));
        y.push_back(cy + spread * static_cast<float>(rng.next_gaussian()));
        z.push_back(cz + spread * static_cast<float>(rng.next_gaussian()));
      }
    };
    blob(2.0f, 2.0f, 2.0f);
    blob(8.0f, 8.0f, 8.0f);
    // Isolated outliers.
    x.push_back(5.0f); y.push_back(0.5f); z.push_back(9.5f);
    x.push_back(0.5f); y.push_back(9.5f); z.push_back(5.0f);
  }
};

TEST(Fof, FindsTwoDistinctGroups) {
  const TwoBlobs blobs(50, 0.15f, 1);
  const auto result = fof(blobs.x, blobs.y, blobs.z, 0.5f, 8);
  EXPECT_EQ(result.num_groups(), 2u);
  EXPECT_EQ(result.groups[0].size(), 50u);
  EXPECT_EQ(result.groups[1].size(), 50u);
  // Outliers ungrouped.
  EXPECT_EQ(result.group_of[100], FofResult::kUngrouped);
  EXPECT_EQ(result.group_of[101], FofResult::kUngrouped);
  // Members of the same blob share a group id.
  const auto g0 = result.group_of[0];
  for (std::size_t i = 1; i < 50; ++i) EXPECT_EQ(result.group_of[i], g0);
}

TEST(Fof, MinMembersFiltersSmallGroups) {
  const TwoBlobs blobs(5, 0.1f, 2);
  const auto big_only = fof(blobs.x, blobs.y, blobs.z, 0.5f, 10);
  EXPECT_EQ(big_only.num_groups(), 0u);
  const auto all = fof(blobs.x, blobs.y, blobs.z, 0.5f, 2);
  EXPECT_EQ(all.num_groups(), 2u);
}

TEST(Fof, MatchesBruteForceComponents) {
  // Random points; compare against naive union-find over all pairs.
  SplitMix64 rng(3);
  const std::size_t n = 200;
  std::vector<float> x(n), y(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(rng.next_double() * 5.0);
    y[i] = static_cast<float>(rng.next_double() * 5.0);
    z[i] = static_cast<float>(rng.next_double() * 5.0);
  }
  const float ll = 0.4f;
  const auto result = fof(x, y, z, ll, 1);

  UnionFind reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float dx = x[i] - x[j], dy = y[i] - y[j], dz = z[i] - z[j];
      if (dx * dx + dy * dy + dz * dz <= ll * ll) {
        reference.unite(static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool same_fof = result.group_of[i] == result.group_of[j] &&
                            result.group_of[i] != FofResult::kUngrouped;
      const bool same_ref =
          reference.connected(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j));
      // min_members=1 means every particle is grouped.
      EXPECT_EQ(same_fof, same_ref) << i << "," << j;
    }
  }
}

TEST(Fof, GroupsSortedBySizeDescending) {
  TwoBlobs blobs(30, 0.1f, 4);
  // Add a third, bigger blob.
  SplitMix64 rng(5);
  for (int i = 0; i < 80; ++i) {
    blobs.x.push_back(5.0f + 0.1f * static_cast<float>(rng.next_gaussian()));
    blobs.y.push_back(5.0f + 0.1f * static_cast<float>(rng.next_gaussian()));
    blobs.z.push_back(5.0f + 0.1f * static_cast<float>(rng.next_gaussian()));
  }
  const auto result = fof(blobs.x, blobs.y, blobs.z, 0.5f, 8);
  ASSERT_EQ(result.num_groups(), 3u);
  EXPECT_GE(result.groups[0].size(), result.groups[1].size());
  EXPECT_GE(result.groups[1].size(), result.groups[2].size());
  EXPECT_EQ(result.groups[0].size(), 80u);
}

// --- FOF against the per-particle reference -----------------------------------

/// FOF as it linked before the pair join: one radius_query from every
/// particle, uniting each neighbor above it; then fof()'s numbering, kept
/// here line for line (groups in order of first member, sorted largest
/// first), so the comparison below is bitwise.
FofResult fof_per_particle(std::span<const float> x, std::span<const float> y,
                           std::span<const float> z, float linking_length,
                           std::size_t min_members) {
  const std::size_t n = x.size();
  FofResult result;
  result.group_of.assign(n, FofResult::kUngrouped);
  if (n == 0) return result;

  const tree::Bvh bvh(x, y, z);
  UnionFind dsu(n);
  for (std::size_t i = 0; i < n; ++i) {
    bvh.radius_query(x[i], y[i], z[i], linking_length,
                     [&](std::uint32_t j) {
                       if (j > i) dsu.unite(static_cast<std::uint32_t>(i), j);
                     });
  }

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

/// fof() equals the per-particle reference bit for bit at each linking
/// length, with every particle grouped and with the run's threshold of 8.
/// Returns the largest group's size over the lengths.
std::size_t expect_fof_matches_per_particle(std::span<const float> x,
                                            std::span<const float> y,
                                            std::span<const float> z,
                                            const std::vector<float>& lengths) {
  std::size_t largest = 0;
  for (const float ll : lengths) {
    for (const std::size_t min_members : {std::size_t{1}, std::size_t{8}}) {
      const auto result = fof(x, y, z, ll, min_members);
      const auto reference = fof_per_particle(x, y, z, ll, min_members);
      EXPECT_EQ(result.group_of, reference.group_of)
          << "ll " << ll << ", min_members " << min_members;
      EXPECT_EQ(result.groups, reference.groups)
          << "ll " << ll << ", min_members " << min_members;
      if (!result.groups.empty()) {
        largest = std::max(largest, result.groups.front().size());
      }
    }
  }
  return largest;
}

TEST(FofPairJoin, UniformMatchesPerParticleQueries) {
  SplitMix64 rng(11);
  std::vector<float> x, y, z;
  for (int i = 0; i < 3000; ++i) {
    x.push_back(static_cast<float>(rng.next_double() * 10.0));
    y.push_back(static_cast<float>(rng.next_double() * 10.0));
    z.push_back(static_cast<float>(rng.next_double() * 10.0));
  }
  // Below, near and above the percolation length (~0.6 here).
  EXPECT_GT(expect_fof_matches_per_particle(x, y, z, {0.3f, 0.6f, 0.9f}),
            100u);
}

TEST(FofPairJoin, PlummerClustersMatchPerParticleQueries) {
  // Three Plummer spheres (scale radius 0.5, radii capped at 8) over a
  // uniform background, in a box of 20.
  SplitMix64 rng(12);
  std::vector<float> x, y, z;
  const std::array<std::array<double, 3>, 3> centers{
      {{5.0, 5.0, 5.0}, {14.0, 6.0, 12.0}, {9.0, 15.0, 8.0}}};
  for (const auto& c : centers) {
    for (int i = 0; i < 2000; ++i) {
      double r = 0.0;
      do {
        const double u = std::max(rng.next_double(), 1e-12);
        r = 0.5 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
      } while (!(r < 8.0));
      const double cos_t = 2.0 * rng.next_double() - 1.0;
      const double sin_t = std::sqrt(1.0 - cos_t * cos_t);
      const double phi = 2.0 * std::numbers::pi * rng.next_double();
      x.push_back(static_cast<float>(c[0] + r * sin_t * std::cos(phi)));
      y.push_back(static_cast<float>(c[1] + r * sin_t * std::sin(phi)));
      z.push_back(static_cast<float>(c[2] + r * cos_t));
    }
  }
  for (int i = 0; i < 1000; ++i) {
    x.push_back(static_cast<float>(rng.next_double() * 20.0));
    y.push_back(static_cast<float>(rng.next_double() * 20.0));
    z.push_back(static_cast<float>(rng.next_double() * 20.0));
  }
  EXPECT_GT(expect_fof_matches_per_particle(x, y, z, {0.02f, 0.05f, 0.15f}),
            500u);
}

TEST(FofPairJoin, DuplicatePointsMatchPerParticleQueries) {
  // 60 random points, each present one to four times, in shuffled order.
  SplitMix64 rng(13);
  std::vector<std::array<float, 3>> points;
  for (int i = 0; i < 60; ++i) {
    const std::array<float, 3> p{static_cast<float>(rng.next_double() * 4.0),
                                 static_cast<float>(rng.next_double() * 4.0),
                                 static_cast<float>(rng.next_double() * 4.0)};
    const int copies = 1 + static_cast<int>(rng.next_double() * 4.0);
    for (int k = 0; k < copies; ++k) points.push_back(p);
  }
  for (std::size_t i = points.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.next_double() *
                                            static_cast<double>(i + 1));
    std::swap(points[i], points[j]);
  }
  std::vector<float> x, y, z;
  for (const auto& p : points) {
    x.push_back(p[0]);
    y.push_back(p[1]);
    z.push_back(p[2]);
  }
  EXPECT_GE(expect_fof_matches_per_particle(x, y, z, {0.0f, 0.4f, 0.8f}),
            4u);
  // At length 0 the groups are exactly the sets of copies.
  const auto exact = fof(x, y, z, 0.0f, 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      EXPECT_EQ(exact.group_of[i] == exact.group_of[j], points[i] == points[j]);
    }
  }
}

TEST(FofPairJoin, LatticeSpacedAtTheLinkingLength) {
  // Every lattice edge is exactly one linking length long: the <= test
  // decides each link. At 0.25 (exact in float) the whole lattice is one
  // group; at 0.3 the rounded positions decide edge by edge.
  constexpr int kSide = 9;
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
    const std::size_t largest =
        expect_fof_matches_per_particle(x, y, z, {spacing});
    if (spacing == 0.25f) {
      EXPECT_EQ(largest, std::size_t{kSide * kSide * kSide});
    }
  }
}

TEST(FofPairJoin, SimulationReplicaCloudMatchesPerParticleQueries) {
  // The cloud a one-rank run links in situ: owned particles plus their
  // periodic images, at the run's linking length (b = 0.2) and at longer
  // ones that percolate.
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    core::SimConfig config;
    config.np = 6;
    config.box = 12.0;
    config.ng = 12;
    config.z_init = 30.0;
    config.z_final = 10.0;
    config.num_pm_steps = 1;
    config.hydro = true;
    config.seed = 5;
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    const Particles cloud = core::analysis_replica_cloud(
        sim.decomposition(), sim.particles(), sim.overload_width());
    ASSERT_GT(cloud.size(), sim.particles().size());
    const std::size_t n_global = 2 * config.np * config.np * config.np;
    std::vector<float> lengths;
    for (const double b : {0.2, 1.0, 1.3}) {
      lengths.push_back(static_cast<float>(
          fof_linking_length(config.box, n_global, b)));
    }
    EXPECT_GT(
        expect_fof_matches_per_particle(cloud.x, cloud.y, cloud.z, lengths),
        100u);
  });
}

TEST(Fof, LinkingLengthConvention) {
  EXPECT_NEAR(fof_linking_length(100.0, 1000000, 0.2), 0.2, 1e-12);
  EXPECT_NEAR(fof_linking_length(64.0, 32 * 32 * 32, 0.168), 0.336, 1e-9);
}

// --- DBSCAN ---------------------------------------------------------------------

TEST(Dbscan, SeparatesClustersAndNoise) {
  const TwoBlobs blobs(40, 0.1f, 6);
  const auto result = dbscan(blobs.x, blobs.y, blobs.z, 0.5f, 5);
  EXPECT_EQ(result.num_clusters, 2u);
  EXPECT_EQ(result.cluster_of[80], DbscanResult::kNoise);
  EXPECT_EQ(result.cluster_of[81], DbscanResult::kNoise);
  // Blob members share cluster ids.
  for (std::size_t i = 1; i < 40; ++i) {
    EXPECT_EQ(result.cluster_of[i], result.cluster_of[0]);
  }
  EXPECT_NE(result.cluster_of[0], result.cluster_of[45]);
}

TEST(Dbscan, CorePointsHaveDenseNeighborhoods) {
  const TwoBlobs blobs(40, 0.1f, 7);
  const auto result = dbscan(blobs.x, blobs.y, blobs.z, 0.5f, 5);
  // Isolated points are never cores; blob interiors are.
  EXPECT_FALSE(result.is_core[80]);
  std::size_t cores = 0;
  for (std::size_t i = 0; i < 40; ++i) cores += result.is_core[i];
  EXPECT_GT(cores, 30u);
}

TEST(Dbscan, MinPtsControlsStrictness) {
  const TwoBlobs blobs(10, 0.3f, 8);
  const auto strict = dbscan(blobs.x, blobs.y, blobs.z, 0.2f, 50);
  EXPECT_EQ(strict.num_clusters, 0u);
  for (auto c : strict.cluster_of) EXPECT_EQ(c, DbscanResult::kNoise);
}

TEST(Dbscan, EmptyInput) {
  std::vector<float> none;
  const auto result = dbscan(none, none, none, 1.0f, 3);
  EXPECT_EQ(result.num_clusters, 0u);
}

// --- halo catalog ------------------------------------------------------------------

TEST(HaloCatalog, ReducesGroupProperties) {
  Particles p;
  // A 4-particle "halo": 3 dm + 1 gas.
  p.push_back(10, Species::kDarkMatter, 1.0f, 1.0f, 1.0f, 10, 0, 0, 2.0f);
  p.push_back(11, Species::kDarkMatter, 1.2f, 1.0f, 1.0f, 20, 0, 0, 2.0f);
  p.push_back(12, Species::kDarkMatter, 1.0f, 1.2f, 1.0f, 30, 0, 0, 2.0f);
  p.push_back(13, Species::kGas, 1.0f, 1.0f, 1.2f, 40, 0, 0, 1.0f);
  FofResult groups;
  groups.group_of = {0, 0, 0, 0};
  groups.groups = {{0, 1, 2, 3}};
  const auto catalog = halo_catalog(p, groups, nullptr);
  ASSERT_EQ(catalog.size(), 1u);
  const auto& halo = catalog[0];
  EXPECT_EQ(halo.tag, 10u);
  EXPECT_EQ(halo.count, 4u);
  EXPECT_DOUBLE_EQ(halo.mass, 7.0);
  EXPECT_DOUBLE_EQ(halo.gas_mass, 1.0);
  EXPECT_DOUBLE_EQ(halo.star_mass, 0.0);
  // Mass-weighted center.
  EXPECT_NEAR(halo.center[0], (2 * 1.0 + 2 * 1.2 + 2 * 1.0 + 1.0) / 7.0, 1e-5);
  EXPECT_NEAR(halo.velocity[0], (2 * 10 + 2 * 20 + 2 * 30 + 40) / 7.0, 1e-4);
  EXPECT_GT(halo.radius, 0.0);
}

TEST(HaloCatalog, OwnedBoxDeduplicates) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 1.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 9.0f, 9.0f, 9.0f, 0, 0, 0, 1.0f);
  FofResult groups;
  groups.group_of = {0, 1};
  groups.groups = {{0}, {1}};
  comm::Box3 owned;
  owned.lo = {0, 0, 0};
  owned.hi = {5, 5, 5};
  const auto catalog = halo_catalog(p, groups, &owned);
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog[0].tag, 0u);
}

TEST(HaloCatalog, SortedByMassDescending) {
  Particles p;
  for (int i = 0; i < 3; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                static_cast<float>(i), 0, 0, 0, 0, 0,
                static_cast<float>(1 + i));
  }
  FofResult groups;
  groups.group_of = {0, 1, 2};
  groups.groups = {{0}, {1}, {2}};
  const auto catalog = halo_catalog(p, groups, nullptr);
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_GE(catalog[0].mass, catalog[1].mass);
  EXPECT_GE(catalog[1].mass, catalog[2].mass);
}

TEST(MassFunction, BinsLogarithmically) {
  std::vector<Halo> halos(3);
  halos[0].mass = 10.0;
  halos[1].mass = 100.0;
  halos[2].mass = 105.0;
  const auto counts = mass_function(halos, 1.0, 1000.0, 3);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 1u);   // 10 in [10, 100)
  EXPECT_EQ(counts[2], 2u);   // 100, 105 in [100, 1000)
}

// --- spherical overdensity masses ------------------------------------------------

TEST(SoMasses, RecoversUniformSphereMass) {
  // A dense uniform ball in a sparse background: M_Delta should capture
  // the ball out to where its enclosed density dilutes to the threshold.
  SplitMix64 rng(21);
  Particles p;
  std::uint64_t id = 0;
  const double ball_radius = 1.0;
  const int ball_particles = 4000;
  for (int i = 0; i < ball_particles; ++i) {
    // Uniform in the sphere via rejection.
    double x, y, z;
    do {
      x = 2.0 * rng.next_double() - 1.0;
      y = 2.0 * rng.next_double() - 1.0;
      z = 2.0 * rng.next_double() - 1.0;
    } while (x * x + y * y + z * z > 1.0);
    p.push_back(id++, Species::kDarkMatter,
                static_cast<float>(5.0 + ball_radius * x),
                static_cast<float>(5.0 + ball_radius * y),
                static_cast<float>(5.0 + ball_radius * z), 0, 0, 0, 1.0f);
  }
  // Ball density = 4000 / (4/3 pi) ~ 955. Threshold 200 * rho_ref with
  // rho_ref = 1: crossing lies just outside the ball edge.
  std::vector<Halo> seeds(1);
  seeds[0].tag = 7;
  seeds[0].center = {5.0, 5.0, 5.0};
  SoConfig config;
  config.delta = 200.0;
  config.reference_density = 1.0;
  config.r_max = 3.0;
  const auto catalog = so_masses(p, seeds, config);
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog[0].converged);
  EXPECT_EQ(catalog[0].tag, 7u);
  // All ball mass enclosed. The profile is only sampled at particle
  // radii, and the outermost particle (r ~ R_ball) still sits above the
  // 200x threshold (ball density ~955), so R_Delta lands on the edge.
  EXPECT_NEAR(catalog[0].m_delta, ball_particles, 1.0);
  EXPECT_NEAR(catalog[0].r_delta, 1.0, 0.05);
  // Enclosed density at R_Delta really is above the threshold.
  const double volume =
      4.0 / 3.0 * std::numbers::pi * std::pow(catalog[0].r_delta, 3.0);
  EXPECT_GE(catalog[0].m_delta / volume, 200.0);
}

TEST(SoMasses, UnconvergedForDiffuseSeed) {
  SplitMix64 rng(22);
  Particles p;
  for (int i = 0; i < 200; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                static_cast<float>(10.0 * rng.next_double()),
                static_cast<float>(10.0 * rng.next_double()),
                static_cast<float>(10.0 * rng.next_double()), 0, 0, 0, 1.0f);
  }
  std::vector<Halo> seeds(1);
  seeds[0].center = {5.0, 5.0, 5.0};
  SoConfig config;
  config.delta = 200.0;
  config.reference_density = 0.2;  // mean density: 200x never reached
  config.r_max = 2.0;
  const auto catalog = so_masses(p, seeds, config);
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_FALSE(catalog[0].converged);
}

// --- galaxies --------------------------------------------------------------------

TEST(Galaxies, FindsStarClumpsIgnoringOtherSpecies) {
  SplitMix64 rng(23);
  Particles p;
  std::uint64_t id = 0;
  // Two star clumps.
  auto clump = [&](double cx, int count, float mass) {
    for (int i = 0; i < count; ++i) {
      const auto idx = p.push_back(
          id++, Species::kStar,
          static_cast<float>(cx + 0.05 * rng.next_gaussian()),
          static_cast<float>(5.0 + 0.05 * rng.next_gaussian()),
          static_cast<float>(5.0 + 0.05 * rng.next_gaussian()), 100.0f, 0, 0,
          mass);
      (void)idx;
    }
  };
  clump(2.0, 30, 1.0f);
  clump(8.0, 10, 2.0f);
  // Dense dark matter nearby must not register as a galaxy.
  for (int i = 0; i < 50; ++i) {
    p.push_back(id++, Species::kDarkMatter,
                static_cast<float>(5.0 + 0.05 * rng.next_gaussian()), 5.0f,
                5.0f, 0, 0, 0, 1.0f);
  }
  GalaxyFinderConfig config;
  config.linking_length = 0.3f;
  config.min_stars = 4;
  const auto galaxies = find_galaxies(p, config);
  ASSERT_EQ(galaxies.size(), 2u);
  // Brightest first: clump 2 has mass 20, clump 1 mass 30.
  EXPECT_EQ(galaxies[0].star_count, 30u);
  EXPECT_NEAR(galaxies[0].stellar_mass, 30.0, 1e-6);
  EXPECT_NEAR(galaxies[0].center[0], 2.0, 0.1);
  EXPECT_NEAR(galaxies[0].velocity[0], 100.0, 1e-3);
  EXPECT_EQ(galaxies[1].star_count, 10u);
  EXPECT_NEAR(galaxies[1].stellar_mass, 20.0, 1e-6);
}

TEST(Galaxies, EmptyWithoutStars) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 1, 1, 1, 0, 0, 0, 1.0f);
  EXPECT_TRUE(find_galaxies(p, GalaxyFinderConfig{}).empty());
}

TEST(Galaxies, GhostStarsExcluded) {
  SplitMix64 rng(24);
  Particles p;
  for (int i = 0; i < 10; ++i) {
    const auto idx = p.push_back(
        static_cast<std::uint64_t>(i), Species::kStar,
        static_cast<float>(3.0 + 0.02 * rng.next_gaussian()), 3.0f, 3.0f, 0,
        0, 0, 1.0f);
    p.ghost[idx] = 1;  // all replicas: owner rank counts them, not us
  }
  EXPECT_TRUE(find_galaxies(p, GalaxyFinderConfig{}).empty());
}

// --- power spectrum --------------------------------------------------------------

TEST(PowerSpectrum, PlaneWavePeaksAtItsMode) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const double box = 32.0;
    const comm::CartDecomposition decomp(comm.size(), box);
    mesh::PMSolver pm(comm, decomp, mesh::PMConfig{32, box, 1.5});
    // Particles number-modulated along x with mode m=4.
    const int mode = 4;
    Particles p;
    SplitMix64 rng(11);
    for (int i = 0; i < 60000; ++i) {
      // Rejection-sample density 1 + 0.8 cos(2 pi m x / L).
      double x;
      while (true) {
        x = rng.next_double() * box;
        const double density =
            1.0 + 0.8 * std::cos(2.0 * std::numbers::pi * mode * x / box);
        if (rng.next_double() * 1.8 < density) break;
      }
      const std::array<double, 3> pos{x, rng.next_double() * box,
                                      rng.next_double() * box};
      if (decomp.owner_of(pos) != comm.rank()) continue;
      p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                  static_cast<float>(pos[0]), static_cast<float>(pos[1]),
                  static_cast<float>(pos[2]), 0, 0, 0, 1.0f);
    }
    const auto result = measure_power(comm, pm, p, true);
    // The shell containing k = 2 pi m / L must dominate.
    const double k_target = 2.0 * std::numbers::pi * mode / box;
    std::size_t peak = 0;
    for (std::size_t s = 1; s < result.power.size(); ++s) {
      if (result.power[s] > result.power[peak]) peak = s;
    }
    EXPECT_NEAR(result.k[peak], k_target, 0.15 * k_target);
  });
}

TEST(PowerSpectrum, ShotNoiseSubtractionZeroesRandomField) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const double box = 16.0;
    const comm::CartDecomposition decomp(1, box);
    mesh::PMSolver pm(comm, decomp, mesh::PMConfig{16, box, 1.5});
    SplitMix64 rng(13);
    Particles p;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
      p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                  static_cast<float>(rng.next_double() * box),
                  static_cast<float>(rng.next_double() * box),
                  static_cast<float>(rng.next_double() * box), 0, 0, 0, 1.0f);
    }
    const auto with = measure_power(comm, pm, p, true);
    const auto without = measure_power(comm, pm, p, false);
    const double shot = box * box * box / n;
    // Raw power of a Poisson field ~ shot noise; subtracted ~ 0.
    double raw_mean = 0.0, sub_mean = 0.0;
    for (std::size_t s = 0; s < with.power.size(); ++s) {
      raw_mean += without.power[s];
      sub_mean += with.power[s];
    }
    raw_mean /= static_cast<double>(without.power.size());
    sub_mean /= static_cast<double>(with.power.size());
    EXPECT_NEAR(raw_mean, shot, 0.35 * shot);
    EXPECT_LT(sub_mean, 0.35 * shot);
  });
}

// --- slices ------------------------------------------------------------------------

TEST(Slices, UniformFieldHasUnitClumping) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const double box = 16.0;
    const comm::CartDecomposition decomp(comm.size(), box);
    Particles p;
    // Dense uniform lattice in the slab.
    for (int ix = 0; ix < 32; ++ix) {
      for (int iy = 0; iy < 32; ++iy) {
        const std::array<double, 3> pos{(ix + 0.5) * 0.5, (iy + 0.5) * 0.5, 1.0};
        if (decomp.owner_of(pos) != comm.rank()) continue;
        const auto idx = p.push_back(
            static_cast<std::uint64_t>(ix * 32 + iy), Species::kGas,
            static_cast<float>(pos[0]), static_cast<float>(pos[1]),
            static_cast<float>(pos[2]), 0, 0, 0, 1.0f);
        p.u[idx] = 100.0f;
      }
    }
    SliceConfig config;
    config.z_lo = 0.0;
    config.z_hi = 2.0;
    config.resolution = 16;
    config.box = box;
    const auto slice = density_temperature_slice(comm, p, config);
    EXPECT_NEAR(slice.clumping, 1.0, 1e-6);
    EXPECT_NEAR(slice.density_variance, 0.0, 1e-6);
    EXPECT_GT(slice.t_median_K, 0.0);
  });
}

TEST(Slices, ClusteredFieldHasHighClumping) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    Particles p;
    // Everything in one corner cell.
    for (int i = 0; i < 100; ++i) {
      p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter, 0.1f,
                  0.1f, 0.5f, 0, 0, 0, 1.0f);
    }
    SliceConfig config;
    config.z_lo = 0.0;
    config.z_hi = 1.0;
    config.resolution = 8;
    config.box = 16.0;
    const auto slice = density_temperature_slice(comm, p, config);
    EXPECT_NEAR(slice.clumping, 64.0, 1e-6);  // all mass in 1 of 64 cells
  });
}

TEST(Slices, AsciiRenderProducesGrid) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    Particles p;
    for (int i = 0; i < 50; ++i) {
      p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                  static_cast<float>(0.2 * i), 5.0f, 0.5f, 0, 0, 0, 1.0f);
    }
    SliceConfig config;
    config.z_hi = 1.0;
    config.resolution = 16;
    config.box = 16.0;
    const auto slice = density_temperature_slice(comm, p, config);
    const auto text = render_density_ascii(slice, 16);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 16);
  });
}

}  // namespace
}  // namespace crkhacc::analysis
