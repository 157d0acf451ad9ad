// Tests for the device model and the warp-split launch drivers.
//
// The central properties: the naive and warp-split drivers produce the
// same physics for any kernel written against the concept, the warp-split
// driver performs measurably fewer global loads and partial evaluations —
// the exact claim of the paper's Algorithm 1 — and a threaded launch is
// bitwise identical to the serial launch, counters included, for any
// leaf/warp geometry.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/particles.h"
#include "gpu/device.h"
#include "gpu/launch.h"
#include "gpu/warp.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crkhacc::gpu {
namespace {

Particles random_particles(std::size_t n, double box, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, Species::kDarkMatter,
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box), 0, 0, 0,
                static_cast<float>(0.5 + rng.next_double()));
  }
  return p;
}

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

/// Test kernel with a separable structure: phi_i = sum_j m_i * m_j / (1 + r^2).
/// partial() computes the per-particle mass term once (f_i = g_i = m).
class SeparableKernel {
 public:
  static constexpr const char* kName = "test_separable";
  static constexpr double kFlopsPerInteraction = 10.0;
  static constexpr double kFlopsPerPartial = 2.0;

  struct State {
    float x, y, z, m;
  };
  struct Partial {
    float fm;  ///< 2 * m (any nontrivial separable term)
  };
  struct Accum {
    double phi = 0.0;
  };

  explicit SeparableKernel(const Particles& particles, std::vector<double>& out)
      : p_(particles), out_(out) {}

  State load(std::uint32_t i) const {
    return State{p_.x[i], p_.y[i], p_.z[i], p_.mass[i]};
  }
  Partial partial(const State& s) const { return Partial{2.0f * s.m}; }
  void interact(const State& self, const Partial& self_p, const State& other,
                const Partial& other_p, Accum& acc) const {
    const float dx = self.x - other.x;
    const float dy = self.y - other.y;
    const float dz = self.z - other.z;
    const float r2 = dx * dx + dy * dy + dz * dz;
    acc.phi += 0.25 * static_cast<double>(self_p.fm) *
               static_cast<double>(other_p.fm) / (1.0 + r2);
  }
  void store(std::uint32_t i, const Accum& acc) { out_[i] += acc.phi; }

 private:
  const Particles& p_;
  std::vector<double>& out_;
};

/// Brute-force reference for the separable kernel over all pairs within
/// the chaining mesh's neighbor reach (here: all pairs, small box).
std::vector<double> reference_phi(const Particles& p) {
  std::vector<double> phi(p.size(), 0.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (i == j) continue;
      const double dx = static_cast<double>(p.x[i]) - p.x[j];
      const double dy = static_cast<double>(p.y[i]) - p.y[j];
      const double dz = static_cast<double>(p.z[i]) - p.z[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      phi[i] += static_cast<double>(p.mass[i]) * p.mass[j] / (1.0 + r2);
    }
  }
  return phi;
}

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Launch the separable kernel and return the accumulated phi array.
std::vector<double> run_phi(const Particles& p, const tree::ChainingMesh& mesh,
                            const PairList& pairs, const LaunchConfig& config,
                            util::ThreadPool* pool = nullptr,
                            LaunchStats* stats_out = nullptr) {
  std::vector<double> phi(p.size(), 0.0);
  SeparableKernel kernel(p, phi);
  const auto stats =
      launch_pair_kernel(kernel, mesh, LaunchPlan(mesh, pairs), config, pool);
  if (stats_out) *stats_out = stats;
  return phi;
}

/// The edge-geometry contract: naive ≡ warp-split (to rounding) and, for
/// each mode, serial ≡ 8-thread, bitwise and on every LaunchStats counter
/// (both walk the same owner tasks).
void expect_all_drivers_agree(const Particles& p,
                              const tree::ChainingMesh& mesh,
                              const PairList& pairs,
                              std::uint32_t warp_size) {
  util::ThreadPool pool(8);
  std::vector<std::vector<double>> by_mode;
  for (const LaunchMode mode : {LaunchMode::kNaive, LaunchMode::kWarpSplit}) {
    const LaunchConfig config{.warp_size = warp_size, .mode = mode};
    LaunchStats serial_stats, threaded_stats;
    const auto serial = run_phi(p, mesh, pairs, config, nullptr, &serial_stats);
    EXPECT_EQ(run_phi(p, mesh, pairs, config, &pool, &threaded_stats), serial)
        << "8 threads diverged from serial, warp " << warp_size;
    EXPECT_EQ(threaded_stats.interactions, serial_stats.interactions);
    EXPECT_EQ(threaded_stats.global_loads, serial_stats.global_loads);
    EXPECT_EQ(threaded_stats.partial_evals, serial_stats.partial_evals);
    EXPECT_EQ(threaded_stats.stores, serial_stats.stores);
    EXPECT_EQ(threaded_stats.register_bytes_per_thread,
              serial_stats.register_bytes_per_thread);
    EXPECT_EQ(threaded_stats.flops, serial_stats.flops);
    by_mode.push_back(serial);
  }
  ASSERT_EQ(by_mode.size(), 2u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(by_mode[1][i], by_mode[0][i],
                1e-9 + 1e-5 * std::abs(by_mode[0][i]))
        << "naive vs warp-split at particle " << i;
  }
}

class WarpDriverTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WarpDriverTest, WarpSplitMatchesNaiveAndReference) {
  const std::uint32_t warp_size = GetParam();
  // Single CM bin -> all leaf pairs interact: full N^2 comparison.
  const auto p = random_particles(150, 1.0, 42);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 16});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);

  LaunchStats naive_stats, split_stats;
  const auto naive_phi =
      run_phi(p, mesh, pairs,
              LaunchConfig{.warp_size = warp_size, .mode = LaunchMode::kNaive},
              nullptr, &naive_stats);
  const auto split_phi = run_phi(
      p, mesh, pairs,
      LaunchConfig{.warp_size = warp_size, .mode = LaunchMode::kWarpSplit},
      nullptr, &split_stats);

  const auto expected = reference_phi(p);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(naive_phi[i], expected[i], 1e-5 * std::abs(expected[i]));
    EXPECT_NEAR(split_phi[i], expected[i], 1e-5 * std::abs(expected[i]));
  }
  // Identical pair coverage.
  EXPECT_EQ(naive_stats.interactions, split_stats.interactions);
  EXPECT_EQ(naive_stats.interactions, 150u * 149u);
}

TEST_P(WarpDriverTest, WarpSplitReducesMemoryTraffic) {
  const std::uint32_t warp_size = GetParam();
  const auto p = random_particles(400, 1.0, 7);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 32});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);

  LaunchStats naive, split;
  run_phi(p, mesh, pairs,
          LaunchConfig{.warp_size = warp_size, .mode = LaunchMode::kNaive},
          nullptr, &naive);
  run_phi(p, mesh, pairs,
          LaunchConfig{.warp_size = warp_size, .mode = LaunchMode::kWarpSplit},
          nullptr, &split);
  // The whole point of Algorithm 1: far fewer loads and partials (the
  // reduction factor approaches the half-warp width W for full tiles).
  EXPECT_LT(split.global_loads * 2, naive.global_loads);
  EXPECT_LT(split.partial_evals * 2, naive.partial_evals);
  EXPECT_LT(split.register_bytes_per_thread, naive.register_bytes_per_thread);
  // FLOP accounting reflects the shared partials.
  EXPECT_LT(split.flops, naive.flops);
}

TEST_P(WarpDriverTest, ParallelSchedulesBitwiseIdenticalToSerial) {
  const std::uint32_t warp_size = GetParam();
  const auto p = random_particles(300, 1.0, 99);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 24});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  expect_all_drivers_agree(p, mesh, pairs, warp_size);
}

INSTANTIATE_TEST_SUITE_P(WarpSizes, WarpDriverTest,
                         ::testing::Values(8u, 16u, 32u, 64u));

TEST(WarpDriver, RaggedLeavesHandled) {
  // 13 particles in a tiny leaf-size mesh: chunks are ragged everywhere.
  const auto p = random_particles(13, 1.0, 3);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 4});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  const auto naive_phi = run_phi(
      p, mesh, pairs, LaunchConfig{.mode = LaunchMode::kNaive});
  const auto split_phi = run_phi(
      p, mesh, pairs, LaunchConfig{.mode = LaunchMode::kWarpSplit});
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(split_phi[i], naive_phi[i],
                1e-9 + 1e-5 * std::abs(naive_phi[i]));
  }
}

TEST(WarpDriver, SinglePairNoSelfInteraction) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 0.1f, 0.1f, 0.1f, 0, 0, 0, 2.0f);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 8});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  LaunchStats stats;
  const auto phi = run_phi(p, mesh, pairs, LaunchConfig{}, nullptr, &stats);
  EXPECT_EQ(stats.interactions, 0u);
  EXPECT_DOUBLE_EQ(phi[0], 0.0);
}

// --- scheduler edge geometries ----------------------------------------------

TEST(SchedulerGeometry, LeavesSmallerThanHalfWarp) {
  // leaf_size 4 with a 64-lane warp: every tile is ragged (n < W = 32).
  const auto p = random_particles(120, 1.0, 11);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 4});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  expect_all_drivers_agree(p, mesh, pairs, 64);
}

TEST(SchedulerGeometry, WarpSizeNotPowerOfTwo) {
  const auto p = random_particles(160, 1.0, 13);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 16});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  for (const std::uint32_t warp_size : {3u, 6u, 10u, 24u}) {
    expect_all_drivers_agree(p, mesh, pairs, warp_size);
  }
}

TEST(SchedulerGeometry, EmptyPairList) {
  const auto p = random_particles(32, 1.0, 17);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 16});
  mesh.build(p);
  const PairList no_pairs;
  util::ThreadPool pool(8);
  LaunchStats stats;
  const auto phi = run_phi(p, mesh, no_pairs, LaunchConfig{}, &pool, &stats);
  EXPECT_EQ(stats.interactions, 0u);
  EXPECT_EQ(stats.stores, 0u);
  for (const double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SchedulerGeometry, SingleLeafSelfInteraction) {
  // leaf_size >= n keeps all particles in one leaf: the plan degenerates
  // to a single owner with one both-sides entry (no parallelism to find,
  // but the result must still be exact).
  const auto p = random_particles(90, 1.0, 19);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 128});
  mesh.build(p);
  ASSERT_EQ(mesh.num_leaves(), 1u);
  const auto pairs = mesh.interaction_pairs(10.0);
  ASSERT_EQ(pairs.size(), 1u);
  expect_all_drivers_agree(p, mesh, pairs, 64);

  const LaunchPlan plan(mesh, pairs);
  EXPECT_EQ(plan.num_owners(), 1u);
  ASSERT_EQ(plan.entries(0).size(), 1u);
  EXPECT_EQ(plan.entries(0)[0].side, LaunchPlan::Side::kBoth);
}

// --- periodic image partners ------------------------------------------------

/// A periodic mesh whose pair list names image partners: two bins per
/// side, so the stencil wraps and most cross pairs are images.
struct PeriodicCase {
  Particles p;
  tree::ChainingMesh mesh;
  PairList pairs;

  PeriodicCase(std::size_t n, std::uint32_t leaf_size, std::uint64_t seed)
      : p(random_particles(n, 4.0, seed)),
        mesh(cube(4.0), {2.0, leaf_size, /*periodic=*/true}) {
    mesh.build(p);
    pairs = mesh.interaction_pairs(2.0);
  }

  std::size_t image_pairs() const {
    std::size_t n = 0;
    for (const auto& pair : pairs) n += pair.second >= mesh.num_leaves();
    return n;
  }
};

TEST_P(WarpDriverTest, PeriodicImagePartnersBitwiseAcrossThreads) {
  const PeriodicCase c(300, 16, 101);
  ASSERT_GT(c.image_pairs(), 0u);
  expect_all_drivers_agree(c.p, c.mesh, c.pairs, GetParam());
}

TEST(SchedulerGeometry, PeriodicImagePartnersOnRaggedAndOddWarps) {
  // Tiny leaves (every tile ragged) and non-power-of-two warps (scalar
  // tiles) over image partners, self-image pairs included.
  const PeriodicCase c(120, 4, 103);
  ASSERT_GT(c.image_pairs(), 0u);
  for (const std::uint32_t warp_size : {3u, 10u, 64u}) {
    expect_all_drivers_agree(c.p, c.mesh, c.pairs, warp_size);
  }
}

TEST(LaunchPlan, ImagePartnersGetMirroredJSideEntries) {
  const PeriodicCase c(200, 16, 105);
  ASSERT_GT(c.image_pairs(), 0u);
  const LaunchPlan plan(c.mesh, c.pairs);
  // (A, B + s): i-side on A with partner B + s, j-side on B with partner
  // A - s, in pair order per owner.
  std::vector<std::vector<LaunchPlan::Entry>> expected(c.mesh.num_leaves());
  for (const auto& [la, lb] : c.pairs) {
    if (la == lb) {
      expected[la].push_back({lb, LaunchPlan::Side::kBoth});
    } else {
      expected[la].push_back({lb, LaunchPlan::Side::kISide});
      expected[c.mesh.base_leaf(lb)].push_back(
          {c.mesh.mirror(la, lb), LaunchPlan::Side::kJSide});
    }
  }
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    const std::uint32_t owner = plan.owner(t);
    const auto entries = plan.entries(t);
    ASSERT_EQ(entries.size(), expected[owner].size()) << "owner " << owner;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      EXPECT_EQ(entries[e].partner, expected[owner][e].partner);
      EXPECT_EQ(entries[e].side, expected[owner][e].side);
      // Entries of an owner never name the owner's own unshifted leaf
      // except as a both-sides self pair.
      if (entries[e].side != LaunchPlan::Side::kBoth) {
        EXPECT_NE(entries[e].partner, owner);
      }
    }
    expected[owner].clear();
  }
  for (const auto& rest : expected) EXPECT_TRUE(rest.empty());
}

// --- launch plan -------------------------------------------------------------

TEST(LaunchPlan, OwnerEntriesOrderedByPairIndex) {
  const auto p = random_particles(200, 1.0, 23);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 16});
  mesh.build(p);
  const auto pairs = mesh.interaction_pairs(10.0);
  ASSERT_GT(pairs.size(), 4u);
  const LaunchPlan plan(mesh, pairs);

  // Every pair contributes one entry per owner leaf.
  std::size_t cross = 0;
  for (const auto& [la, lb] : pairs) cross += (la != lb) ? 1 : 0;
  EXPECT_EQ(plan.num_entries(), pairs.size() + cross);

  // Reconstruct the expected per-owner entry sequences by walking the
  // pair list in order — the plan must match exactly.
  std::vector<std::vector<LaunchPlan::Entry>> expected(mesh.num_leaves());
  for (const auto& [la, lb] : pairs) {
    if (la == lb) {
      expected[la].push_back({lb, LaunchPlan::Side::kBoth});
    } else {
      expected[la].push_back({lb, LaunchPlan::Side::kISide});
      expected[lb].push_back({la, LaunchPlan::Side::kJSide});
    }
  }
  std::uint32_t prev_owner = 0;
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    const std::uint32_t owner = plan.owner(t);
    if (t > 0) {
      EXPECT_GT(owner, prev_owner) << "owners not ascending";
    }
    prev_owner = owner;
    const auto entries = plan.entries(t);
    ASSERT_EQ(entries.size(), expected[owner].size()) << "owner " << owner;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      EXPECT_EQ(entries[e].partner, expected[owner][e].partner);
      EXPECT_EQ(entries[e].side, expected[owner][e].side);
    }
    expected[owner].clear();
  }
  for (const auto& rest : expected) {
    EXPECT_TRUE(rest.empty()) << "leaf with work missing from the plan";
  }
}

// --- launch config validation ------------------------------------------------

TEST(LaunchConfigValidation, RejectsDegenerateWarpSize) {
  LaunchConfig config;
  EXPECT_EQ(config.invalid_reason(), nullptr);
  config.warp_size = 2;
  EXPECT_EQ(config.invalid_reason(), nullptr);
  config.warp_size = 1;
  EXPECT_NE(config.invalid_reason(), nullptr);
  config.warp_size = 0;
  EXPECT_NE(config.invalid_reason(), nullptr);
}

TEST(LaunchConfigDeathTest, LaunchAbortsOnInvalidConfig) {
  const auto p = random_particles(16, 1.0, 31);
  tree::ChainingMesh mesh(cube(1.0), {2.0, 8});
  mesh.build(p);
  const LaunchPlan plan(mesh, mesh.interaction_pairs(10.0));
  std::vector<double> phi(p.size(), 0.0);
  SeparableKernel kernel(p, phi);
  EXPECT_DEATH(
      launch_pair_kernel(kernel, mesh, plan, LaunchConfig{.warp_size = 1}),
      "warp_size");
}

// --- launch stats ------------------------------------------------------------

TEST(LaunchStatsTest, MergePolicies) {
  LaunchStats a;
  a.interactions = 10;
  a.global_loads = 20;
  a.partial_evals = 30;
  a.stores = 40;
  a.flops = 100.0;
  a.seconds = 1.0;
  a.register_bytes_per_thread = 64;
  LaunchStats b;
  b.interactions = 1;
  b.global_loads = 2;
  b.partial_evals = 3;
  b.stores = 4;
  b.flops = 50.0;
  b.seconds = 2.0;
  b.register_bytes_per_thread = 128;

  // Back-to-back launches sum the counters and timings; the working set
  // is a per-thread high-watermark, so it takes the max.
  a += b;
  EXPECT_EQ(a.interactions, 11u);
  EXPECT_EQ(a.global_loads, 22u);
  EXPECT_EQ(a.partial_evals, 33u);
  EXPECT_EQ(a.stores, 44u);
  EXPECT_DOUBLE_EQ(a.seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.flops, 150.0);
  EXPECT_EQ(a.register_bytes_per_thread, 128u);
}

// --- device model ------------------------------------------------------------

TEST(DeviceModel, TableOneSpecs) {
  const auto& devices = known_devices();
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_NEAR(devices[0].peak_fp32_tflops, 23.9, 1e-9);  // MI250X GCD
  EXPECT_EQ(devices[0].warp_size, 64);
  EXPECT_NEAR(devices[1].peak_fp32_tflops, 22.5, 1e-9);  // PVC tile
  EXPECT_NEAR(devices[2].peak_fp32_tflops, 66.9, 1e-9);  // H100
  EXPECT_EQ(devices[2].warp_size, 32);
}

TEST(DeviceModel, HostPeakPositiveAndCached) {
  const double peak1 = host_peak_gflops();
  EXPECT_GT(peak1, 0.1);
  EXPECT_DOUBLE_EQ(host_peak_gflops(), peak1);
}

TEST(FlopRegistry, AccumulatesAndTracksPeak) {
  FlopRegistry registry;
  registry.add("slow", 1e6, 1.0);    // 1e-3 GFLOP/s
  registry.add("fast", 4e9, 1.0);    // 4 GFLOP/s
  registry.add("fast", 4e9, 1.0);
  EXPECT_DOUBLE_EQ(registry.total_flops(), 1e6 + 8e9);
  EXPECT_DOUBLE_EQ(registry.flops_of("fast"), 8e9);
  EXPECT_EQ(registry.peak_kernel(), "fast");
  EXPECT_NEAR(registry.peak_gflops(), 4.0, 1e-9);
  EXPECT_NEAR(registry.sustained_gflops(), (1e6 + 8e9) / 3.0 / 1e9, 1e-9);
}

TEST(FlopRegistry, MergeCombines) {
  FlopRegistry a, b;
  a.add("k", 100.0, 1.0);
  b.add("k", 200.0, 2.0);
  b.add("other", 50.0, 0.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.flops_of("k"), 300.0);
  EXPECT_DOUBLE_EQ(a.flops_of("other"), 50.0);
}

TEST(FlopRegistry, SortedByFlops) {
  FlopRegistry registry;
  registry.add("minor", 1.0, 1.0);
  registry.add("major", 100.0, 1.0);
  const auto sorted = registry.sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(std::get<0>(sorted[0]), "major");
}

}  // namespace
}  // namespace crkhacc::gpu
