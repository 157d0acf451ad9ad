// Cross-cutting property sweeps: the pairwise-solver invariants must hold
// for EVERY combination of tree granularity, warp width, and launch mode —
// these parameters tile the execution differently but must never change
// the physics.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/particles.h"
#include "gpu/device.h"
#include "gpu/warp.h"
#include "gravity/short_range.h"
#include "sph/solver.h"
#include "support/clustered_ic.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

namespace crkhacc {
namespace {

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

Particles random_gas(std::size_t n, double box, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = p.push_back(
        i, Species::kGas, static_cast<float>(rng.next_double() * box),
        static_cast<float>(rng.next_double() * box),
        static_cast<float>(rng.next_double() * box),
        static_cast<float>(20.0 * rng.next_gaussian()),
        static_cast<float>(20.0 * rng.next_gaussian()),
        static_cast<float>(20.0 * rng.next_gaussian()),
        static_cast<float>(0.5 + rng.next_double()));
    p.hsml[idx] = 0.8f;
    p.u[idx] = static_cast<float>(50.0 + 100.0 * rng.next_double());
  }
  return p;
}

// (leaf_size, warp_size, mode). On AVX2 builds the power-of-two warps
// take vector tiles in warp-split mode; warp 24 keeps scalar warp-split
// tiles running through both production solvers.
using SolverParams = std::tuple<std::uint32_t, std::uint32_t, gpu::LaunchMode>;

class SolverTilingTest : public ::testing::TestWithParam<SolverParams> {};

TEST_P(SolverTilingTest, GravityInvariantUnderExecutionTiling) {
  const auto [leaf_size, warp_size, mode] = GetParam();
  const double box = 6.0;
  auto p = random_gas(300, box, 31);

  // Reference: finest-grained naive execution.
  Particles reference = p;
  {
    tree::ChainingMesh mesh(cube(box), {2.0, 16});
    mesh.build(reference);
    gravity::GravityConfig config;
    config.launch.mode = gpu::LaunchMode::kNaive;
    gpu::FlopRegistry flops;
    gravity::compute_short_range(reference, mesh, nullptr, config, 1.0,
                                 nullptr, flops);
  }

  tree::ChainingMesh mesh(cube(box), {2.0, leaf_size});
  mesh.build(p);
  gravity::GravityConfig config;
  config.launch.warp_size = warp_size;
  config.launch.mode = mode;
  gpu::FlopRegistry flops;
  gravity::compute_short_range(p, mesh, nullptr, config, 1.0, nullptr, flops);

  for (std::size_t i = 0; i < p.size(); ++i) {
    const double scale = std::abs(reference.ax[i]) + 1e-2;
    ASSERT_NEAR(p.ax[i], reference.ax[i], 2e-3 * scale) << "particle " << i;
    ASSERT_NEAR(p.ay[i], reference.ay[i],
                2e-3 * (std::abs(reference.ay[i]) + 1e-2));
  }
}

TEST_P(SolverTilingTest, SphConservationInvariantUnderExecutionTiling) {
  const auto [leaf_size, warp_size, mode] = GetParam();
  const double box = 6.0;
  auto p = random_gas(300, box, 32);

  tree::ChainingMesh mesh(cube(box), {3.0, leaf_size});
  std::vector<std::uint32_t> gas(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    gas[i] = static_cast<std::uint32_t>(i);
  }
  mesh.build(p, gas);

  sph::SphConfig config;
  config.launch.warp_size = warp_size;
  config.launch.mode = mode;
  sph::SphSolver solver(config);
  gpu::FlopRegistry flops;
  solver.compute_forces(p, mesh, 1.0, nullptr, flops);

  // Momentum and energy-exchange conservation must hold for every tiling.
  double fx = 0.0, fy = 0.0, fz = 0.0, scale = 0.0;
  double dke = 0.0, dth = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double m = p.mass[i];
    fx += m * p.ax[i];
    fy += m * p.ay[i];
    fz += m * p.az[i];
    scale += std::abs(m * p.ax[i]);
    dke += m * (p.vx[i] * p.ax[i] + p.vy[i] * p.ay[i] + p.vz[i] * p.az[i]);
    dth += m * p.du[i];
  }
  EXPECT_LT(std::abs(fx), 2e-3 * std::max(scale, 1e-9));
  EXPECT_LT(std::abs(fy), 2e-3 * std::max(scale, 1e-9));
  EXPECT_LT(std::abs(fz), 2e-3 * std::max(scale, 1e-9));
  EXPECT_NEAR(dth, -dke, 2e-3 * (std::abs(dke) + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, SolverTilingTest,
    ::testing::Combine(::testing::Values(8u, 32u, 96u),
                       ::testing::Values(16u, 24u, 32u, 64u),
                       ::testing::Values(gpu::LaunchMode::kNaive,
                                         gpu::LaunchMode::kWarpSplit)),
    [](const ::testing::TestParamInfo<SolverParams>& info) {
      // NOTE: no structured bindings here — commas inside the binding
      // list would split the INSTANTIATE macro's arguments.
      return "leaf" + std::to_string(std::get<0>(info.param)) + "_warp" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == gpu::LaunchMode::kNaive
                  ? "_naive"
                  : "_warpsplit");
    });

// --- threaded sweep ----------------------------------------------------------
//
// The threading invariant must hold for every (problem size, thread
// count) combination: the pool only re-schedules fixed chunks, so the
// full short-range evaluation is bitwise identical to serial execution.

// (particle_count, threads, seed)
using ThreadedParams = std::tuple<std::size_t, unsigned, std::uint64_t>;

class ThreadedSweepTest : public ::testing::TestWithParam<ThreadedParams> {};

TEST_P(ThreadedSweepTest, ShortRangePipelineBitwiseEqualToSerial) {
  const auto [n, threads, seed] = GetParam();
  const double box = 6.0;
  const auto base = random_gas(n, box, seed);

  tree::ChainingMesh serial_mesh(cube(box), {2.0, 24});
  serial_mesh.build(base);

  util::ThreadPool pool(threads);
  tree::ChainingMesh threaded_mesh(cube(box), {2.0, 24});
  threaded_mesh.build(base, &pool);
  ASSERT_EQ(threaded_mesh.permutation(), serial_mesh.permutation());

  auto evaluate = [&](const tree::ChainingMesh& mesh,
                      util::ThreadPool* p_pool) {
    Particles p = base;
    gpu::FlopRegistry flops;
    gravity::compute_short_range(p, mesh, nullptr, gravity::GravityConfig{},
                                 1.0, nullptr, flops, nullptr, p_pool);
    sph::SphSolver solver(sph::SphConfig{});
    solver.compute_forces(p, mesh, 1.0, nullptr, flops, nullptr, p_pool);
    return p;
  };
  const Particles serial = evaluate(serial_mesh, nullptr);
  const Particles threaded = evaluate(threaded_mesh, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded.ax[i], serial.ax[i]) << "particle " << i;
    ASSERT_EQ(threaded.ay[i], serial.ay[i]) << "particle " << i;
    ASSERT_EQ(threaded.az[i], serial.az[i]) << "particle " << i;
    ASSERT_EQ(threaded.rho[i], serial.rho[i]) << "particle " << i;
    ASSERT_EQ(threaded.du[i], serial.du[i]) << "particle " << i;
  }
}

TEST_P(ThreadedSweepTest, ClusteredIcPipelineBitwiseEqualToSerial) {
  // Same invariant on the load-balancer's worst case: two Plummer
  // spheres pile most pair work into a few bins, producing leaf sizes
  // and tile shapes a uniform cloud never exercises.
  const auto [n, threads, seed] = GetParam();
  const double box = 12.0;
  testsupport::ClusteredIcConfig ic;
  ic.box = box;
  ic.count = n;
  ic.scale = 1.0;
  ic.seed = seed;
  ic.center_a = {3.0, 3.0, 6.0};
  ic.center_b = {9.0, 9.0, 6.0};
  ic.species = Species::kGas;
  const Particles base = testsupport::clustered_two_sphere_ic(ic);

  tree::ChainingMesh serial_mesh(cube(box), {2.0, 24});
  serial_mesh.build(base);
  util::ThreadPool pool(threads);
  tree::ChainingMesh threaded_mesh(cube(box), {2.0, 24});
  threaded_mesh.build(base, &pool);
  ASSERT_EQ(threaded_mesh.permutation(), serial_mesh.permutation());

  auto evaluate = [&](const tree::ChainingMesh& mesh,
                      util::ThreadPool* p_pool) {
    Particles p = base;
    gpu::FlopRegistry flops;
    gravity::GravityConfig gravity_config;
    gravity::compute_short_range(p, mesh, nullptr, gravity_config, 1.0,
                                 nullptr, flops, nullptr, p_pool);
    return p;
  };
  const Particles serial = evaluate(serial_mesh, nullptr);
  const Particles threaded = evaluate(threaded_mesh, &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded.ax[i], serial.ax[i]) << "particle " << i;
    ASSERT_EQ(threaded.ay[i], serial.ay[i]) << "particle " << i;
    ASSERT_EQ(threaded.az[i], serial.az[i]) << "particle " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threading, ThreadedSweepTest,
    ::testing::Combine(::testing::Values(std::size_t{37}, std::size_t{200},
                                         std::size_t{611}),
                       ::testing::Values(2u, 4u, 8u),
                       ::testing::Values(std::uint64_t{101},
                                         std::uint64_t{202})),
    [](const ::testing::TestParamInfo<ThreadedParams>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace crkhacc
