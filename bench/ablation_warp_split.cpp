// Ablation (Section IV-B2, Algorithm 1): warp splitting vs the naive
// leaf-pair execution, on the real physics kernels.
//
// google-benchmark timings for each short-range kernel under both launch
// modes, with counters for the quantities the paper's optimization
// targets: global loads, separable-partial evaluations, and register
// bytes per thread. The physics results of the two modes are identical
// (asserted in tests/test_gpu.cpp); this bench measures the cost side.
// Every kernel runs wrapped in gpu::ScalarTiles, so the warp-split rows
// count Algorithm 1 as written (scalar lanes), whichever tile engine the
// build would otherwise pick.
#include <benchmark/benchmark.h>

#include "core/particles.h"
#include "gpu/device.h"
#include "sph/eos.h"
#include "gpu/warp.h"
#include "gravity/short_range.h"
#include "mesh/force_split.h"
#include "sph/pair_kernels.h"
#include "sph/solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

using namespace crkhacc;

namespace {

constexpr double kBox = 8.0;
constexpr std::size_t kCount = 4000;

/// Shared fixture: a clustered gas cloud with valid densities and h.
struct Fixture {
  Particles particles;
  tree::ChainingMesh mesh;
  sph::SphScratch scratch;
  gpu::LaunchPlan plan;

  Fixture()
      : mesh(
            [] {
              comm::Box3 box;
              box.lo = {0, 0, 0};
              box.hi = {kBox, kBox, kBox};
              return box;
            }(),
            {2.0, 64}) {
    SplitMix64 rng(7);
    for (std::size_t i = 0; i < kCount; ++i) {
      // Half clustered, half uniform: realistic leaf occupancy spread.
      float x, y, z;
      if (i % 2) {
        x = static_cast<float>(4.0 + 0.8 * rng.next_gaussian());
        y = static_cast<float>(4.0 + 0.8 * rng.next_gaussian());
        z = static_cast<float>(4.0 + 0.8 * rng.next_gaussian());
        x = std::clamp(x, 0.01f, static_cast<float>(kBox) - 0.01f);
        y = std::clamp(y, 0.01f, static_cast<float>(kBox) - 0.01f);
        z = std::clamp(z, 0.01f, static_cast<float>(kBox) - 0.01f);
      } else {
        x = static_cast<float>(rng.next_double() * kBox);
        y = static_cast<float>(rng.next_double() * kBox);
        z = static_cast<float>(rng.next_double() * kBox);
      }
      const auto idx =
          particles.push_back(i, Species::kGas, x, y, z, 0, 0, 0, 0.5f);
      particles.hsml[idx] = 0.35f;
      particles.u[idx] = 50.0f;
      particles.rho[idx] = 8.0f;
    }
    mesh.build(particles);
    plan = gpu::LaunchPlan(mesh, mesh.interaction_pairs(0.8));
    scratch.resize(particles.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      scratch.volume[i] = particles.mass[i] / particles.rho[i];
      scratch.press[i] = sph::pressure(particles.rho[i], particles.u[i]);
      scratch.cs[i] = sph::sound_speed(particles.u[i]);
    }
  }
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void report(benchmark::State& state, const gpu::LaunchStats& stats,
            std::uint64_t iterations) {
  const double inv = 1.0 / static_cast<double>(iterations);
  state.counters["interactions"] =
      static_cast<double>(stats.interactions) * inv;
  state.counters["global_loads"] =
      static_cast<double>(stats.global_loads) * inv;
  state.counters["partial_evals"] =
      static_cast<double>(stats.partial_evals) * inv;
  state.counters["reg_bytes"] =
      static_cast<double>(stats.register_bytes_per_thread);
  state.counters["GFLOPs"] = benchmark::Counter(
      stats.flops * inv, benchmark::Counter::kIsRate,
      benchmark::Counter::kIs1000);
}

template <gpu::LaunchMode Mode>
void BM_Density(benchmark::State& state) {
  auto& f = fixture();
  sph::DensityKernel physics(f.particles, f.scratch, nullptr);
  gpu::ScalarTiles kernel(physics);
  gpu::LaunchStats total;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    const gpu::LaunchConfig config{
        .warp_size = static_cast<std::uint32_t>(state.range(0)), .mode = Mode};
    total += gpu::launch_pair_kernel(kernel, f.mesh, f.plan, config);
    ++iterations;
  }
  report(state, total, iterations);
}

template <gpu::LaunchMode Mode>
void BM_CrkMoments(benchmark::State& state) {
  auto& f = fixture();
  sph::CrkMomentKernel physics(f.particles, f.scratch, nullptr);
  gpu::ScalarTiles kernel(physics);
  gpu::LaunchStats total;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    const gpu::LaunchConfig config{
        .warp_size = static_cast<std::uint32_t>(state.range(0)), .mode = Mode};
    total += gpu::launch_pair_kernel(kernel, f.mesh, f.plan, config);
    ++iterations;
  }
  report(state, total, iterations);
}

template <gpu::LaunchMode Mode>
void BM_MomentumEnergy(benchmark::State& state) {
  auto& f = fixture();
  sph::MomentumEnergyKernel physics(f.particles, f.scratch, nullptr,
                                    sph::ViscosityParams{}, 1.0f);
  gpu::ScalarTiles kernel(physics);
  gpu::LaunchStats total;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    const gpu::LaunchConfig config{
        .warp_size = static_cast<std::uint32_t>(state.range(0)), .mode = Mode};
    total += gpu::launch_pair_kernel(kernel, f.mesh, f.plan, config);
    ++iterations;
  }
  report(state, total, iterations);
}

template <gpu::LaunchMode Mode>
void BM_Gravity(benchmark::State& state) {
  auto& f = fixture();
  static const mesh::ForceSplit split(0.15);
  gravity::ShortRangeKernel physics(f.particles, nullptr, &split, 43.0f,
                                    0.05f, 0.8f);
  gpu::ScalarTiles kernel(physics);
  gpu::LaunchStats total;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    const gpu::LaunchConfig config{
        .warp_size = static_cast<std::uint32_t>(state.range(0)), .mode = Mode};
    total += gpu::launch_pair_kernel(kernel, f.mesh, f.plan, config);
    ++iterations;
  }
  report(state, total, iterations);
}

}  // namespace

BENCHMARK_TEMPLATE(BM_Density, gpu::LaunchMode::kNaive)->Arg(64);
BENCHMARK_TEMPLATE(BM_Density, gpu::LaunchMode::kWarpSplit)->Arg(64)->Arg(32);
BENCHMARK_TEMPLATE(BM_CrkMoments, gpu::LaunchMode::kNaive)->Arg(64);
BENCHMARK_TEMPLATE(BM_CrkMoments, gpu::LaunchMode::kWarpSplit)->Arg(64)->Arg(32);
BENCHMARK_TEMPLATE(BM_MomentumEnergy, gpu::LaunchMode::kNaive)->Arg(64);
BENCHMARK_TEMPLATE(BM_MomentumEnergy, gpu::LaunchMode::kWarpSplit)
    ->Arg(64)
    ->Arg(32);
BENCHMARK_TEMPLATE(BM_Gravity, gpu::LaunchMode::kNaive)->Arg(64);
BENCHMARK_TEMPLATE(BM_Gravity, gpu::LaunchMode::kWarpSplit)->Arg(64)->Arg(32);
