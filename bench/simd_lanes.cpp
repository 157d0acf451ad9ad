// SIMD warp-lane gate: vector half-warp tiles vs the scalar tiles.
//
// The vector tile engine (gpu/warp_simd.h) maps the warp-split tile onto
// real vector lanes — modulo-replicated SoA lane buffers turn the
// per-step lane rotation into one unaligned load, and the whole
// half-warp row of partner interactions evaluates as a single masked
// vector op. Under the default SimdMath::kExact policy it is BITWISE
// identical to the scalar tiles, reached here through
// gpu::ScalarTiles<K>. This bench drives the real physics kernels
// (CRKSPH momentum/energy + short-range gravity, warp-split) and gates:
//
//   1. determinism — particle-state checksums of K as built equal the
//      serial ScalarTiles<K> baseline, across warp sizes and thread
//      counts (8-thread pool == serial == scalar);
//   2. fused-math accuracy — SimdMath::kFused gives up bitwise parity
//      for FMA, but its max error stays within a few ulps of each
//      field's accumulation scale;
//   3. speed — K vs ScalarTiles<K> wall time at 8 threads, plus the
//      projected dedicated-lane time (serial remainder + longest worker
//      lane on the thread CPU clock) for hosts whose workers share
//      fewer cores than threads.
//
// --quick shrinks the problem and gates only (1) and (2) — that variant
// runs as a ctest smoke target, so a vector-engine regression fails the
// build rather than the nightly. The full run also gates the >= 1.2x
// vector-vs-scalar pair-kernel speedup claim (wall or projected). A
// build without the AVX2 backend has no vector tiles and gates nothing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "core/particles.h"
#include "gpu/device.h"
#include "gpu/launch.h"
#include "gpu/simd.h"
#include "gpu/warp.h"
#include "gravity/short_range.h"
#include "mesh/force_split.h"
#include "sph/eos.h"
#include "sph/pair_kernels.h"
#include "sph/solver.h"
#include "tree/chaining_mesh.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace crkhacc;

namespace {

constexpr double kBox = 8.0;
constexpr float kCutoff = 0.8f;

/// Clustered gas cloud with valid densities and smoothing lengths — the
/// same population shape as bench/ablation_warp_split.
struct Fixture {
  Particles particles;
  tree::ChainingMesh mesh;
  sph::SphScratch scratch;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;

  explicit Fixture(std::size_t count)
      : mesh(
            [] {
              comm::Box3 box;
              box.lo = {0, 0, 0};
              box.hi = {kBox, kBox, kBox};
              return box;
            }(),
            {2.0, 64}) {
    SplitMix64 rng(7);
    for (std::size_t i = 0; i < count; ++i) {
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
    pairs = mesh.interaction_pairs(kCutoff);
    scratch.resize(particles.size());
    for (std::size_t i = 0; i < particles.size(); ++i) {
      scratch.volume[i] = particles.mass[i] / particles.rho[i];
      scratch.press[i] = sph::pressure(particles.rho[i], particles.u[i]);
      scratch.cs[i] = sph::sound_speed(particles.u[i]);
    }
  }
};

const mesh::ForceSplit& force_split() {
  static const mesh::ForceSplit split(0.15);
  return split;
}

/// Which tile engine a launch runs: the kernel as built (vector tiles
/// wherever LaunchConfig::vector_tiles() holds) or ScalarTiles<K>.
enum class Tiles { kAsBuilt, kScalar };

template <typename Kernel>
gpu::LaunchStats launch_on(Tiles tiles, Kernel& kernel, const Fixture& f,
                           const gpu::LaunchPlan& plan,
                           const gpu::LaunchConfig& config,
                           util::ThreadPool* pool) {
  if (tiles == Tiles::kScalar) {
    gpu::ScalarTiles<Kernel> scalar(kernel);
    return gpu::launch_pair_kernel(scalar, f.mesh, plan, config, pool);
  }
  return gpu::launch_pair_kernel(kernel, f.mesh, plan, config, pool);
}

struct RunResult {
  gpu::LaunchStats stats;      ///< both kernels, accumulated
  std::uint32_t checksum = 0;  ///< accumulated ax/ay/az/du
  std::vector<float> fields[4];  ///< ax, ay, az, du (for the ULP gate)
};

/// One full evaluation (momentum/energy + gravity) on fresh copies of the
/// particle state, so the accumulated result is comparable bitwise.
RunResult run_once(const Fixture& f, const gpu::LaunchPlan& plan,
                   Tiles tiles, const gpu::LaunchConfig& config,
                   util::ThreadPool* pool) {
  Particles p = f.particles;
  sph::SphScratch scratch = f.scratch;
  RunResult r;
  {
    sph::MomentumEnergyKernel kernel(p, scratch, nullptr,
                                     sph::ViscosityParams{}, 1.0f);
    r.stats += launch_on(tiles, kernel, f, plan, config, pool);
  }
  {
    gravity::ShortRangeKernel kernel(p, nullptr, &force_split(), 43.0f, 0.05f,
                                     kCutoff);
    r.stats += launch_on(tiles, kernel, f, plan, config, pool);
  }
  std::uint32_t crc = 0;
  crc = crc32(p.ax.data(), p.ax.size() * sizeof(float), crc);
  crc = crc32(p.ay.data(), p.ay.size() * sizeof(float), crc);
  crc = crc32(p.az.data(), p.az.size() * sizeof(float), crc);
  crc = crc32(p.du.data(), p.du.size() * sizeof(float), crc);
  r.checksum = crc;
  r.fields[0] = std::move(p.ax);
  r.fields[1] = std::move(p.ay);
  r.fields[2] = std::move(p.az);
  r.fields[3] = std::move(p.du);
  return r;
}

/// Max error between two runs, in ulps of each field's max magnitude
/// (see tests/test_simd.cpp for why pointwise ULP distance is the wrong
/// metric for cancellation-dominated accumulated sums).
double max_scale_ulp(const RunResult& a, const RunResult& b) {
  double worst = 0.0;
  for (int k = 0; k < 4; ++k) {
    float scale = 0.0f;
    for (std::size_t i = 0; i < a.fields[k].size(); ++i) {
      scale = std::max({scale, std::fabs(a.fields[k][i]),
                        std::fabs(b.fields[k][i])});
    }
    if (scale <= 0.0f) continue;
    const float ulp =
        std::nextafterf(scale, std::numeric_limits<float>::infinity()) - scale;
    for (std::size_t i = 0; i < a.fields[k].size(); ++i) {
      worst = std::max(
          worst, std::fabs(static_cast<double>(a.fields[k][i]) -
                           b.fields[k][i]) /
                     static_cast<double>(ulp));
    }
  }
  return worst;
}

struct TimedPoint {
  double wall = 0.0;           ///< summed launch wall seconds
  double region_wall = 0.0;    ///< pool wall time inside parallel regions
  double critical_path = 0.0;  ///< longest worker lane

  /// Dedicated-lane projection: the serial remainder plus the longest
  /// worker lane.
  double projected() const {
    return std::max(wall - region_wall, 0.0) + critical_path;
  }
};

/// The pair kernels timed individually. Gravity runs twice: pure
/// Newtonian, and with the force split's in-lane polynomial factor (the
/// launch every cosmological step makes).
enum class BenchKernel { kMomentum, kDensity, kGravity, kGravitySplit };

const char* kernel_name(BenchKernel k) {
  switch (k) {
    case BenchKernel::kMomentum: return "momentum";
    case BenchKernel::kDensity: return "density";
    case BenchKernel::kGravity: return "gravity";
    case BenchKernel::kGravitySplit: return "gravity+split";
  }
  return "?";
}

TimedPoint time_kernel(const Fixture& f, const gpu::LaunchPlan& plan,
                       BenchKernel which, Tiles tiles, util::ThreadPool& pool,
                       int reps) {
  const gpu::LaunchConfig config;
  TimedPoint point;
  // Timing reuses one particle copy across reps: the accumulators keep
  // growing, which changes no code path and nothing we time.
  Particles p = f.particles;
  sph::SphScratch scratch = f.scratch;
  sph::MomentumEnergyKernel momentum(p, scratch, nullptr,
                                     sph::ViscosityParams{}, 1.0f);
  sph::DensityKernel density(p, scratch, nullptr);
  gravity::ShortRangeKernel grav(p, nullptr, nullptr, 43.0f, 0.05f, kCutoff);
  gravity::ShortRangeKernel grav_split(p, nullptr, &force_split(), 43.0f,
                                       0.05f, kCutoff);
  pool.reset_stats();
  for (int rep = 0; rep < reps; ++rep) {
    gpu::LaunchStats s;
    switch (which) {
      case BenchKernel::kMomentum:
        s = launch_on(tiles, momentum, f, plan, config, &pool);
        break;
      case BenchKernel::kDensity:
        s = launch_on(tiles, density, f, plan, config, &pool);
        break;
      case BenchKernel::kGravity:
        s = launch_on(tiles, grav, f, plan, config, &pool);
        break;
      case BenchKernel::kGravitySplit:
        s = launch_on(tiles, grav_split, f, plan, config, &pool);
        break;
    }
    point.wall += s.seconds;
  }
  const auto& stats = pool.stats();
  point.region_wall = stats.wall_seconds;
  point.critical_path = stats.critical_path_seconds();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t count = quick ? 1500 : 4000;
  const int reps = quick ? 2 : 8;

  bench::print_header(
      std::string("SIMD warp-lane gate — vector tiles vs ScalarTiles") +
      (quick ? " (--quick)" : ""));
  const auto& simd = gpu::simd_support();
  if (!simd.available) {
    std::printf("this build has no AVX2 backend (isa: %s): every launch "
                "runs scalar tiles — nothing to gate\n", simd.isa);
    return 0;
  }
  Fixture f(count);
  const gpu::LaunchPlan plan(f.mesh, f.pairs);
  std::printf("isa %s (%d lanes), particles %zu, leaves %zu, pairs %zu, "
              "plan owners %zu (entries %zu)\n\n",
              simd.isa, simd.width, f.particles.size(), f.mesh.num_leaves(),
              f.pairs.size(), plan.num_owners(), plan.num_entries());

  util::ThreadPool pool(8);
  bool deterministic = true;

  // Gate 1: vector tiles bitwise identical to the serial ScalarTiles
  // baseline at the SAME warp size (the warp size fixes the tile
  // accumulation order for both engines), serial and at 8 threads.
  const auto scalar_serial =
      run_once(f, plan, Tiles::kScalar, gpu::LaunchConfig{}, nullptr);
  for (const std::uint32_t warp : {2u, 8u, 64u}) {
    const gpu::LaunchConfig config{.warp_size = warp};
    const auto scalar = run_once(f, plan, Tiles::kScalar, config, nullptr);
    const auto serial = run_once(f, plan, Tiles::kAsBuilt, config, nullptr);
    const auto threaded = run_once(f, plan, Tiles::kAsBuilt, config, &pool);
    const bool match = serial.checksum == scalar.checksum &&
                       threaded.checksum == scalar.checksum &&
                       serial.stats.interactions == scalar.stats.interactions;
    deterministic = deterministic && match;
    std::printf("determinism warp %-3u scalar %08x vs simd %08x (serial) / "
                "%08x (8 threads)  %s\n",
                warp, scalar.checksum, serial.checksum, threaded.checksum,
                match ? "OK" : "MISMATCH");
  }

  // Gate 2: fused math is not bitwise (FMA) but stays within a few ulps
  // of each field's accumulation scale — and is itself deterministic.
  const gpu::LaunchConfig fused_config{.simd_math = gpu::SimdMath::kFused};
  const auto fused_serial =
      run_once(f, plan, Tiles::kAsBuilt, fused_config, nullptr);
  const auto fused_threaded =
      run_once(f, plan, Tiles::kAsBuilt, fused_config, &pool);
  const double fused_ulp = max_scale_ulp(scalar_serial, fused_serial);
  const bool fused_deterministic =
      fused_serial.checksum == fused_threaded.checksum;
  constexpr double kFusedUlpGate = 16.0;
  const bool fused_ok = fused_ulp <= kFusedUlpGate && fused_deterministic;
  std::printf("\nfused math: max %.2f scale-ulp vs exact (gate %.0f), "
              "serial %08x vs 8-thread %08x  %s\n",
              fused_ulp, kFusedUlpGate, fused_serial.checksum,
              fused_threaded.checksum, fused_ok ? "OK" : "FAIL");

  // Gate 3: per-kernel wall time at 8 threads, ScalarTiles vs vector
  // tiles. Momentum, density and plain gravity carry the speedup gate;
  // the split-gravity row is reported beside them.
  std::printf("\n%-14s %-12s %-12s %-9s %-11s\n", "kernel",
              "scalar[s]", "simd[s]", "wall-x", "projected-x");
  bench::print_rule();
  double vector_speedup = 0.0;  // best of the gated kernels
  double split_speedup = 0.0;
  std::string per_kernel_json;
  for (const auto which :
       {BenchKernel::kMomentum, BenchKernel::kDensity, BenchKernel::kGravity,
        BenchKernel::kGravitySplit}) {
    const auto scalar_time =
        time_kernel(f, plan, which, Tiles::kScalar, pool, reps);
    const auto simd_time =
        time_kernel(f, plan, which, Tiles::kAsBuilt, pool, reps);
    const double wall_x =
        simd_time.wall > 0.0 ? scalar_time.wall / simd_time.wall : 1.0;
    const double proj_x = simd_time.projected() > 0.0
                              ? scalar_time.projected() / simd_time.projected()
                              : 1.0;
    std::printf("%-14s %-12.3f %-12.3f %-9.2f %-11.2f\n", kernel_name(which),
                scalar_time.wall, simd_time.wall, wall_x, proj_x);
    const double best = std::max(wall_x, proj_x);
    if (which == BenchKernel::kGravitySplit) {
      split_speedup = best;
    } else {
      vector_speedup = std::max(vector_speedup, best);
    }
    if (!per_kernel_json.empty()) per_kernel_json += ", ";
    per_kernel_json += std::string("\"") + kernel_name(which) +
                       "\": " + std::to_string(wall_x);
  }
  std::printf(
      "\n(single-core substitute machine: workers share one core, so the "
      "projection — serial remainder +\n longest worker lane on the thread "
      "CPU clock — is the dedicated-lane wall time.)\n");

  std::printf("\ngates: determinism %s, fused-ulp %s",
              deterministic ? "PASS" : "FAIL", fused_ok ? "PASS" : "FAIL");
  bool ok = deterministic && fused_ok;
  if (!quick) {
    const bool speed_ok = vector_speedup >= 1.2;
    std::printf(", vector-kernel speedup>=1.2x %s (best %.2fx)",
                speed_ok ? "PASS" : "FAIL", vector_speedup);
    ok = ok && speed_ok;
  }
  std::printf("\n");

  std::printf(
      "\nJSON: {\"bench\": \"simd_lanes\", \"quick\": %s, \"isa\": \"%s\", "
      "\"vector_speedup\": %.4f, \"split_speedup\": %.4f, "
      "\"wall_speedups\": {%s}, "
      "\"fused_max_scale_ulp\": %.4f, \"deterministic\": %s}\n",
      quick ? "true" : "false", simd.isa, vector_speedup, split_speedup,
      per_kernel_json.c_str(), fused_ulp,
      deterministic && fused_deterministic ? "true" : "false");
  return ok ? 0 : 1;
}
