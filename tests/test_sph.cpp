// Tests for the CRKSPH hydrodynamics stack: kernels, CRK corrections,
// and the solver's conservation properties.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>

#include "comm/decomposition.h"
#include "core/particles.h"
#include "gpu/device.h"
#include "sph/crk.h"
#include "sph/eos.h"
#include "sph/kernel.h"
#include "sph/solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

namespace crkhacc::sph {
namespace {

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

// --- smoothing kernels --------------------------------------------------------

template <typename Kernel>
double kernel_volume_integral(float h) {
  // 4 pi int_0^{2h} W(r) r^2 dr by trapezoid.
  const int n = 4000;
  const double r_max = Kernel::kSupport * h;
  const double dr = r_max / n;
  double sum = 0.0;
  for (int i = 0; i <= n; ++i) {
    const double r = i * dr;
    const double w = Kernel::w(static_cast<float>(r), h);
    const double val = w * r * r;
    sum += (i == 0 || i == n) ? 0.5 * val : val;
  }
  return 4.0 * std::numbers::pi * sum * dr;
}

TEST(CubicSpline, NormalizedToUnity) {
  for (float h : {0.5f, 1.0f, 2.0f}) {
    EXPECT_NEAR(kernel_volume_integral<CubicSpline>(h), 1.0, 1e-3);
  }
}

TEST(WendlandC4, NormalizedToUnity) {
  for (float h : {0.5f, 1.0f, 2.0f}) {
    EXPECT_NEAR(kernel_volume_integral<WendlandC4>(h), 1.0, 1e-3);
  }
}

TEST(CubicSpline, CompactSupportAndPositivity) {
  EXPECT_GT(CubicSpline::w(0.0f, 1.0f), 0.0f);
  EXPECT_GT(CubicSpline::w(1.5f, 1.0f), 0.0f);
  EXPECT_EQ(CubicSpline::w(2.0f, 1.0f), 0.0f);
  EXPECT_EQ(CubicSpline::w(5.0f, 1.0f), 0.0f);
}

TEST(CubicSpline, GradientMatchesFiniteDifference) {
  const float h = 1.3f;
  for (float r : {0.2f, 0.7f, 1.1f, 1.8f}) {
    const float eps = 1e-3f;
    const float fd = (CubicSpline::w(r + eps, h) - CubicSpline::w(r - eps, h)) /
                     (2.0f * eps);
    EXPECT_NEAR(CubicSpline::dw_dr(r, h), fd, 2e-3 * std::abs(fd) + 1e-5);
  }
}

TEST(WendlandC4, GradientMatchesFiniteDifference) {
  const float h = 0.9f;
  for (float r : {0.1f, 0.5f, 1.0f, 1.6f}) {
    const float eps = 1e-3f;
    const float fd = (WendlandC4::w(r + eps, h) - WendlandC4::w(r - eps, h)) /
                     (2.0f * eps);
    EXPECT_NEAR(WendlandC4::dw_dr(r, h), fd, 2e-3 * std::abs(fd) + 1e-5);
  }
}

TEST(CubicSpline, GradientNonPositive) {
  for (float r = 0.05f; r < 2.0f; r += 0.05f) {
    EXPECT_LE(CubicSpline::dw_dr(r, 1.0f), 0.0f);
  }
}

// --- EOS --------------------------------------------------------------------

TEST(Eos, IdealGasRelations) {
  const float rho = 2.0f, u = 100.0f;
  EXPECT_NEAR(pressure(rho, u), (5.0 / 3.0 - 1.0) * rho * u, 1e-4);
  const float cs = sound_speed(u);
  EXPECT_NEAR(cs * cs, (5.0 / 3.0) * (5.0 / 3.0 - 1.0) * u, 1e-3);
  EXPECT_EQ(sound_speed(0.0f), 0.0f);
}

// --- CRK corrections ------------------------------------------------------------

/// Build a uniform glass-like lattice of gas particles.
Particles gas_lattice(std::size_t n_per_dim, double box, float jitter,
                      std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  const double cell = box / static_cast<double>(n_per_dim);
  const float mass = 1.0f;
  std::uint64_t id = 0;
  for (std::size_t iz = 0; iz < n_per_dim; ++iz) {
    for (std::size_t iy = 0; iy < n_per_dim; ++iy) {
      for (std::size_t ix = 0; ix < n_per_dim; ++ix) {
        const float x = static_cast<float>(
            (ix + 0.5) * cell + jitter * cell * (rng.next_double() - 0.5));
        const float y = static_cast<float>(
            (iy + 0.5) * cell + jitter * cell * (rng.next_double() - 0.5));
        const float z = static_cast<float>(
            (iz + 0.5) * cell + jitter * cell * (rng.next_double() - 0.5));
        const std::size_t i =
            p.push_back(id++, Species::kGas, x, y, z, 0, 0, 0, mass);
        p.hsml[i] = static_cast<float>(1.4 * cell);
        p.u[i] = 100.0f;
      }
    }
  }
  return p;
}

TEST(CrkSolve, DegenerateMomentsFallBack) {
  CrkMoments m;  // all zero
  const auto c = solve_crk(m);
  EXPECT_FLOAT_EQ(c.a, 1.0f);
  EXPECT_FLOAT_EQ(c.b[0], 0.0f);

  m.m0 = 2.0f;  // singular m2 but positive m0
  const auto c2 = solve_crk(m);
  EXPECT_FLOAT_EQ(c2.a, 0.5f);
}

TEST(CrkSolve, IsotropicNeighborhoodGivesSmallB) {
  // Symmetric m1 ~ 0 neighborhood: B ~ 0, A ~ 1/m0.
  CrkMoments m;
  m.m0 = 1.2f;
  m.m2 = {0.3f, 0.3f, 0.3f, 0.0f, 0.0f, 0.0f};
  const auto c = solve_crk(m);
  EXPECT_NEAR(c.a, 1.0f / 1.2f, 1e-5);
  EXPECT_NEAR(c.b[0], 0.0f, 1e-6);
}

TEST(CrkSolve, ReproducesConstantAndLinearFieldsOnJitteredLattice) {
  // The defining CRKSPH property: with A, B from the moments, the
  // corrected interpolant sums to 1 and reproduces linear fields even on
  // a disordered particle arrangement (interior particles).
  const std::size_t n = 8;
  const double box = 8.0;
  auto p = gas_lattice(n, box, 0.4f, 17);
  const float h = p.hsml[0];

  // Volumes: uniform lattice -> V = cell^3 (mass/mean density).
  const float volume = static_cast<float>(std::pow(box / n, 3.0));

  // Pick an interior particle and accumulate its moments directly.
  std::size_t center = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (std::abs(p.x[i] - 4.0f) < 0.5f && std::abs(p.y[i] - 4.0f) < 0.5f &&
        std::abs(p.z[i] - 4.0f) < 0.5f) {
      center = i;
      break;
    }
  }
  CrkMoments moments;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const float dx = p.x[j] - p.x[center];
    const float dy = p.y[j] - p.y[center];
    const float dz = p.z[j] - p.z[center];
    const float r = std::sqrt(dx * dx + dy * dy + dz * dz);
    const float vw = volume * CubicSpline::w(r, h);
    if (vw == 0.0f) continue;
    moments.m0 += vw;
    moments.m1[0] += vw * dx;
    moments.m1[1] += vw * dy;
    moments.m1[2] += vw * dz;
    moments.m2[0] += vw * dx * dx;
    moments.m2[1] += vw * dy * dy;
    moments.m2[2] += vw * dz * dz;
    moments.m2[3] += vw * dx * dy;
    moments.m2[4] += vw * dx * dz;
    moments.m2[5] += vw * dy * dz;
  }
  const auto coeff = solve_crk(moments);

  // Interpolate f(x) = 3 + 2x - y at the center particle.
  auto field = [](float x, float y, float) { return 3.0f + 2.0f * x - y; };
  double corrected_sum = 0.0, uncorrected_sum = 0.0;
  double interpolated = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const std::array<float, 3> d{p.x[center] - p.x[j], p.y[center] - p.y[j],
                                 p.z[center] - p.z[j]};
    const float r = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
    const float w = CubicSpline::w(r, h);
    if (w == 0.0f) continue;
    const float wr = corrected_w(coeff, w, d);
    corrected_sum += volume * wr;
    uncorrected_sum += volume * w;
    interpolated += volume * wr * field(p.x[j], p.y[j], p.z[j]);
  }
  // Partition of unity: corrected is exact, uncorrected is not.
  EXPECT_NEAR(corrected_sum, 1.0, 1e-4);
  EXPECT_GT(std::abs(uncorrected_sum - 1.0), 1e-3);
  // Linear reproduction.
  const double expected = field(p.x[center], p.y[center], p.z[center]);
  EXPECT_NEAR(interpolated, expected, 5e-3 * std::abs(expected));
}

// --- solver-level conservation ----------------------------------------------------

struct SolverSetup {
  Particles particles;
  tree::ChainingMesh mesh;
  SphSolver solver;
  gpu::FlopRegistry flops;

  explicit SolverSetup(Particles p, const SphConfig& config, double box)
      : particles(std::move(p)), mesh(cube(box), {box / 2.0, 32}),
        solver(config) {
    std::vector<std::uint32_t> gas;
    for (std::size_t i = 0; i < particles.size(); ++i) {
      if (particles.is_gas(i)) gas.push_back(static_cast<std::uint32_t>(i));
    }
    mesh.build(particles, gas);
  }

  void evaluate(double a = 1.0, util::ThreadPool* pool = nullptr) {
    particles.clear_scratch();
    solver.compute_forces(particles, mesh, a, nullptr, flops, nullptr, pool);
  }
};

TEST(SphSolver, DensityOnUniformLatticeMatchesMean) {
  const std::size_t n = 8;
  const double box = 8.0;
  SolverSetup setup(gas_lattice(n, box, 0.0f, 1), SphConfig{}, box);
  setup.evaluate();
  const double mean_density = static_cast<double>(n * n * n) / (box * box * box);
  // Interior particles (away from the non-periodic domain edge).
  int checked = 0;
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    const bool interior = setup.particles.x[i] > 2.5f && setup.particles.x[i] < 5.5f &&
                          setup.particles.y[i] > 2.5f && setup.particles.y[i] < 5.5f &&
                          setup.particles.z[i] > 2.5f && setup.particles.z[i] < 5.5f;
    if (!interior) continue;
    ++checked;
    EXPECT_NEAR(setup.particles.rho[i], mean_density, 0.05 * mean_density);
  }
  EXPECT_GT(checked, 0);
}

TEST(SphSolver, UniformPressureGivesNearZeroForces) {
  const std::size_t n = 8;
  const double box = 8.0;
  SolverSetup setup(gas_lattice(n, box, 0.0f, 2), SphConfig{}, box);
  setup.evaluate();
  // Interior accelerations should be tiny compared to the natural scale
  // c_s^2 / cell.
  const double scale = (5.0 / 3.0) * (2.0 / 3.0) * 100.0 / 1.0;
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    const bool interior = setup.particles.x[i] > 2.5f && setup.particles.x[i] < 5.5f &&
                          setup.particles.y[i] > 2.5f && setup.particles.y[i] < 5.5f &&
                          setup.particles.z[i] > 2.5f && setup.particles.z[i] < 5.5f;
    if (!interior) continue;
    EXPECT_LT(std::abs(setup.particles.ax[i]), 0.05 * scale);
  }
}

TEST(SphSolver, ConservesMomentumAndEnergyInBlastConfiguration) {
  // Central hot region: strong pressure gradients, viscosity active.
  const std::size_t n = 10;
  const double box = 10.0;
  auto p = gas_lattice(n, box, 0.2f, 3);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const float dx = p.x[i] - 5.0f, dy = p.y[i] - 5.0f, dz = p.z[i] - 5.0f;
    if (dx * dx + dy * dy + dz * dz < 2.25f) p.u[i] = 5000.0f;
    // Random velocities so viscosity terms are exercised.
    p.vx[i] = static_cast<float>(10.0 * std::sin(0.7 * i));
    p.vy[i] = static_cast<float>(10.0 * std::cos(1.3 * i));
  }
  SolverSetup setup(std::move(p), SphConfig{}, box);
  setup.evaluate();

  double fx = 0.0, fy = 0.0, fz = 0.0;         // total force
  double dke = 0.0, dth = 0.0;                 // energy rates
  const auto& q = setup.particles;
  for (std::size_t i = 0; i < q.size(); ++i) {
    fx += static_cast<double>(q.mass[i]) * q.ax[i];
    fy += static_cast<double>(q.mass[i]) * q.ay[i];
    fz += static_cast<double>(q.mass[i]) * q.az[i];
    dke += static_cast<double>(q.mass[i]) *
           (q.vx[i] * q.ax[i] + q.vy[i] * q.ay[i] + q.vz[i] * q.az[i]);
    dth += static_cast<double>(q.mass[i]) * q.du[i];
  }
  // Pairwise antisymmetry: total momentum change vanishes.
  double force_scale = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    force_scale += std::abs(static_cast<double>(q.mass[i]) * q.ax[i]);
  }
  EXPECT_LT(std::abs(fx), 1e-3 * force_scale);
  EXPECT_LT(std::abs(fy), 1e-3 * force_scale);
  EXPECT_LT(std::abs(fz), 1e-3 * force_scale);
  // Work-sharing: thermal rate balances kinetic rate.
  EXPECT_NEAR(dth, -dke, 1e-3 * std::abs(dke));
}

TEST(SphSolver, ThreadedMultiStepConservationMatchesSerial) {
  // Conservation regression for the threaded sweeps: integrate the blast
  // configuration for several explicit steps with 1 and 4 worker threads.
  // Drift must stay within the serial tolerances — and because the
  // threaded path is bitwise deterministic, the two trajectories must in
  // fact agree exactly.
  auto integrate = [](unsigned threads) {
    const std::size_t n = 8;
    const double box = 8.0;
    auto p = gas_lattice(n, box, 0.2f, 3);
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float dx = p.x[i] - 4.0f, dy = p.y[i] - 4.0f, dz = p.z[i] - 4.0f;
      if (dx * dx + dy * dy + dz * dz < 2.25f) p.u[i] = 5000.0f;
    }
    SolverSetup setup(std::move(p), SphConfig{}, box);
    util::ThreadPool pool(threads);
    const float dt = 5e-5f;
    for (int s = 0; s < 5; ++s) {
      setup.evaluate(1.0, &pool);
      auto& q = setup.particles;
      for (std::size_t i = 0; i < q.size(); ++i) {
        q.vx[i] += dt * q.ax[i];
        q.vy[i] += dt * q.ay[i];
        q.vz[i] += dt * q.az[i];
        q.u[i] = std::max(q.u[i] + dt * q.du[i], 0.0f);
        q.x[i] += dt * q.vx[i];
        q.y[i] += dt * q.vy[i];
        q.z[i] += dt * q.vz[i];
      }
      setup.mesh.refit_bounds(setup.particles, &pool);
    }
    return setup.particles;
  };

  auto totals = [](const Particles& q) {
    double mass = 0.0, px = 0.0, py = 0.0, pz = 0.0, e = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const double m = q.mass[i];
      mass += m;
      px += m * q.vx[i];
      py += m * q.vy[i];
      pz += m * q.vz[i];
      e += m * (q.u[i] + 0.5 * (q.vx[i] * q.vx[i] + q.vy[i] * q.vy[i] +
                                q.vz[i] * q.vz[i]));
    }
    return std::array<double, 5>{mass, px, py, pz, e};
  };

  const auto serial = integrate(1);
  const auto threaded = integrate(4);
  const auto ts = totals(serial);
  const auto tt = totals(threaded);

  const double n_total = static_cast<double>(serial.size());
  const double e0 = n_total * 5000.0;  // initial-energy scale
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(tt[c], ts[c]) << "component " << c;
  }
  EXPECT_NEAR(tt[0], n_total, 1e-9);             // mass exactly conserved
  EXPECT_LT(std::abs(tt[1]), 1e-3 * e0);         // momentum drift
  EXPECT_LT(std::abs(tt[2]), 1e-3 * e0);
  EXPECT_LT(std::abs(tt[3]), 1e-3 * e0);
  // Every particle's state is bitwise identical between thread counts.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(threaded.x[i], serial.x[i]);
    ASSERT_EQ(threaded.vx[i], serial.vx[i]);
    ASSERT_EQ(threaded.u[i], serial.u[i]);
  }
}

TEST(SphSolver, ViscosityHeatsApproachingGas) {
  // Two streams colliding head-on: du/dt must be positive (shock heating).
  Particles p;
  const double box = 10.0;
  for (int i = 0; i < 64; ++i) {
    const float x = 3.5f + 0.1f * (i % 8);
    const float y = 3.0f + 0.5f * ((i / 8) % 8);
    const std::size_t idx = p.push_back(
        static_cast<std::uint64_t>(i), Species::kGas, x + (i >= 32 ? 1.5f : 0.0f),
        y, 5.0f, (i >= 32 ? -200.0f : 200.0f), 0, 0, 1.0f);
    p.hsml[idx] = 1.0f;
    p.u[idx] = 10.0f;
  }
  SolverSetup setup(std::move(p), SphConfig{}, box);
  setup.evaluate();
  double total_du = 0.0;
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    total_du += setup.particles.du[i];
  }
  EXPECT_GT(total_du, 0.0);
}

TEST(SphSolver, SmoothingLengthsConvergeToEta) {
  const std::size_t n = 8;
  const double box = 8.0;
  SphConfig config;
  config.h_change_limit = 100.0f;  // let h jump straight to target
  SolverSetup setup(gas_lattice(n, box, 0.0f, 4), config, box);
  setup.evaluate();
  setup.solver.update_smoothing_lengths(setup.particles, nullptr);
  const double cell = box / n;
  // Deep-interior particles: a full kernel support away from the
  // (non-periodic) domain edge, so the density has no edge deficit.
  int checked = 0;
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    const bool interior =
        setup.particles.x[i] > 3.2f && setup.particles.x[i] < 4.8f &&
        setup.particles.y[i] > 3.2f && setup.particles.y[i] < 4.8f &&
        setup.particles.z[i] > 3.2f && setup.particles.z[i] < 4.8f;
    if (!interior) continue;
    ++checked;
    EXPECT_NEAR(setup.particles.hsml[i], config.eta * cell, 0.15 * cell);
  }
  EXPECT_GT(checked, 0);
}

TEST(SphSolver, CflTimestepScalesWithSoundSpeed) {
  const std::size_t n = 6;
  const double box = 6.0;
  SolverSetup cold(gas_lattice(n, box, 0.0f, 5), SphConfig{}, box);
  cold.evaluate();
  const double dt_cold =
      cold.solver.min_timestep(cold.particles, nullptr, 1.0, 1e30);

  auto hot_particles = gas_lattice(n, box, 0.0f, 5);
  for (std::size_t i = 0; i < hot_particles.size(); ++i) {
    hot_particles.u[i] = 40000.0f;  // 20x sound speed
  }
  SolverSetup hot(std::move(hot_particles), SphConfig{}, box);
  hot.evaluate();
  const double dt_hot = hot.solver.min_timestep(hot.particles, nullptr, 1.0, 1e30);
  EXPECT_LT(dt_hot, dt_cold);
  EXPECT_NEAR(dt_cold / dt_hot, 20.0, 3.0);
}

TEST(SphSolver, InactiveParticlesKeepState) {
  const std::size_t n = 6;
  const double box = 6.0;
  auto p = gas_lattice(n, box, 0.1f, 6);
  std::vector<std::uint8_t> active(p.size(), 0);
  for (std::size_t i = 0; i < p.size(); i += 2) active[i] = 1;
  const auto rho_before = p.rho;
  SolverSetup setup(std::move(p), SphConfig{}, box);
  std::fill(setup.particles.ax.begin(), setup.particles.ax.end(), 0.0f);
  std::fill(setup.particles.du.begin(), setup.particles.du.end(), 0.0f);
  setup.solver.compute_forces(setup.particles, setup.mesh, 1.0, active.data(),
                              setup.flops);
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    if (!active[i]) {
      EXPECT_EQ(setup.particles.rho[i], rho_before[i]);  // untouched
      EXPECT_EQ(setup.particles.ax[i], 0.0f);
    } else {
      EXPECT_GT(setup.particles.rho[i], 0.0f);
    }
  }
}

TEST(SphSolver, PlainSphBaselineRuns) {
  SphConfig config;
  config.use_crk = false;
  const double box = 6.0;
  SolverSetup setup(gas_lattice(6, box, 0.2f, 7), config, box);
  setup.evaluate();
  // Baseline still produces densities and finite forces.
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    EXPECT_GT(setup.particles.rho[i], 0.0f);
    EXPECT_TRUE(std::isfinite(setup.particles.ax[i]));
  }
  // And the CRK coefficients stay at their defaults.
  EXPECT_FLOAT_EQ(setup.solver.scratch().crk_a[0], 1.0f);
}

TEST(SphSolver, WendlandKernelGivesConsistentDensityAndConservation) {
  const std::size_t n = 8;
  const double box = 8.0;
  SphConfig config;
  config.kernel = KernelShape::kWendlandC4;
  SolverSetup setup(gas_lattice(n, box, 0.2f, 9), config, box);
  setup.evaluate();
  // Interior densities still recover the lattice mean.
  const double mean_density = static_cast<double>(n * n * n) / (box * box * box);
  int checked = 0;
  for (std::size_t i = 0; i < setup.particles.size(); ++i) {
    const bool interior = setup.particles.x[i] > 3.2f && setup.particles.x[i] < 4.8f &&
                          setup.particles.y[i] > 3.2f && setup.particles.y[i] < 4.8f &&
                          setup.particles.z[i] > 3.2f && setup.particles.z[i] < 4.8f;
    if (!interior) continue;
    ++checked;
    EXPECT_NEAR(setup.particles.rho[i], mean_density, 0.1 * mean_density);
  }
  EXPECT_GT(checked, 0);
  // Momentum conservation is kernel-shape independent.
  double fx = 0.0, scale = 0.0;
  const auto& q = setup.particles;
  for (std::size_t i = 0; i < q.size(); ++i) {
    fx += static_cast<double>(q.mass[i]) * q.ax[i];
    scale += std::abs(static_cast<double>(q.mass[i]) * q.ax[i]);
  }
  EXPECT_LT(std::abs(fx), 1e-3 * std::max(scale, 1e-12));
}

TEST(SphSolver, KernelShapesAgreeOnSmoothFields) {
  // Both kernels are consistent density estimators: on the same jittered
  // lattice their interior densities agree to a few percent.
  const std::size_t n = 8;
  const double box = 8.0;
  SphConfig cubic;
  SolverSetup a(gas_lattice(n, box, 0.15f, 10), cubic, box);
  a.evaluate();
  SphConfig wendland;
  wendland.kernel = KernelShape::kWendlandC4;
  SolverSetup b(gas_lattice(n, box, 0.15f, 10), wendland, box);
  b.evaluate();
  for (std::size_t i = 0; i < a.particles.size(); ++i) {
    const bool interior = a.particles.x[i] > 3.2f && a.particles.x[i] < 4.8f &&
                          a.particles.y[i] > 3.2f && a.particles.y[i] < 4.8f &&
                          a.particles.z[i] > 3.2f && a.particles.z[i] < 4.8f;
    if (!interior) continue;
    EXPECT_NEAR(b.particles.rho[i], a.particles.rho[i],
                0.08 * a.particles.rho[i]);
  }
}

TEST(SphSolver, RecordsKernelFlops) {
  const double box = 6.0;
  SolverSetup setup(gas_lattice(6, box, 0.0f, 8), SphConfig{}, box);
  setup.evaluate();
  EXPECT_GT(setup.flops.flops_of(DensityKernel::kName), 0.0);
  EXPECT_GT(setup.flops.flops_of(CrkMomentKernel::kName), 0.0);
  EXPECT_GT(setup.flops.flops_of(MomentumEnergyKernel::kName), 0.0);
  EXPECT_GT(setup.flops.flops_of("crk_coeff_solve"), 0.0);
}

}  // namespace
}  // namespace crkhacc::sph
