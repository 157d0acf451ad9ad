// Tests for the force split and the short-range gravity kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/particles.h"
#include "cosmology/units.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "mesh/force_split.h"
#include "mesh/pm_solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

namespace crkhacc::gravity {
namespace {

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

// --- force split -------------------------------------------------------------

TEST(ForceSplit, FullNewtonianAtZeroSeparation) {
  const mesh::ForceSplit split(1.0);
  EXPECT_NEAR(split.short_range_factor(0.0), 1.0, 1e-12);
  EXPECT_NEAR(split.short_range_factor(1e-8), 1.0, 1e-6);
}

TEST(ForceSplit, MonotonicallyDecreasing) {
  const mesh::ForceSplit split(0.7);
  double prev = 1.1;
  for (double r = 0.01; r < 8.0; r += 0.05) {
    const double f = split.short_range_factor(r);
    EXPECT_LE(f, prev);
    prev = f;
  }
}

TEST(ForceSplit, CutoffBelowThreshold) {
  for (double rs : {0.3, 1.0, 2.5}) {
    for (double threshold : {1e-3, 1e-4, 1e-5}) {
      const mesh::ForceSplit split(rs, threshold);
      EXPECT_LE(split.short_range_factor(split.cutoff()), 1.1 * threshold);
      EXPECT_GE(split.short_range_factor(0.99 * split.cutoff()),
                0.9 * threshold);
      EXPECT_LT(split.cutoff(), 16.0 * rs);
    }
  }
}

TEST(ForceSplit, FilterComplementarity) {
  // The k-space filter at k=0 is 1 (all large scales to the mesh) and
  // vanishes at high k (all small scales to the pair force).
  const mesh::ForceSplit split(1.5);
  EXPECT_DOUBLE_EQ(split.long_range_filter(0.0), 1.0);
  EXPECT_LT(split.long_range_filter(5.0), 1e-20);
}

TEST(ForceSplit, FloatPolynomialTracksDefinition) {
  // Every float r on a dense grid over [0, cutoff), up to the last float
  // below the cutoff, against the double-precision definition.
  constexpr int kSamples = 1 << 17;
  for (double rs : {0.15, 0.5, 1.5, 2.5}) {
    for (double threshold : {1e-2, 1e-3, 1e-4, 1e-5}) {
      const mesh::ForceSplit split(rs, threshold);
      const mesh::SplitPolynomial& poly = split.polynomial();
      EXPECT_EQ(poly.evaluate(0.0f), 1.0f);
      float r_top = static_cast<float>(split.cutoff());
      if (r_top >= split.cutoff()) r_top = std::nextafter(r_top, 0.0f);
      double worst = 0.0;
      for (int q = 0; q <= kSamples; ++q) {
        const float r = q == kSamples
                            ? r_top
                            : static_cast<float>(split.cutoff() * q / kSamples);
        worst = std::max(worst, std::abs(poly.evaluate(r * r) -
                                         split.short_range_factor(r)));
      }
      EXPECT_LE(worst, mesh::ForceSplit::kApproxTolerance)
          << "rs " << rs << " threshold " << threshold << " terms "
          << poly.terms;
    }
  }
}

// --- short-range kernel ----------------------------------------------------------

TEST(ShortRange, FlopCountMatchesDefaultSplitPolynomial) {
  // kFlopsPerInteraction counts the split factor at the simulation's
  // default threshold: 2 (t) + 2 per Horner step + 4 on top of the 20
  // flops of the softened Newtonian pair.
  const double threshold = mesh::PMConfig{}.split_threshold;
  for (double rs : {0.15, 0.5, 1.5, 2.5}) {
    const mesh::ForceSplit split(rs, threshold);
    const double terms = split.polynomial().terms;
    EXPECT_EQ(ShortRangeKernel::kFlopsPerInteraction,
              20.0 + 2.0 + 2.0 * (terms - 1.0) + 4.0)
        << "rs " << rs;
  }
}

TEST(ShortRangeDeathTest, CutoffBeyondTheSplitCutoffFails) {
  // The split polynomial is fitted on [0, split.cutoff()] only.
  Particles p;
  p.push_back(0, Species::kDarkMatter, 1.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f);
  const mesh::ForceSplit split(0.5);
  const float at = static_cast<float>(split.cutoff());
  ShortRangeKernel fits(p, nullptr, &split, 1.0f, 0.05f, at);
  (void)fits;
  const float beyond =
      std::nextafter(at, std::numeric_limits<float>::infinity());
  EXPECT_DEATH(ShortRangeKernel(p, nullptr, &split, 1.0f, 0.05f, beyond),
               "exceeds the force split's cutoff");
}

TEST(ShortRange, TwoBodyNewtonianForce) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 1.0f, 1.0f, 1.0f, 0, 0, 0, 3.0f);
  p.push_back(1, Species::kDarkMatter, 3.0f, 1.0f, 1.0f, 0, 0, 0, 5.0f);
  tree::ChainingMesh mesh(cube(4.0), {4.0, 8});
  mesh.build(p);
  GravityConfig config;
  config.softening = 0.0f;
  gpu::FlopRegistry flops;
  compute_short_range(p, mesh, /*split=*/nullptr, config, 1.0, nullptr, flops);
  // a_0 = G m_1 / r^2 toward particle 1 (+x), r = 2.
  const double expected = units::kGravity * 5.0 / 4.0;
  EXPECT_NEAR(p.ax[0], expected, 1e-3 * expected);
  EXPECT_NEAR(p.ax[1], -units::kGravity * 3.0 / 4.0,
              1e-3 * units::kGravity * 3.0 / 4.0);
  EXPECT_NEAR(p.ay[0], 0.0, 1e-6);
}

TEST(ShortRange, MatchesDirectSumReference) {
  SplitMix64 rng(12);
  Particles p;
  for (int i = 0; i < 120; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                static_cast<float>(rng.next_double() * 4.0),
                static_cast<float>(rng.next_double() * 4.0),
                static_cast<float>(rng.next_double() * 4.0), 0, 0, 0,
                static_cast<float>(0.5 + rng.next_double()));
  }
  Particles reference = p;
  GravityConfig config;
  config.softening = 0.1f;
  tree::ChainingMesh mesh(cube(4.0), {4.0, 16});
  mesh.build(p);
  gpu::FlopRegistry flops;
  compute_short_range(p, mesh, nullptr, config, 1.0, nullptr, flops);
  direct_sum_reference(reference, nullptr, config.softening, units::kGravity);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double scale = std::abs(reference.ax[i]) + 1.0;
    EXPECT_NEAR(p.ax[i], reference.ax[i], 2e-3 * scale);
    EXPECT_NEAR(p.ay[i], reference.ay[i], 2e-3 * scale);
    EXPECT_NEAR(p.az[i], reference.az[i], 2e-3 * scale);
  }
}

/// Largest |compute_short_range - direct_sum_reference| under a force
/// split, over every particle and axis, relative to the largest reference
/// acceleration component. `count` particles of mass 0.5-1.5 uniform in
/// a cube of side `box`, drawn as in MatchesDirectSumReference and
/// ConservesMomentum.
double split_direct_sum_deviation(std::uint64_t seed, int count, double box,
                                  double bin, double rs, float softening) {
  SplitMix64 rng(seed);
  Particles p;
  for (int i = 0; i < count; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box), 0, 0, 0,
                static_cast<float>(0.5 + rng.next_double()));
  }
  Particles reference = p;
  const mesh::ForceSplit split(rs);
  GravityConfig config;
  config.softening = softening;
  tree::ChainingMesh mesh(cube(box), {bin, 16});
  mesh.build(p);
  gpu::FlopRegistry flops;
  compute_short_range(p, mesh, &split, config, 1.0, nullptr, flops);
  direct_sum_reference(reference, &split, config.softening, units::kGravity);
  double scale = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (const auto field : {&Particles::ax, &Particles::ay, &Particles::az}) {
      const double ref = (reference.*field)[i];
      scale = std::max(scale, std::abs(ref));
      worst = std::max(worst, std::abs((p.*field)[i] - ref));
    }
  }
  return worst / scale;
}

TEST(ShortRange, SplitMatchesDirectSumReference) {
  // The float split polynomial deviates from the double direct sum no
  // more than the double erfc/exp factor it replaced did on the same
  // setups: 2.643168e-6 and 2.729464e-6, rounded up at the fifth digit.
  // Both include the pair tails beyond the cutoff, which the direct sum
  // keeps. The bins cover the cutoff (ConservesMomentum's 1.0-wide bins
  // do not, and an overloaded mesh's stencil then drops pairs inside it).
  const double reference_setup =
      split_direct_sum_deviation(12, 120, 4.0, 4.0, 0.5, 0.1f);
  const double momentum_setup =
      split_direct_sum_deviation(13, 200, 3.0, 2.0, 0.3, 0.05f);
  std::printf("split vs direct sum: max deviation %.6e (rs 0.5), %.6e "
              "(rs 0.3)\n",
              reference_setup, momentum_setup);
  EXPECT_LE(reference_setup, 2.6432e-6);
  EXPECT_LE(momentum_setup, 2.7295e-6);
}

TEST(ShortRange, ConservesMomentum) {
  SplitMix64 rng(13);
  Particles p;
  for (int i = 0; i < 200; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                static_cast<float>(rng.next_double() * 3.0),
                static_cast<float>(rng.next_double() * 3.0),
                static_cast<float>(rng.next_double() * 3.0), 0, 0, 0,
                static_cast<float>(0.5 + rng.next_double()));
  }
  tree::ChainingMesh mesh(cube(3.0), {1.0, 16});
  mesh.build(p);
  const mesh::ForceSplit split(0.3);
  GravityConfig config;
  gpu::FlopRegistry flops;
  compute_short_range(p, mesh, &split, config, 1.0, nullptr, flops);
  double fx = 0.0, fy = 0.0, fz = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    fx += static_cast<double>(p.mass[i]) * p.ax[i];
    fy += static_cast<double>(p.mass[i]) * p.ay[i];
    fz += static_cast<double>(p.mass[i]) * p.az[i];
    scale += std::abs(static_cast<double>(p.mass[i]) * p.ax[i]);
  }
  EXPECT_LT(std::abs(fx), 1e-3 * scale);
  EXPECT_LT(std::abs(fy), 1e-3 * scale);
  EXPECT_LT(std::abs(fz), 1e-3 * scale);
}

TEST(ShortRange, SplitSuppressesLongRangePairs) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 0.5f, 0.5f, 0.5f, 0, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 7.5f, 0.5f, 0.5f, 0, 0, 0, 1.0f);
  const mesh::ForceSplit split(0.5);  // cutoff ~ 3-4
  tree::ChainingMesh mesh(cube(8.0), {4.0, 8});
  mesh.build(p);
  GravityConfig config;
  gpu::FlopRegistry flops;
  compute_short_range(p, mesh, &split, config, 1.0, nullptr, flops);
  EXPECT_NEAR(p.ax[0], 0.0, 1e-7);  // beyond the cutoff: mesh's job
}

TEST(ShortRange, CosmologicalScalingOneOverASquared) {
  auto make = [] {
    Particles p;
    p.push_back(0, Species::kDarkMatter, 1.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f);
    p.push_back(1, Species::kDarkMatter, 2.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f);
    return p;
  };
  tree::ChainingMesh mesh(cube(4.0), {4.0, 8});
  GravityConfig config;
  config.softening = 0.0f;
  gpu::FlopRegistry flops;

  auto p1 = make();
  mesh.build(p1);
  compute_short_range(p1, mesh, nullptr, config, 1.0, nullptr, flops);
  auto p2 = make();
  mesh.build(p2);
  compute_short_range(p2, mesh, nullptr, config, 0.5, nullptr, flops);
  EXPECT_NEAR(p2.ax[0], 4.0 * p1.ax[0], 1e-3 * std::abs(4.0 * p1.ax[0]));
}

TEST(ShortRange, ActiveMaskSkipsStores) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 1.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 2.0f, 1.0f, 1.0f, 0, 0, 0, 1.0f);
  tree::ChainingMesh mesh(cube(4.0), {4.0, 8});
  mesh.build(p);
  std::vector<std::uint8_t> active{1, 0};
  GravityConfig config;
  gpu::FlopRegistry flops;
  compute_short_range(p, mesh, nullptr, config, 1.0, active.data(), flops);
  EXPECT_NE(p.ax[0], 0.0f);
  EXPECT_EQ(p.ax[1], 0.0f);
}

TEST(ShortRange, NaiveAndWarpSplitAgree) {
  SplitMix64 rng(14);
  Particles p;
  for (int i = 0; i < 100; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                static_cast<float>(rng.next_double() * 2.0),
                static_cast<float>(rng.next_double() * 2.0),
                static_cast<float>(rng.next_double() * 2.0), 0, 0, 0, 1.0f);
  }
  tree::ChainingMesh mesh(cube(2.0), {1.0, 16});
  mesh.build(p);
  const mesh::ForceSplit split(0.2);
  gpu::FlopRegistry flops;

  Particles naive = p;
  GravityConfig config;
  config.launch.mode = gpu::LaunchMode::kNaive;
  compute_short_range(naive, mesh, &split, config, 1.0, nullptr, flops);

  Particles warp = p;
  config.launch.mode = gpu::LaunchMode::kWarpSplit;
  compute_short_range(warp, mesh, &split, config, 1.0, nullptr, flops);

  for (std::size_t i = 0; i < p.size(); ++i) {
    const double scale = std::abs(naive.ax[i]) + 1e-3;
    EXPECT_NEAR(warp.ax[i], naive.ax[i], 1e-3 * scale);
  }
}

}  // namespace
}  // namespace crkhacc::gravity
