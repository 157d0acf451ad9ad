// Tests for KDK operators and hierarchical timestep bins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/particles.h"
#include "cosmology/units.h"
#include "integrator/kdk.h"
#include "integrator/timestep.h"

namespace crkhacc::integrator {
namespace {

cosmo::Background lcdm() { return cosmo::Background(cosmo::Parameters{}); }

Particles one_particle(float x, float vx, Species species = Species::kDarkMatter) {
  Particles p;
  const auto i = p.push_back(0, species, x, 1.0f, 1.0f, vx, 0, 0, 1.0f);
  if (species == Species::kGas) p.u[i] = 100.0f;
  return p;
}

// --- timestep bins ---------------------------------------------------------

TEST(TimeBins, BinForBoundaries) {
  const double dt_pm = 1.0;
  EXPECT_EQ(bin_for(2.0, dt_pm, 8), 0);    // slower than PM: coarsest
  EXPECT_EQ(bin_for(1.0, dt_pm, 8), 0);
  EXPECT_EQ(bin_for(0.6, dt_pm, 8), 1);
  EXPECT_EQ(bin_for(0.25, dt_pm, 8), 2);
  EXPECT_EQ(bin_for(0.2, dt_pm, 8), 3);
  EXPECT_EQ(bin_for(1e-9, dt_pm, 8), 8);   // clamped at max depth
  EXPECT_EQ(bin_for(0.0, dt_pm, 8), 8);    // pathological: deepest
}

TEST(TimeBins, ActivitySchedule) {
  // depth 3: bin 0 fires once (s=0), bin 3 fires every fine step.
  const int depth = 3;
  std::array<int, 4> fire_count{};
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint8_t b = 0; b <= 3; ++b) {
      if (bin_active(b, s, depth)) ++fire_count[b];
    }
  }
  EXPECT_EQ(fire_count[0], 1);
  EXPECT_EQ(fire_count[1], 2);
  EXPECT_EQ(fire_count[2], 4);
  EXPECT_EQ(fire_count[3], 8);
  // Everyone fires at s=0 (synchronization point).
  for (std::uint8_t b = 0; b <= 3; ++b) {
    EXPECT_TRUE(bin_active(b, 0, depth));
  }
}

TEST(TimeBins, AssignBinsReturnsDepth) {
  Particles p;
  for (int i = 0; i < 4; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter, 0, 0, 0,
                0, 0, 0, 1.0f);
  }
  const std::vector<double> limits{1.0, 0.3, 0.1, 1e30};
  TimeBinConfig config;
  config.max_depth = 6;
  const int depth = assign_bins(p, limits, 1.0, config);
  EXPECT_EQ(p.bin[0], 0);
  EXPECT_EQ(p.bin[1], 2);
  EXPECT_EQ(p.bin[2], 4);
  EXPECT_EQ(p.bin[3], 0);
  EXPECT_EQ(depth, 4);
}

TEST(TimeBins, ActivityMaskMatchesSchedule) {
  Particles p;
  p.push_back(0, Species::kDarkMatter, 0, 0, 0, 0, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 0, 0, 0, 0, 0, 0, 1.0f);
  p.bin[0] = 0;
  p.bin[1] = 2;
  std::vector<std::uint8_t> mask;
  activity_mask(p, 1, 2, mask);
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 1);
  activity_mask(p, 0, 2, mask);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 1);
}

TEST(TimeBins, AccelCriterionScaling) {
  TimeBinConfig config;
  // dt ~ 1/sqrt(|a|): 4x the acceleration halves the step.
  const double dt1 = accel_timestep(config, 1.0, 1.0, 0.0, 0.0);
  const double dt4 = accel_timestep(config, 1.0, 4.0, 0.0, 0.0);
  EXPECT_NEAR(dt1 / dt4, 2.0, 1e-9);
  EXPECT_TRUE(std::isinf(accel_timestep(config, 1.0, 0.0, 0.0, 0.0)));
}

TEST(TimeBins, ScheduleWorkCountsUpdates) {
  Particles p;
  for (int i = 0; i < 3; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter, 0, 0, 0,
                0, 0, 0, 1.0f);
  }
  p.bin[0] = 0;
  p.bin[1] = 1;
  p.bin[2] = 3;
  EXPECT_EQ(schedule_work(p, 3), 1u + 2u + 8u);
}

// --- KDK --------------------------------------------------------------------

TEST(Kdk, HubbleDragScalesVelocityExactly) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto p = one_particle(5.0f, 100.0f);
  // No acceleration: v must scale by exactly a0/a1.
  kdk.kick(p, 0.5, 1.0, nullptr, /*with_drag=*/true);
  EXPECT_NEAR(p.vx[0], 50.0f, 1e-3);
}

TEST(Kdk, DragFreeKickAddsAccelerationTimesDt) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto p = one_particle(5.0f, 10.0f);
  p.ax[0] = 2.0f;
  const double dt = kdk.dt_of(0.9, 1.0);
  kdk.kick(p, 0.9, 1.0, nullptr, /*with_drag=*/false);
  EXPECT_NEAR(p.vx[0], 10.0f + 2.0f * dt, 1e-4 * (10.0 + 2.0 * dt));
}

TEST(Kdk, DriftMovesByVOverA) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto p = one_particle(5.0f, 30.0f);
  const double dt = kdk.dt_of(0.99, 1.0);
  kdk.drift(p, 0.99, 1.0, 100.0, nullptr);
  EXPECT_NEAR(p.x[0], 5.0 + 30.0 * dt / 0.995, 1e-4);
}

TEST(Kdk, DriftWrapsOwnedButNotGhosts) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  Particles p;
  p.push_back(0, Species::kDarkMatter, 9.99f, 1, 1, 1000.0f, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 9.99f, 1, 1, 1000.0f, 0, 0, 1.0f);
  p.ghost[1] = 1;
  kdk.drift(p, 0.5, 0.52, 10.0, nullptr);
  EXPECT_LT(p.x[0], 10.0f);      // wrapped
  EXPECT_GT(p.x[1], 10.0f);      // ghost keeps its image coordinate
  EXPECT_NEAR(p.x[1] - 10.0f, p.x[0], 1e-3);
}

TEST(Kdk, ExpansionCoolsGasAdiabatically) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto p = one_particle(5.0f, 0.0f, Species::kGas);
  const float u0 = p.u[0];
  kdk.drift(p, 0.5, 1.0, 100.0, nullptr);
  // u ~ a^{-2} for gamma = 5/3.
  EXPECT_NEAR(p.u[0], u0 * 0.25f, 1e-3 * u0);
}

TEST(Kdk, ExpansionDoesNotTouchDarkMatter) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto p = one_particle(5.0f, 0.0f, Species::kDarkMatter);
  p.u[0] = 7.0f;
  kdk.drift(p, 0.5, 1.0, 100.0, nullptr);
  EXPECT_EQ(p.u[0], 7.0f);
}

TEST(Kdk, EnergyKickAppliesDuAndFloors) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto p = one_particle(5.0f, 0.0f, Species::kGas);
  const double dt = kdk.dt_of(0.9, 1.0);
  p.du[0] = 3.0f;
  const float u0 = p.u[0];
  kdk.energy_kick(p, 0.9, 1.0, nullptr);
  EXPECT_NEAR(p.u[0], u0 + 3.0 * dt, 1e-3);
  // Strong negative du cannot drive u below zero.
  p.du[0] = -1e9f;
  kdk.energy_kick(p, 0.9, 1.0, nullptr);
  EXPECT_GE(p.u[0], 0.0f);
}

TEST(Kdk, ActiveMaskRestrictsUpdates) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  Particles p;
  p.push_back(0, Species::kDarkMatter, 1, 1, 1, 10.0f, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 2, 1, 1, 10.0f, 0, 0, 1.0f);
  std::vector<std::uint8_t> active{1, 0};
  kdk.kick(p, 0.5, 1.0, active.data(), true);
  EXPECT_NEAR(p.vx[0], 5.0f, 1e-4);
  EXPECT_EQ(p.vx[1], 10.0f);
}

TEST(Kdk, FreeParticleLeapfrogConsistency) {
  // Two half-kicks + drift with zero acceleration: pure drag evolution,
  // independent of how the interval is subdivided.
  const auto bg = lcdm();
  const Kdk kdk(bg);
  auto one_step = one_particle(0.0f, 64.0f);
  kdk.kick(one_step, 0.5, 1.0, nullptr, true);

  auto two_steps = one_particle(0.0f, 64.0f);
  kdk.kick(two_steps, 0.5, 0.75, nullptr, true);
  kdk.kick(two_steps, 0.75, 1.0, nullptr, true);
  EXPECT_NEAR(one_step.vx[0], two_steps.vx[0], 1e-3);
}

// --- sub-cycle bin kick ------------------------------------------------------

// Mixed gas / dark-matter set spread over bins 0-3, so every depth-3
// substep has one to four active bins. One ghost replica rides along.
Particles mixed_bin_set() {
  Particles p;
  for (int i = 0; i < 24; ++i) {
    const Species sp = (i % 3 == 0) ? Species::kDarkMatter : Species::kGas;
    const float f = static_cast<float>(i);
    const auto k = p.push_back(static_cast<std::uint64_t>(i), sp, 0.1f * f,
                               0.2f * f, 0.3f * f, 3.0f - 0.5f * f,
                               1.0f + 0.25f * f, -2.0f + 0.1f * f, 1.0f);
    if (sp == Species::kGas) p.u[k] = 50.0f + 7.0f * f;
    p.bin[k] = static_cast<std::uint8_t>((i * 5 + i / 4) % 4);
  }
  p.ghost[p.size() - 1] = 1;
  return p;
}

// Fresh accelerations and du for the particles active at substep s (the
// solvers' role between kicks). A few strongly negative du values hit the
// energy floor.
void load_forces(Particles& p, const std::vector<std::uint8_t>& active,
                 std::uint64_t s) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!active[i]) continue;
    const float f = static_cast<float>(i) + 0.37f * static_cast<float>(s);
    p.ax[i] = 1.5e3f * std::sin(f);
    p.ay[i] = -2.5e3f * std::cos(1.3f * f);
    p.az[i] = 7.0e2f * std::sin(0.7f * f + 1.0f);
    p.du[i] = (i % 7 == 4) ? -1.0e9f : 4.0e4f * std::cos(f);
  }
}

// The bin kick as a per-bin mask loop: Kdk::kick (drag-free) and
// Kdk::energy_kick over each active bin's interval, with dt_of per
// particle for the subgrid interval.
void reference_bin_kick(const Kdk& kdk, Particles& p,
                        const std::vector<std::uint8_t>& active,
                        std::uint64_t s, int depth, double a0, double da_fine,
                        std::vector<double>& dt_particle) {
  const std::uint64_t nfine = 1ull << depth;
  const double a_s = a0 + static_cast<double>(s) * da_fine;
  for (int b = 0; b <= depth; ++b) {
    if (!bin_active(static_cast<std::uint8_t>(b), s, depth)) continue;
    const std::uint64_t span_fine = 1ull << (depth - b);
    const double a_bin_end =
        a0 + static_cast<double>(std::min(s + span_fine, nfine)) * da_fine;
    std::vector<std::uint8_t> bin_mask(p.size(), 0);
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (active[i] && p.bin[i] == b) {
        bin_mask[i] = 1;
        dt_particle[i] = kdk.dt_of(a_s, a_bin_end);
      }
    }
    kdk.kick(p, a_s, a_bin_end, bin_mask.data(), /*with_drag=*/false);
    kdk.energy_kick(p, a_s, a_bin_end, bin_mask.data());
  }
}

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }
std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_bitwise_equal(const Particles& got, const Particles& want,
                          const std::vector<double>& got_dt,
                          const std::vector<double>& want_dt,
                          std::uint64_t s) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got_dt.size(), want_dt.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "s=" << s << " i=" << i);
    EXPECT_EQ(bits(got.vx[i]), bits(want.vx[i]));
    EXPECT_EQ(bits(got.vy[i]), bits(want.vy[i]));
    EXPECT_EQ(bits(got.vz[i]), bits(want.vz[i]));
    EXPECT_EQ(bits(got.u[i]), bits(want.u[i]));
    EXPECT_EQ(bits(got_dt[i]), bits(want_dt[i]));
  }
}

// a0 + (a1 - a0) == a1 exactly for these endpoints (Sterbenz), so the
// last fine substep ends on a1 itself.
constexpr double kA0 = 0.5;
constexpr double kA1 = 0.6;

TEST(BinKick, MatchesPerBinMaskReferenceAtEverySubstep) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  const int depth = 3;
  const std::uint64_t nfine = 1ull << depth;
  const double da_fine = (kA1 - kA0) / static_cast<double>(nfine);
  Particles got = mixed_bin_set();
  Particles want = got;
  std::vector<double> got_dt(got.size(), 0.0);
  std::vector<double> want_dt(want.size(), 0.0);
  std::vector<std::uint8_t> active;
  for (std::uint64_t s = 0; s < nfine; ++s) {
    activity_mask(got, s, depth, active);
    load_forces(got, active, s);
    load_forces(want, active, s);
    kdk.kick_active_bins(got, active, s, depth, kA0, da_fine, got_dt);
    reference_bin_kick(kdk, want, active, s, depth, kA0, da_fine, want_dt);
    expect_bitwise_equal(got, want, got_dt, want_dt, s);
  }
  // The floor fired somewhere, so the clamp path is covered too.
  EXPECT_TRUE(std::any_of(got.u.begin(), got.u.end(),
                          [](float u) { return u == 0.0f; }));
}

TEST(BinKick, InactiveParticlesKeepFieldsAndDt) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  const int depth = 3;
  const std::uint64_t nfine = 1ull << depth;
  const double da_fine = (kA1 - kA0) / static_cast<double>(nfine);
  for (std::uint64_t s = 0; s < nfine; ++s) {
    Particles p = mixed_bin_set();
    std::vector<std::uint8_t> active;
    activity_mask(p, s, depth, active);
    load_forces(p, active, s);
    const Particles before = p;
    std::vector<double> dt(p.size());
    for (std::size_t i = 0; i < dt.size(); ++i) {
      dt[i] = -1.0 - static_cast<double>(i);  // sentinels
    }
    kdk.kick_active_bins(p, active, s, depth, kA0, da_fine, dt);
    for (std::size_t i = 0; i < p.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "s=" << s << " i=" << i);
      if (active[i]) {
        EXPECT_GT(dt[i], 0.0);
        continue;
      }
      EXPECT_EQ(dt[i], -1.0 - static_cast<double>(i));
      EXPECT_EQ(bits(p.vx[i]), bits(before.vx[i]));
      EXPECT_EQ(bits(p.vy[i]), bits(before.vy[i]));
      EXPECT_EQ(bits(p.vz[i]), bits(before.vz[i]));
      EXPECT_EQ(bits(p.u[i]), bits(before.u[i]));
      EXPECT_EQ(bits(p.x[i]), bits(before.x[i]));
      EXPECT_EQ(bits(p.ax[i]), bits(before.ax[i]));
      EXPECT_EQ(bits(p.du[i]), bits(before.du[i]));
    }
  }
}

TEST(BinKick, IntervalsTileThePmIntervalOnce) {
  // Each particle's kick intervals over s = 0 .. 2^depth - 1 start at
  // a0, each begins where the previous ended, and the last ends at a1.
  // dt_of is strictly monotone in its upper end, so matching the
  // recorded dt bit for bit pins the interval's end point.
  const auto bg = lcdm();
  const Kdk kdk(bg);
  const int depth = 3;
  const std::uint64_t nfine = 1ull << depth;
  const double da_fine = (kA1 - kA0) / static_cast<double>(nfine);
  ASSERT_EQ(kA0 + static_cast<double>(nfine) * da_fine, kA1);
  Particles p = mixed_bin_set();
  std::vector<std::vector<std::pair<std::uint64_t, double>>> kicks(p.size());
  std::vector<double> dt;
  std::vector<std::uint8_t> active;
  for (std::uint64_t s = 0; s < nfine; ++s) {
    activity_mask(p, s, depth, active);
    kdk.kick_active_bins(p, active, s, depth, kA0, da_fine, dt);
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (active[i]) kicks[i].emplace_back(s, dt[i]);
    }
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto& k = kicks[i];
    ASSERT_EQ(k.size(), 1u << p.bin[i]) << "i=" << i;
    ASSERT_EQ(k.front().first, 0u) << "i=" << i;
    double total = 0.0;
    for (std::size_t j = 0; j < k.size(); ++j) {
      const double a_start = kA0 + static_cast<double>(k[j].first) * da_fine;
      const double a_end =
          j + 1 < k.size()
              ? kA0 + static_cast<double>(k[j + 1].first) * da_fine
              : kA1;
      EXPECT_EQ(bits(k[j].second), bits(kdk.dt_of(a_start, a_end)))
          << "i=" << i << " kick " << j;
      total += k[j].second;
    }
    EXPECT_NEAR(total, kdk.dt_of(kA0, kA1), 1e-12 * kdk.dt_of(kA0, kA1));
  }
}

TEST(BinKick, DepthZeroIsOneKickOverThePmInterval) {
  // Flat-stepped jobs (max_depth = 0): one bin, every particle active,
  // one kick across the whole PM interval.
  const auto bg = lcdm();
  const Kdk kdk(bg);
  Particles got = mixed_bin_set();
  std::fill(got.bin.begin(), got.bin.end(), std::uint8_t{0});
  std::vector<std::uint8_t> active;
  activity_mask(got, 0, 0, active);
  ASSERT_TRUE(std::all_of(active.begin(), active.end(),
                          [](std::uint8_t a) { return a == 1; }));
  load_forces(got, active, 0);
  Particles want = got;
  const double da_fine = kA1 - kA0;
  std::vector<double> got_dt;
  kdk.kick_active_bins(got, active, 0, 0, kA0, da_fine, got_dt);
  kdk.kick(want, kA0, kA1, nullptr, /*with_drag=*/false);
  kdk.energy_kick(want, kA0, kA1, nullptr);
  const std::vector<double> want_dt(want.size(), kdk.dt_of(kA0, kA1));
  expect_bitwise_equal(got, want, got_dt, want_dt, 0);
}

TEST(BinKick, ActiveParticleInIdleBinIsRejected) {
  const auto bg = lcdm();
  const Kdk kdk(bg);
  Particles p = mixed_bin_set();
  p.bin[0] = 0;  // bin 0 is idle at s = 1 of depth 3
  std::vector<std::uint8_t> active(p.size(), 0);
  active[0] = 1;
  std::vector<double> dt;
  EXPECT_DEATH(kdk.kick_active_bins(p, active, 1, 3, kA0, 0.0125, dt),
               "idle");
}

}  // namespace
}  // namespace crkhacc::integrator
