#include "integrator/kdk.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cosmology/units.h"
#include "integrator/timestep.h"
#include "util/assertions.h"

namespace crkhacc::integrator {
namespace {

// Per-particle bodies shared by the whole-array operators and the bin
// kick, so both paths run the same float arithmetic.
inline void kick_velocity(Particles& particles, std::size_t i, float drag,
                          float dt) {
  particles.vx[i] = particles.vx[i] * drag + particles.ax[i] * dt;
  particles.vy[i] = particles.vy[i] * drag + particles.ay[i] * dt;
  particles.vz[i] = particles.vz[i] * drag + particles.az[i] * dt;
}

inline void kick_energy(Particles& particles, std::size_t i, float dt) {
  float u = particles.u[i] + particles.du[i] * dt;
  if (u < 0.0f) u = 0.0f;  // shock-crossing guard; floor restored by UV
  particles.u[i] = u;
}

}  // namespace

void Kdk::kick(Particles& particles, double a0, double a1,
               const std::uint8_t* active, bool with_drag) const {
  const float dt = static_cast<float>(dt_of(a0, a1));
  const float drag = with_drag ? static_cast<float>(a0 / a1) : 1.0f;
  const std::size_t n = particles.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (active && !active[i]) continue;
    kick_velocity(particles, i, drag, dt);
  }
}

void Kdk::drift(Particles& particles, double a0, double a1, double box,
                const std::uint8_t* active) const {
  const double dt = dt_of(a0, a1);
  const double a_mid = 0.5 * (a0 + a1);
  const float move = static_cast<float>(dt / a_mid);
  // u ~ a^{-3(gamma-1)}: exact homogeneous-expansion cooling.
  const float expand = static_cast<float>(
      std::pow(a0 / a1, 3.0 * (units::kGamma - 1.0)));
  const float fbox = static_cast<float>(box);
  const std::size_t n = particles.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (active && !active[i]) continue;
    float x = particles.x[i] + particles.vx[i] * move;
    float y = particles.y[i] + particles.vy[i] * move;
    float z = particles.z[i] + particles.vz[i] * move;
    // Periodic wrap for owned particles (drifts are < box per step).
    // Ghost replicas live at unwrapped image coordinates and must stay
    // there so the chaining mesh keeps them adjacent to the domain edge.
    if (particles.is_owned(i)) {
      if (x < 0.f) x += fbox; else if (x >= fbox) x -= fbox;
      if (y < 0.f) y += fbox; else if (y >= fbox) y -= fbox;
      if (z < 0.f) z += fbox; else if (z >= fbox) z -= fbox;
    }
    particles.x[i] = x;
    particles.y[i] = y;
    particles.z[i] = z;
    if (particles.is_gas(i)) {
      particles.u[i] *= expand;
    }
  }
}

void Kdk::energy_kick(Particles& particles, double a0, double a1,
                      const std::uint8_t* active) const {
  const float dt = static_cast<float>(dt_of(a0, a1));
  const std::size_t n = particles.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (active && !active[i]) continue;
    if (!particles.is_gas(i)) continue;
    kick_energy(particles, i, dt);
  }
}

void Kdk::kick_active_bins(Particles& particles,
                           const std::vector<std::uint8_t>& active,
                           std::uint64_t s, int depth, double a0,
                           double da_fine,
                           std::vector<double>& dt_particle) const {
  const std::size_t n = particles.size();
  CHECK(active.size() == n);
  dt_particle.resize(n, 0.0);
  // Interval table: one time integral per bin active at s; NaN marks the
  // idle bins.
  const std::uint64_t nfine = 1ull << depth;
  const double a_s = a0 + static_cast<double>(s) * da_fine;
  std::vector<double> dt_bin(static_cast<std::size_t>(depth) + 1,
                             std::numeric_limits<double>::quiet_NaN());
  for (int b = 0; b <= depth; ++b) {
    if (!bin_active(static_cast<std::uint8_t>(b), s, depth)) continue;
    const std::uint64_t span_fine = 1ull << (depth - b);
    const double a_bin_end =
        a0 + static_cast<double>(std::min(s + span_fine, nfine)) * da_fine;
    dt_bin[static_cast<std::size_t>(b)] = dt_of(a_s, a_bin_end);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    const std::uint8_t b = particles.bin[i];
    CHECK_MSG(b <= depth && !std::isnan(dt_bin[b]),
              "active particle in a bin that is idle at this substep");
    const float dt = static_cast<float>(dt_bin[b]);
    kick_velocity(particles, i, 1.0f, dt);
    if (particles.is_gas(i)) kick_energy(particles, i, dt);
    dt_particle[i] = dt_bin[b];
  }
}

}  // namespace crkhacc::integrator
