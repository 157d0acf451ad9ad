// Kick-drift-kick symplectic operators in comoving coordinates.
//
// State: x comoving [Mpc/h], v peculiar [km/s], u specific internal
// energy [(km/s)^2]. Equations of motion:
//
//   dx/dt = v / a
//   dv/dt = -H(a) v + g          (g = comoving-force / a^2 etc., supplied
//                                 by the solvers in the accel arrays)
//   du/dt = -3 (gamma-1) H u + (pair work)   [expansion term analytic]
//
// The Hubble drag is integrated exactly (v ~ 1/a between kicks); the
// adiabatic expansion term likewise (u ~ a^{-3(gamma-1)}), so the
// homogeneous universe stays exactly adiabatic regardless of step size.
#pragma once

#include <cstdint>
#include <vector>

#include "core/particles.h"
#include "cosmology/background.h"

namespace crkhacc::integrator {

class Kdk {
 public:
  explicit Kdk(const cosmo::Background& bg) : bg_(bg) {}

  /// Cosmic time interval between scale factors.
  double dt_of(double a0, double a1) const {
    return bg_.time_of(a1) - bg_.time_of(a0);
  }

  /// Velocity update over [a0, a1]: acceleration kick using the
  /// particle's (ax, ay, az), with the exact Hubble drag folded in when
  /// `with_drag` (the drag must be applied exactly once per interval —
  /// the PM-level kick carries it; sub-cycle kicks run drag-free).
  void kick(Particles& particles, double a0, double a1,
            const std::uint8_t* active, bool with_drag = true) const;

  /// Position update over [a0, a1] (midpoint 1/a), periodic wrap into
  /// [0, box), plus the analytic adiabatic expansion of u for gas.
  void drift(Particles& particles, double a0, double a1, double box,
             const std::uint8_t* active) const;

  /// Apply du/dt (the particles' du array) over the same kick interval.
  void energy_kick(Particles& particles, double a0, double a1,
                   const std::uint8_t* active) const;

  /// Sub-cycle kick at fine substep `s` of the 2^depth substeps that
  /// split the PM interval starting at `a0` into widths `da_fine`. Every
  /// particle flagged in `active` (activity_mask(particles, s, depth))
  /// gets the drag-free velocity kick and the energy kick across its
  /// bin's interval [a_s, a0 + min(s + 2^(depth-b), 2^depth) * da_fine],
  /// and that interval's cosmic time lands in its `dt_particle` entry
  /// for the subgrid model. The per-particle arithmetic is kick(...,
  /// /*with_drag=*/false) followed by energy_kick() over the same
  /// interval, but dt_of runs once per bin active at `s`, never per
  /// particle: a substep costs at most depth + 1 time integrals whatever
  /// the particle count. Inactive particles and their dt_particle
  /// entries are left as they are; dt_particle is resized (zero-filled)
  /// to the particle count.
  void kick_active_bins(Particles& particles,
                        const std::vector<std::uint8_t>& active,
                        std::uint64_t s, int depth, double a0, double da_fine,
                        std::vector<double>& dt_particle) const;

 private:
  const cosmo::Background& bg_;
};

}  // namespace crkhacc::integrator
