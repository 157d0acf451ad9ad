#include "subgrid/model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "cosmology/units.h"
#include "util/assertions.h"
#include "util/rng.h"
#include "util/trace.h"

namespace crkhacc::subgrid {

SubgridModel::SubgridModel(const SubgridConfig& config)
    : config_(config),
      cooling_(std::make_shared<const CoolingTable>(config.cooling)) {}

SubgridModel::SubgridModel(const SubgridConfig& config,
                           std::shared_ptr<const CoolingTable> cooling)
    : config_(config), cooling_(std::move(cooling)) {
  CHECK(cooling_ != nullptr);
}

double SubgridModel::n_h_of(const Particles& particles, std::size_t i,
                            double a) const {
  const double rho_proper = particles.rho[i] / (a * a * a);
  return n_hydrogen_cgs(rho_proper, config_.cooling.h,
                        config_.cooling.x_hydrogen);
}

double SubgridModel::dynamical_time(double rho_proper) const {
  if (rho_proper <= 0.0) return std::numeric_limits<double>::infinity();
  return std::sqrt(3.0 * std::numbers::pi /
                   (32.0 * units::kGravity * rho_proper));
}

void SubgridModel::inject_thermal(Particles& particles,
                                  const tree::ChainingMesh& gas_mesh,
                                  float x, float y, float z, double energy,
                                  double metals, SubgridStats& stats) {
  const float radius = static_cast<float>(
      std::min(config_.injection_radius, 0.99 * gas_mesh.min_bin_width()));
  // Collect kernel-weighted gas receivers.
  struct Receiver {
    std::uint32_t index;
    double weight;
  };
  std::vector<Receiver> receivers;
  double weight_sum = 0.0;
  gas_mesh.for_each_in_radius(
      particles, x, y, z, radius, [&](std::uint32_t j, float d2) {
        if (!particles.is_gas(j)) return;  // stale mesh entries may be stars
        const double w = static_cast<double>(particles.mass[j]) *
                         (1.0 - std::sqrt(static_cast<double>(d2)) / radius +
                          1e-3);
        receivers.push_back(Receiver{j, w});
        weight_sum += w;
      });
  if (receivers.empty() || weight_sum <= 0.0) return;  // energy has nowhere to go
  for (const auto& r : receivers) {
    const double share = r.weight / weight_sum;
    particles.u[r.index] +=
        static_cast<float>(energy * share / particles.mass[r.index]);
    if (metals > 0.0) {
      particles.metal[r.index] +=
          static_cast<float>(metals * share / particles.mass[r.index]);
    }
  }
  stats.energy_injected += energy;
  stats.metals_produced += metals;
}

SubgridStats SubgridModel::apply(Particles& particles,
                                 const tree::ChainingMesh& gas_mesh,
                                 const cosmo::Background& bg, double a,
                                 std::span<const double> dt,
                                 const std::uint8_t* active,
                                 std::uint64_t step) {
  (void)bg;
  HACC_TRACE_SPAN("subgrid");
  SubgridStats stats;
  const std::size_t n = particles.size();
  CHECK(dt.size() == n);
  const CounterRng rng(config_.seed, step);
  const double a3 = a * a * a;

  // --- cooling + star formation over gas -------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    if (!particles.is_gas(i)) continue;
    if (active && !active[i]) continue;

    // Radiative cooling (stable exponential update toward the UV floor).
    if (config_.cooling.enabled) {
      particles.u[i] = static_cast<float>(
          cooling_->cool(particles.u[i], particles.rho[i], particles.metal[i],
                        a, dt[i]));
    }

    // Star formation: density + overdensity + temperature gates, then
    // the stochastic Schmidt law.
    if (config_.star_formation.enabled) {
      const double n_h = n_h_of(particles, i, a);
      const double t_K =
          units::temperature_K(particles.u[i], units::kMuIonized);
      const bool overdense =
          config_.mean_gas_density <= 0.0 ||
          particles.rho[i] > config_.star_formation.min_overdensity *
                                 config_.mean_gas_density;
      if (overdense && n_h > config_.star_formation.n_h_threshold &&
          t_K < config_.star_formation.t_max_K) {
        const double t_dyn = dynamical_time(particles.rho[i] / a3);
        const double prob =
            1.0 -
            std::exp(-config_.star_formation.efficiency * dt[i] / t_dyn);
        // Counter-based draw keyed on particle id: ghost replicas on
        // other ranks reach the identical decision.
        if (rng.uniform(particles.id[i]) < prob) {
          particles.species[i] = static_cast<std::uint8_t>(Species::kStar);
          if (particles.is_owned(i)) {
            ++stats.stars_formed;
            stats.mass_in_stars += particles.mass[i];
          }
          if (config_.supernova.enabled) {
            // Prompt SN energy + metal return from the formed population.
            const double mass_msun = static_cast<double>(particles.mass[i]) *
                                     1e10 / config_.cooling.h;
            const double e_code = erg_to_code_energy(
                config_.supernova.e_sn_per_msun * mass_msun,
                config_.cooling.h);
            const double metal_mass =
                config_.supernova.metal_yield * particles.mass[i];
            if (particles.is_owned(i)) ++stats.sn_events;
            SubgridStats local;
            inject_thermal(particles, gas_mesh, particles.x[i],
                           particles.y[i], particles.z[i], e_code, metal_mass,
                           local);
            if (particles.is_owned(i)) stats += local;
          }
        }
      }
    }
  }

  // --- black holes -------------------------------------------------------
  if (config_.agn.enabled) {
    // Existing BH list (small).
    std::vector<std::size_t> black_holes;
    for (std::size_t i = 0; i < n; ++i) {
      if (particles.species[i] == static_cast<std::uint8_t>(Species::kBlackHole)) {
        black_holes.push_back(i);
      }
    }

    // Seeding: very dense gas (physical AND comoving-overdensity gates)
    // with no BH inside the exclusion radius.
    for (std::size_t i = 0; i < n; ++i) {
      if (!particles.is_gas(i)) continue;
      if (active && !active[i]) continue;
      if (n_h_of(particles, i, a) < config_.agn.seed_n_h) continue;
      if (config_.mean_gas_density > 0.0 &&
          particles.rho[i] < 10.0 * config_.star_formation.min_overdensity *
                                 config_.mean_gas_density) {
        continue;
      }
      bool excluded = false;
      const double r2_excl =
          config_.agn.seed_exclusion * config_.agn.seed_exclusion;
      for (std::size_t b : black_holes) {
        // Minimum image on a periodic mesh (one-rank worlds hold no
        // ghost copy of a hole across the box edge).
        const auto sep = [&](float pi, float pb, int d) {
          double v = static_cast<double>(pi) - pb;
          const double period = gas_mesh.period(d);
          if (period > 0.0) v -= period * std::round(v / period);
          return v;
        };
        const double dx = sep(particles.x[i], particles.x[b], 0);
        const double dy = sep(particles.y[i], particles.y[b], 1);
        const double dz = sep(particles.z[i], particles.z[b], 2);
        if (dx * dx + dy * dy + dz * dz < r2_excl) {
          excluded = true;
          break;
        }
      }
      if (excluded) continue;
      particles.species[i] = static_cast<std::uint8_t>(Species::kBlackHole);
      black_holes.push_back(i);
      if (particles.is_owned(i)) ++stats.bh_seeded;
    }

    // Accretion + thermal feedback.
    const double c_kms = 2.998e5;
    for (std::size_t b : black_holes) {
      if (active && !active[b]) continue;
      // Local gas state from the injection neighborhood.
      const float radius = static_cast<float>(std::min(
          config_.injection_radius, 0.99 * gas_mesh.min_bin_width()));
      double rho_sum = 0.0, cs_sum = 0.0, mass_sum = 0.0;
      std::vector<std::uint32_t> neighbors;
      gas_mesh.for_each_in_radius(
          particles, particles.x[b], particles.y[b], particles.z[b], radius,
          [&](std::uint32_t j, float) {
            if (!particles.is_gas(j)) return;
            neighbors.push_back(j);
            rho_sum += particles.rho[j];
            const double g = units::kGamma;
            cs_sum += std::sqrt(std::max(
                1e-10, g * (g - 1.0) * static_cast<double>(particles.u[j])));
            mass_sum += particles.mass[j];
          });
      if (neighbors.empty()) continue;
      const double inv_nn = 1.0 / static_cast<double>(neighbors.size());
      const double rho_proper = rho_sum * inv_nn / a3;
      const double cs = std::max(1.0, cs_sum * inv_nn);
      const double m_bh = particles.mass[b];
      const double bondi = config_.agn.accretion_alpha * 4.0 *
                           std::numbers::pi * units::kGravity *
                           units::kGravity * m_bh * m_bh * rho_proper /
                           (cs * cs * cs);
      const double cap = config_.agn.max_fraction * m_bh /
                         std::max(1e-10, dynamical_time(rho_proper));
      const double mdot = std::min(bondi, cap);
      const double dm = std::min(mdot * dt[b], 0.5 * mass_sum);
      if (dm <= 0.0) continue;
      // Nibble the accreted mass from the neighbors (conserves mass).
      const double frac = dm / mass_sum;
      for (std::uint32_t j : neighbors) {
        particles.mass[j] *= static_cast<float>(1.0 - frac);
      }
      particles.mass[b] += static_cast<float>(dm);
      const double energy = config_.agn.eps_f_eps_r * dm * c_kms * c_kms;
      SubgridStats local;
      inject_thermal(particles, gas_mesh, particles.x[b], particles.y[b],
                     particles.z[b], energy, 0.0, local);
      if (particles.is_owned(b)) {
        ++stats.agn_events;
        stats += local;
      }
    }
  }
  return stats;
}

double SubgridModel::min_source_timescale(const Particles& particles,
                                          const cosmo::Background& bg,
                                          double a,
                                          const std::uint8_t* active) const {
  (void)bg;
  double t_min = std::numeric_limits<double>::infinity();
  const double a3 = a * a * a;
  const std::size_t n = particles.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!particles.is_gas(i)) continue;
    if (active && !active[i]) continue;
    if (!config_.star_formation.enabled && !config_.agn.enabled) break;
    const double n_h = n_h_of(particles, i, a);
    const bool overdense =
        config_.mean_gas_density <= 0.0 ||
        particles.rho[i] > config_.star_formation.min_overdensity *
                               config_.mean_gas_density;
    if (overdense && n_h > config_.star_formation.n_h_threshold) {
      t_min = std::min(t_min, dynamical_time(particles.rho[i] / a3));
    }
  }
  return t_min;
}

}  // namespace crkhacc::subgrid
