// Ablation (Section IV-A): the separation-of-scales handover.
//
// Sweeps the split scale rs (in PM cells) and measures, for a fixed
// particle cloud: (a) the accuracy of PM + short-range against a direct
// periodic N^2 reference (summed over +-1 images), and (b) the cost of
// the short-range solve, which grows as rs^3 with the cutoff volume.
// This is the design trade the paper solves with its spectrally filtered
// PM: a compact, low-noise handover on a small rs.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"
#include "comm/world.h"
#include "core/exchange.h"
#include "core/particles.h"
#include "cosmology/units.h"
#include "gravity/short_range.h"
#include "mesh/pm_solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace crkhacc;

namespace {

/// Direct periodic reference force via +-1 minimum-image sum (adequate
/// for clouds spanning << box).
void direct_periodic(const Particles& p, double box, float softening,
                     std::vector<std::array<double, 3>>& forces) {
  forces.assign(p.size(), {0.0, 0.0, 0.0});
  const double soft2 = static_cast<double>(softening) * softening;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!p.is_owned(i)) continue;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (!p.is_owned(j) || i == j) continue;
      double dx = static_cast<double>(p.x[i]) - p.x[j];
      double dy = static_cast<double>(p.y[i]) - p.y[j];
      double dz = static_cast<double>(p.z[i]) - p.z[j];
      // Minimum image.
      if (dx > box / 2) dx -= box; else if (dx < -box / 2) dx += box;
      if (dy > box / 2) dy -= box; else if (dy < -box / 2) dy += box;
      if (dz > box / 2) dz -= box; else if (dz < -box / 2) dz += box;
      const double r2 = dx * dx + dy * dy + dz * dz + soft2;
      const double inv_r3 = 1.0 / (r2 * std::sqrt(r2));
      const double f = -units::kGravity * p.mass[j] * inv_r3;
      forces[i][0] += f * dx;
      forces[i][1] += f * dy;
      forces[i][2] += f * dz;
    }
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — force-split scale: accuracy vs short-range cost");

  const double box = 32.0;
  const std::size_t ng = 32;
  const int n_particles = 600;
  const float softening = 0.2f;

  std::printf("%-10s %-10s %-12s %-14s %-14s %-14s\n", "rs[cells]", "cutoff",
              "pairs/ptcl", "rms err", "p99 err", "short [s]");
  bench::print_rule();

  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(1, box);
    // Clustered cloud: three Gaussian blobs + background.
    SplitMix64 rng(99);
    Particles base;
    std::uint64_t id = 0;
    for (int blob = 0; blob < 3; ++blob) {
      const double cx = 8.0 + 8.0 * blob;
      for (int i = 0; i < n_particles / 4; ++i) {
        base.push_back(id++, Species::kDarkMatter,
                       static_cast<float>(decomp.wrap(cx + 1.5 * rng.next_gaussian())),
                       static_cast<float>(decomp.wrap(16.0 + 1.5 * rng.next_gaussian())),
                       static_cast<float>(decomp.wrap(16.0 + 1.5 * rng.next_gaussian())),
                       0, 0, 0, 1.0f);
      }
    }
    while (base.size() < static_cast<std::size_t>(n_particles)) {
      base.push_back(id++, Species::kDarkMatter,
                     static_cast<float>(rng.next_double() * box),
                     static_cast<float>(rng.next_double() * box),
                     static_cast<float>(rng.next_double() * box), 0, 0, 0,
                     1.0f);
    }
    std::vector<std::array<double, 3>> reference;
    direct_periodic(base, box, softening, reference);
    double ref_rms = 0.0;
    for (const auto& f : reference) {
      ref_rms += f[0] * f[0] + f[1] * f[1] + f[2] * f[2];
    }
    ref_rms = std::sqrt(ref_rms / static_cast<double>(reference.size()));

    for (double rs_cells : {0.75, 1.0, 1.25, 1.5, 2.0}) {
      Particles p = base;
      mesh::PMSolver pm(comm, decomp,
                        mesh::PMConfig{ng, box, rs_cells, 1e-3});
      const double overload = pm.split().cutoff();
      core::exchange_and_overload(comm, decomp, p, overload);
      pm.apply(comm, p, overload);  // long-range into ax (a=1: no scaling)

      // One rank: the chaining mesh wraps the box (no ghost replicas).
      tree::ChainingMesh mesh(decomp.local_box(0),
                              {std::max(overload, 2.0), 64,
                               /*periodic=*/decomp.self_periodic()});
      mesh.build(p);
      gravity::GravityConfig gconfig;
      gconfig.softening = softening;
      gpu::FlopRegistry flops;
      Stopwatch watch;
      const auto stats = gravity::compute_short_range(
          p, mesh, &pm.split(), gconfig, 1.0, nullptr, flops);
      const double short_seconds = watch.seconds();

      // Error vs reference over owned particles.
      double err2 = 0.0;
      std::vector<double> errors;
      std::size_t owned = 0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (!p.is_owned(i)) continue;
        const double ex = p.ax[i] - reference[i][0];
        const double ey = p.ay[i] - reference[i][1];
        const double ez = p.az[i] - reference[i][2];
        const double err = std::sqrt(ex * ex + ey * ey + ez * ez) / ref_rms;
        err2 += err * err;
        errors.push_back(err);
        ++owned;
      }
      std::sort(errors.begin(), errors.end());
      const double rms = std::sqrt(err2 / static_cast<double>(owned));
      const double p99 = errors[static_cast<std::size_t>(0.99 * errors.size())];
      std::printf("%-10.2f %-10.2f %-12.0f %-14.4f %-14.4f %-14.3f\n",
                  rs_cells, pm.split().cutoff(),
                  static_cast<double>(stats.interactions) /
                      static_cast<double>(owned),
                  rms, p99, short_seconds);
    }
  });
  bench::print_rule();
  std::printf("\nreading: larger rs costs ~rs^3 more pair work; the mesh "
              "alone cannot deliver sub-percent forces, and the pair sum\n"
              "alone cannot reach across the box — the split does both at "
              "a compact cutoff (the paper's low-noise handover).\n");
  return 0;
}
