// Physics gates of the periodic one-rank path: a one-rank world evolves
// no self-image replicas, its chaining mesh wraps, and the pair kernels
// read partners at their image positions (tree/chaining_mesh.h). These
// tests hold that path against overloaded (ghost) evaluations:
//
//  * owned-particle agreement with a reference whose replica layer is
//    three bin widths deep, at least as close as a one-bin replica layer
//    (the overload Simulation uses between ranks);
//  * rank-count agreement with the same initial condition decomposed
//    over 8 overloaded ranks;
//  * in situ analysis still links across the box edge (the replica
//    cloud is built at analysis time only).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/context.h"
#include "core/exchange.h"
#include "core/simulation.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "mesh/force_split.h"
#include "sph/solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

namespace crkhacc::core {
namespace {

/// Jittered gas lattice of n^3 particles in [0, box)^3 with random
/// velocities: every field the CRKSPH passes read is populated.
Particles gas_cloud(std::size_t n, double box, std::uint64_t seed) {
  SplitMix64 rng(seed);
  const double cell = box / static_cast<double>(n);
  Particles p;
  std::uint64_t id = 0;
  for (std::size_t iz = 0; iz < n; ++iz) {
    for (std::size_t iy = 0; iy < n; ++iy) {
      for (std::size_t ix = 0; ix < n; ++ix) {
        const auto coord = [&](std::size_t c) {
          const double v = (static_cast<double>(c) + 0.5 +
                            0.6 * (rng.next_double() - 0.5)) * cell;
          return static_cast<float>(v);
        };
        const auto vel = [&] {
          return static_cast<float>(4.0 * (rng.next_double() - 0.5));
        };
        const float x = coord(ix), y = coord(iy), z = coord(iz);
        const std::size_t i = p.push_back(
            id++, Species::kGas, x, y, z, vel(), vel(), vel(),
            static_cast<float>(0.8 + 0.4 * rng.next_double()));
        p.hsml[i] = static_cast<float>(1.2 * cell);
        p.u[i] = static_cast<float>(50.0 + 100.0 * rng.next_double());
      }
    }
  }
  return p;
}

struct Forces {
  std::vector<float> gx, gy, gz;         ///< short-range gravity
  std::vector<float> ax, ay, az, du;     ///< CRKSPH momentum / energy
  std::vector<float> rho;                ///< CRKSPH density
};

/// First evaluation of short-range gravity and the full CRKSPH pass
/// sequence over `p` on `mesh` (built here); results for the first
/// `owned` particles.
Forces evaluate(Particles p, tree::ChainingMesh mesh,
                const mesh::ForceSplit& split, std::size_t owned) {
  mesh.build(p);
  gpu::FlopRegistry flops;
  gravity::GravityConfig gconfig;
  gconfig.softening = 0.05f;
  gravity::compute_short_range(p, mesh, &split, gconfig, 1.0, nullptr, flops);
  Forces f;
  f.gx.assign(p.ax.begin(), p.ax.begin() + owned);
  f.gy.assign(p.ay.begin(), p.ay.begin() + owned);
  f.gz.assign(p.az.begin(), p.az.begin() + owned);
  p.clear_scratch();
  sph::SphSolver solver(sph::SphConfig{});
  solver.compute_forces(p, mesh, 1.0, nullptr, flops);
  f.ax.assign(p.ax.begin(), p.ax.begin() + owned);
  f.ay.assign(p.ay.begin(), p.ay.begin() + owned);
  f.az.assign(p.az.begin(), p.az.begin() + owned);
  f.du.assign(p.du.begin(), p.du.begin() + owned);
  f.rho.assign(p.rho.begin(), p.rho.begin() + owned);
  return f;
}

/// Largest per-particle deviation of a vector field from the reference,
/// relative to the reference's rms magnitude.
double vector_error(const std::vector<float>& x, const std::vector<float>& y,
                    const std::vector<float>& z, const std::vector<float>& rx,
                    const std::vector<float>& ry,
                    const std::vector<float>& rz) {
  double rms = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    rms += static_cast<double>(rx[i]) * rx[i] +
           static_cast<double>(ry[i]) * ry[i] +
           static_cast<double>(rz[i]) * rz[i];
    const double ex = static_cast<double>(x[i]) - rx[i];
    const double ey = static_cast<double>(y[i]) - ry[i];
    const double ez = static_cast<double>(z[i]) - rz[i];
    worst = std::max(worst, std::sqrt(ex * ex + ey * ey + ez * ez));
  }
  rms = std::sqrt(rms / static_cast<double>(rx.size()));
  return worst / rms;
}

double scalar_error(const std::vector<float>& v, const std::vector<float>& ref) {
  double rms = 0.0, worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    rms += static_cast<double>(ref[i]) * ref[i];
    worst = std::max(worst, std::abs(static_cast<double>(v[i]) - ref[i]));
  }
  return worst / std::sqrt(rms / static_cast<double>(ref.size()));
}

TEST(PeriodicOneRank, OwnedForcesAtLeastAsCloseAsGhostPathToWideReference) {
  // Box 9 with 3-wide bins: three bins per side, a kernel support of
  // 2.4 and a gravity cutoff inside one bin.
  const double box = 9.0, bin = 3.0;
  const mesh::ForceSplit split(0.4);
  ASSERT_LE(split.cutoff(), bin);
  const Particles ic = gas_cloud(9, box, 7);
  const std::size_t owned = ic.size();

  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(1, box);
    Particles p = ic;
    const auto stats = exchange_and_overload(comm, decomp, p, bin);
    ASSERT_EQ(stats.ghosts, 0);
    ASSERT_EQ(p.size(), owned);

    // The periodic path, as Simulation runs it.
    const Forces periodic = evaluate(
        p, tree::ChainingMesh(decomp.local_box(0), {bin, 64, true}), split,
        owned);
    // Replica layers built by the exchange's overload rule: one bin deep
    // (Simulation's overload width) and three bins deep (the reference:
    // every owned particle's density, moment and coefficient
    // dependencies complete).
    const auto ghost_path = [&](double overload) {
      return evaluate(analysis_replica_cloud(decomp, p, overload),
                      tree::ChainingMesh(decomp.overloaded_box(0, overload),
                                         {bin, 64}),
                      split, owned);
    };
    const Forces ghost = ghost_path(bin);
    const Forces reference = ghost_path(3.0 * bin);

    const double grav_periodic =
        vector_error(periodic.gx, periodic.gy, periodic.gz, reference.gx,
                     reference.gy, reference.gz);
    const double grav_ghost = vector_error(ghost.gx, ghost.gy, ghost.gz,
                                           reference.gx, reference.gy,
                                           reference.gz);
    const double hydro_periodic =
        vector_error(periodic.ax, periodic.ay, periodic.az, reference.ax,
                     reference.ay, reference.az);
    const double hydro_ghost = vector_error(ghost.ax, ghost.ay, ghost.az,
                                            reference.ax, reference.ay,
                                            reference.az);
    const double du_periodic = scalar_error(periodic.du, reference.du);
    const double du_ghost = scalar_error(ghost.du, reference.du);
    const double rho_periodic = scalar_error(periodic.rho, reference.rho);
    std::printf(
        "max error / rms vs 3-bin reference: gravity periodic %.3g ghost "
        "%.3g; CRKSPH accel periodic %.3g ghost %.3g; du periodic %.3g "
        "ghost %.3g; rho periodic %.3g\n",
        grav_periodic, grav_ghost, hydro_periodic, hydro_ghost, du_periodic,
        du_ghost, rho_periodic);
    // Float accumulation order differs between the three meshes, so
    // "at least as close" carries a rounding allowance.
    constexpr double kRounding = 1e-5;
    EXPECT_LE(grav_periodic, grav_ghost + kRounding);
    EXPECT_LE(hydro_periodic, hydro_ghost + kRounding);
    EXPECT_LE(du_periodic, du_ghost + kRounding);
    // And the periodic path is exact up to rounding.
    EXPECT_LT(grav_periodic, kRounding);
    EXPECT_LT(hydro_periodic, kRounding);
    EXPECT_LT(du_periodic, kRounding);
    EXPECT_LT(rho_periodic, kRounding);
  });
}

TEST(PeriodicOneRank, AgreesWithEightOverloadedRanks) {
  // The same initial condition on one periodic rank and on a 2x2x2
  // overloaded decomposition: owned gravity and density agree to float
  // accumulation order.
  const double box = 12.0, bin = 3.0;
  const mesh::ForceSplit split(0.4);
  const Particles ic = gas_cloud(12, box, 11);

  std::mutex mutex;
  std::map<std::uint64_t, std::array<float, 4>> by_id[2];  // {gx, gy, gz, rho}
  for (const int ranks : {1, 8}) {
    comm::World world(ranks);
    world.run([&](comm::Communicator& comm) {
      const comm::CartDecomposition decomp(comm.size(), box);
      Particles p;
      for (std::size_t i = 0; i < ic.size(); ++i) {
        if (decomp.owner_of({ic.x[i], ic.y[i], ic.z[i]}) != comm.rank()) {
          continue;
        }
        p.append_record(ic.record(i));
      }
      exchange_and_overload(comm, decomp, p, bin);
      const tree::ChainingMesh mesh =
          decomp.self_periodic()
              ? tree::ChainingMesh(decomp.local_box(0), {bin, 64, true})
              : tree::ChainingMesh(
                    decomp.overloaded_box(comm.rank(), bin), {bin, 64});
      const Forces f = evaluate(p, mesh, split, p.size());
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (!p.is_owned(i)) continue;
        by_id[ranks == 1 ? 0 : 1][p.id[i]] = {f.gx[i], f.gy[i], f.gz[i],
                                              f.rho[i]};
      }
    });
  }
  ASSERT_EQ(by_id[0].size(), ic.size());
  ASSERT_EQ(by_id[1].size(), ic.size());
  double g_rms = 0.0, rho_rms = 0.0;
  for (const auto& [id, v] : by_id[0]) {
    g_rms += static_cast<double>(v[0]) * v[0] + static_cast<double>(v[1]) * v[1] +
             static_cast<double>(v[2]) * v[2];
    rho_rms += static_cast<double>(v[3]) * v[3];
  }
  g_rms = std::sqrt(g_rms / static_cast<double>(ic.size()));
  rho_rms = std::sqrt(rho_rms / static_cast<double>(ic.size()));
  double g_worst = 0.0, rho_worst = 0.0;
  for (const auto& [id, one] : by_id[0]) {
    const auto& eight = by_id[1].at(id);
    double e2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double e = static_cast<double>(one[d]) - eight[d];
      e2 += e * e;
    }
    g_worst = std::max(g_worst, std::sqrt(e2));
    rho_worst = std::max(
        rho_worst, std::abs(static_cast<double>(one[3]) - eight[3]));
  }
  EXPECT_LT(g_worst / g_rms, 1e-5);
  EXPECT_LT(rho_worst / rho_rms, 1e-5);
}

TEST(PeriodicOneRank, AnalysisFindsHaloAcrossBoxEdgeOnce) {
  // A compact clump straddling the x = 0 face of a one-rank box, on a
  // lattice background too sparse to link. The evolved state holds no
  // replicas; the analysis cloud must still join both halves.
  SimConfig config;
  config.np = 8;
  config.box = 8.0;
  config.ng = 16;
  config.z_init = 20.0;
  config.z_final = 5.0;
  config.num_pm_steps = 2;
  config.hydro = false;
  config.subgrid_on = false;

  Particles p;
  std::uint64_t id = 0;
  for (int iz = 0; iz < 8; ++iz) {
    for (int iy = 0; iy < 8; ++iy) {
      for (int ix = 0; ix < 8; ++ix) {
        p.push_back(id++, Species::kDarkMatter, ix + 0.5f, iy + 0.5f,
                    iz + 0.5f, 0, 0, 0, 1.0f);
      }
    }
  }
  constexpr int kClump = 40;
  SplitMix64 rng(5);
  int left = 0;
  for (int k = 0; k < kClump; ++k) {
    float x = static_cast<float>(0.01 + 0.12 * (rng.next_double() - 0.5));
    if (x < 0.0f) {
      x += 8.0f;
      ++left;
    }
    p.push_back(id++, Species::kDarkMatter, x,
                static_cast<float>(4.0 + 0.12 * (rng.next_double() - 0.5)),
                static_cast<float>(4.0 + 0.12 * (rng.next_double() - 0.5)),
                0, 0, 0, 1.0f);
  }
  ASSERT_GE(left, 8);  // both halves could pass as halos on their own
  ASSERT_GE(kClump - left, 8);

  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SimContext ctx(1);
    Simulation sim(ctx, comm, config);
    sim.initialize_from(Particles(p), 0);
    const AnalysisResult result = sim.run_analysis();
    EXPECT_EQ(result.halo_count, 1);
    ASSERT_EQ(result.local_halos.size(), 1u);
    EXPECT_EQ(result.local_halos[0].count, static_cast<std::size_t>(kClump));
    EXPECT_DOUBLE_EQ(result.local_halos[0].mass, kClump * 1.0);
    // The catalog keeps the image whose center lies in the box.
    EXPECT_GE(result.local_halos[0].center[0], 0.0);
    EXPECT_LT(result.local_halos[0].center[0], 8.0);
    // Analysis left the evolved state replica-free.
    for (std::size_t i = 0; i < sim.particles().size(); ++i) {
      EXPECT_TRUE(sim.particles().is_owned(i));
    }
  });
}

TEST(PeriodicOneRank, StepsEndWrappedReplicaFreeAndThreadInvariant) {
  // Every one-rank step ends with positions wrapped into the box and no
  // replica in the state, and the whole path stays bitwise invariant
  // under the thread count.
  SimConfig config;
  config.np = 8;
  config.box = 16.0;
  config.ng = 16;
  config.z_init = 20.0;
  config.z_final = 2.0;
  config.num_pm_steps = 3;
  config.hydro = true;
  config.subgrid_on = true;
  config.bins.max_depth = 3;
  config.seed = 21;
  std::vector<Particles> finals;
  for (const int threads : {1, 4}) {
    config.threads = threads;
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      SimContext ctx(config.threads);
      Simulation sim(ctx, comm, config);
      sim.initialize();
      for (int s = 0; s < config.num_pm_steps; ++s) {
        const StepReport report = sim.step();
        EXPECT_EQ(report.exchange.ghosts, 0);
        const Particles& p = sim.particles();
        for (std::size_t i = 0; i < p.size(); ++i) {
          ASSERT_TRUE(p.is_owned(i));
          for (const float v : {p.x[i], p.y[i], p.z[i]}) {
            ASSERT_GE(v, 0.0f) << "step " << s;
            ASSERT_LT(v, 16.0f) << "step " << s;
          }
        }
      }
      finals.push_back(sim.particles());
    });
  }
  ASSERT_EQ(finals[0].size(), finals[1].size());
  for (std::size_t i = 0; i < finals[0].size(); ++i) {
    ASSERT_EQ(finals[0].x[i], finals[1].x[i]);
    ASSERT_EQ(finals[0].vx[i], finals[1].vx[i]);
    ASSERT_EQ(finals[0].u[i], finals[1].u[i]);
    ASSERT_EQ(finals[0].rho[i], finals[1].rho[i]);
  }
}

}  // namespace
}  // namespace crkhacc::core
