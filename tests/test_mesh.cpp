// Tests for the distributed PM solver: deposit, Poisson solve, force
// interpolation, and the PM + short-range force-split accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "comm/world.h"
#include "core/particles.h"
#include "cosmology/units.h"
#include "fft/distributed_fft.h"
#include "fft/fft.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "mesh/pm_solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

namespace crkhacc::mesh {
namespace {

TEST(CicAxis, WeightsAndCells) {
  // Cell centers at (i + 0.5) * cell. A particle exactly on a center has
  // full weight in that cell.
  const auto at_center = cic_axis(2.5, 1.0);
  EXPECT_EQ(at_center.cell, 2);
  EXPECT_NEAR(at_center.w_hi, 0.0, 1e-12);
  const auto between = cic_axis(3.0, 1.0);
  EXPECT_EQ(between.cell, 2);
  EXPECT_NEAR(between.w_hi, 0.5, 1e-12);
  const auto negative = cic_axis(0.2, 1.0);
  EXPECT_EQ(negative.cell, -1);  // wraps periodically at deposit time
  EXPECT_NEAR(negative.w_hi, 0.7, 1e-12);
}

TEST(PmSolver, DepositConservesMass) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(comm.size(), 16.0);
    PMSolver pm(comm, decomp, PMConfig{16, 16.0, 1.5});
    Particles p;
    if (comm.rank() == 0) {
      SplitMix64 rng(5);
      for (int i = 0; i < 50; ++i) {
        p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                    static_cast<float>(rng.next_double() * 16.0),
                    static_cast<float>(rng.next_double() * 16.0),
                    static_cast<float>(rng.next_double() * 16.0), 0, 0, 0,
                    2.0f);
      }
    }
    const auto density = pm.deposit(comm, p);
    const double cell_volume = 1.0;
    double local_mass = 0.0;
    for (double d : density) local_mass += d * cell_volume;
    const double total = comm.allreduce_scalar(local_mass, comm::ReduceOp::kSum);
    EXPECT_NEAR(total, 100.0, 1e-6);
    EXPECT_NEAR(pm.mean_density(), 100.0 / (16.0 * 16.0 * 16.0), 1e-9);
  });
}

TEST(PmSolver, PointMassDepositsToSingleCellAtCenter) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(1, 8.0);
    PMSolver pm(comm, decomp, PMConfig{8, 8.0, 1.5});
    Particles p;
    // Cell centers at (i + 0.5): put the particle exactly on (2.5, 3.5, 4.5).
    p.push_back(0, Species::kDarkMatter, 2.5f, 3.5f, 4.5f, 0, 0, 0, 8.0f);
    const auto density = pm.deposit(comm, p);
    const std::size_t ng = 8;
    EXPECT_NEAR(density[(4 * ng + 3) * ng + 2], 8.0, 1e-5);
    double total = 0.0;
    for (double d : density) total += d;
    EXPECT_NEAR(total, 8.0, 1e-5);
  });
}

TEST(PmSolver, UniformLatticeGivesNearZeroForce) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(1, 16.0);
    PMSolver pm(comm, decomp, PMConfig{16, 16.0, 1.5});
    Particles p;
    std::uint64_t id = 0;
    for (int iz = 0; iz < 8; ++iz) {
      for (int iy = 0; iy < 8; ++iy) {
        for (int ix = 0; ix < 8; ++ix) {
          p.push_back(id++, Species::kDarkMatter, ix * 2.0f + 1.0f,
                      iy * 2.0f + 1.0f, iz * 2.0f + 1.0f, 0, 0, 0, 1.0f);
        }
      }
    }
    pm.apply(comm, p, 1.0);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_NEAR(p.ax[i], 0.0, 1e-4);
      EXPECT_NEAR(p.ay[i], 0.0, 1e-4);
      EXPECT_NEAR(p.az[i], 0.0, 1e-4);
    }
  });
}

TEST(PmSolver, ForceSplitRecoversNewtonianPairForce) {
  // Two particles at several separations: the PM mesh force plus the
  // split short-range pair force must reproduce G m / r^2 (up to small
  // periodic-image and grid corrections).
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const double box = 64.0;
    const comm::CartDecomposition decomp(1, box);
    PMSolver pm(comm, decomp, PMConfig{64, box, 1.8});
    const double cutoff = pm.split().cutoff();

    for (double r : {2.0, 3.5, 5.0, 8.0}) {
      Particles p;
      p.push_back(0, Species::kDarkMatter, 20.25f, 20.25f, 20.25f, 0, 0, 0,
                  100.0f);
      p.push_back(1, Species::kDarkMatter, static_cast<float>(20.25 + r),
                  20.25f, 20.25f, 0, 0, 0, 100.0f);
      // Long-range mesh piece.
      pm.apply(comm, p, 1.0);
      // Work in "G-free" units: divide by G m.
      const double mesh_part = p.ax[1] / (units::kGravity * 100.0);
      const double pair_part =
          (r < cutoff) ? -pm.split().short_range_factor(r) / (r * r) : 0.0;
      const double total = mesh_part + pair_part;
      const double newton = -1.0 / (r * r);
      EXPECT_NEAR(total, newton, 0.06 * std::abs(newton))
          << "separation " << r;
    }
  });
}

TEST(PmSolver, MatchesFullSpectrumReference) {
  // The half-spectrum solve against the full complex formulation, done
  // serially here: deposit, full 3-D FFT, F_d = -i k_d G(k) rho_k on every
  // mode, full inverse, real part, CIC interpolation. A small split scale
  // keeps the Nyquist modes (where the half spectrum needs care) well
  // above the filter's floor; ng 8 has Nyquist planes, ng 9 has none.
  for (const std::size_t ng : {std::size_t{8}, std::size_t{9}}) {
    comm::World world(1);
    world.run([ng](comm::Communicator& comm) {
      const double box = static_cast<double>(ng);
      const comm::CartDecomposition decomp(1, box);
      PMSolver pm(comm, decomp, PMConfig{ng, box, 0.3});
      Particles p;
      SplitMix64 rng(83);
      for (int i = 0; i < 40; ++i) {
        p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                    static_cast<float>(rng.next_double() * box),
                    static_cast<float>(rng.next_double() * box),
                    static_cast<float>(rng.next_double() * box), 0, 0, 0,
                    1.0f + static_cast<float>(rng.next_double()));
      }
      const auto density = pm.deposit(comm, p);
      std::vector<fft::Complex> rho_k(density.size());
      for (std::size_t s = 0; s < density.size(); ++s) {
        rho_k[s] = fft::Complex(density[s] - pm.mean_density(), 0.0);
      }
      fft::transform_3d(rho_k, ng, ng, ng, false);  // (z, y, x), x fastest

      const double cell = box / static_cast<double>(ng);
      std::vector<double> k(ng), w(ng);
      for (std::size_t i = 0; i < ng; ++i) {
        k[i] = 2.0 * std::numbers::pi / box *
               static_cast<double>(fft::freq_of(i, ng));
        w[i] = i == 0 ? 1.0 : std::sin(0.5 * k[i] * cell) / (0.5 * k[i] * cell);
      }
      std::array<std::vector<double>, 3> force;
      for (int d = 0; d < 3; ++d) {
        std::vector<fft::Complex> f(rho_k.size());
        for (std::size_t z = 0; z < ng; ++z) {
          for (std::size_t y = 0; y < ng; ++y) {
            for (std::size_t x = 0; x < ng; ++x) {
              const double k2 = k[x] * k[x] + k[y] * k[y] + k[z] * k[z];
              if (k2 <= 0.0) continue;
              const double w2 = w[x] * w[x] * w[y] * w[y] * w[z] * w[z];
              const double g = -4.0 * std::numbers::pi * units::kGravity *
                               pm.split().long_range_filter(std::sqrt(k2)) /
                               (k2 * w2 * w2);
              const double kd = d == 0 ? k[x] : d == 1 ? k[y] : k[z];
              const std::size_t s = (z * ng + y) * ng + x;
              f[s] = fft::Complex(0.0, -kd * g) * rho_k[s];
            }
          }
        }
        fft::transform_3d(f, ng, ng, ng, true);
        for (const auto& v : f) force[d].push_back(v.real());
      }

      Particles solved = p;
      pm.apply(comm, solved, 1.0);
      double scale = 0.0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        for (const float a : {solved.ax[i], solved.ay[i], solved.az[i]}) {
          scale = std::max(scale, static_cast<double>(std::abs(a)));
        }
      }
      ASSERT_GT(scale, 0.0);
      for (std::size_t i = 0; i < p.size(); ++i) {
        const CicAxis ax = cic_axis(p.x[i], cell);
        const CicAxis ay = cic_axis(p.y[i], cell);
        const CicAxis az = cic_axis(p.z[i], cell);
        auto wrap = [ng](long c) {
          return static_cast<std::size_t>((c % static_cast<long>(ng) +
                                           static_cast<long>(ng)) %
                                          static_cast<long>(ng));
        };
        std::array<double, 3> want{0.0, 0.0, 0.0};
        for (int dz = 0; dz < 2; ++dz) {
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              const double weight = (dz ? az.w_hi : 1.0 - az.w_hi) *
                                    (dy ? ay.w_hi : 1.0 - ay.w_hi) *
                                    (dx ? ax.w_hi : 1.0 - ax.w_hi);
              const std::size_t s =
                  (wrap(az.cell + dz) * ng + wrap(ay.cell + dy)) * ng +
                  wrap(ax.cell + dx);
              for (int d = 0; d < 3; ++d) want[d] += weight * force[d][s];
            }
          }
        }
        EXPECT_NEAR(solved.ax[i], want[0], 1e-5 * scale) << "ng " << ng;
        EXPECT_NEAR(solved.ay[i], want[1], 1e-5 * scale) << "ng " << ng;
        EXPECT_NEAR(solved.az[i], want[2], 1e-5 * scale) << "ng " << ng;
      }
    });
  }
}

TEST(PmSolver, ForceIndependentOfRankCount) {
  // The same clustered cloud split over 1, 2, 3, 4 and 8 ranks gets the
  // same mesh forces: the distributed deposit/solve/fetch/interpolate
  // pipeline is exact up to summation order. The cloud fills the 5-cell
  // cube [0.5, 5.5)^2 x [1.5, 6.5) near the origin, so at 8 ranks one
  // rank owns it all and the four ranks above z = 8 hold nothing; its
  // stencils straddle the 2-plane slabs; and every rank also carries the
  // ghost replicas its overloaded box covers, at out-of-box coordinates
  // across the periodic edge included, which must read the cells their
  // owners read.
  const double box = 16.0;
  const double overload = 1.0;
  SplitMix64 rng(31);
  std::vector<std::array<float, 3>> cloud(96);
  for (auto& pos : cloud) {
    for (int d = 0; d < 3; ++d) {
      const double lo = d == 2 ? 1.5 : 0.5;
      pos[d] = static_cast<float>(lo + 5.0 * rng.next_double());
    }
  }

  struct RankForces {
    std::vector<std::array<float, 3>> owned;  ///< by cloud index
    /// (cloud index, force) of every ghost replica on any rank.
    std::vector<std::pair<std::size_t, std::array<float, 3>>> ghosts;
    int empty_ranks = 0;
    std::size_t out_of_box_ghosts = 0;
  };
  auto forces_with_ranks = [&](int ranks) {
    RankForces out;
    out.owned.resize(cloud.size());
    std::mutex mutex;
    comm::World world(ranks);
    world.run([&](comm::Communicator& comm) {
      const comm::CartDecomposition decomp(comm.size(), box);
      const auto obox = decomp.overloaded_box(comm.rank(), overload);
      PMSolver pm(comm, decomp, PMConfig{16, box, 1.5});
      Particles p;
      std::size_t out_of_box = 0;
      for (std::size_t i = 0; i < cloud.size(); ++i) {
        const std::array<double, 3> pos{cloud[i][0], cloud[i][1], cloud[i][2]};
        const bool owned = decomp.owner_of(pos) == comm.rank();
        if (owned) {
          p.push_back(i, Species::kDarkMatter, cloud[i][0], cloud[i][1],
                      cloud[i][2], 0, 0, 0, 1.5f);
        }
        // Ghost replicas: every periodic image in the overloaded box
        // except the owned particle itself.
        for (int s = 0; s < 27; ++s) {
          const std::array<int, 3> shift{s % 3 - 1, s / 3 % 3 - 1, s / 9 - 1};
          if (owned && shift == std::array<int, 3>{0, 0, 0}) continue;
          std::array<float, 3> image{};
          std::array<double, 3> at{};
          for (int d = 0; d < 3; ++d) {
            image[d] = static_cast<float>(pos[d] + shift[d] * box);
            at[d] = image[d];
          }
          if (!obox.contains(at)) continue;
          const std::size_t g = p.push_back(i, Species::kDarkMatter, image[0],
                                            image[1], image[2], 0, 0, 0, 1.5f);
          p.ghost[g] = 1;
          if (shift != std::array<int, 3>{0, 0, 0}) ++out_of_box;
        }
      }
      pm.apply(comm, p, overload);
      std::lock_guard<std::mutex> lock(mutex);
      if (p.empty()) ++out.empty_ranks;
      out.out_of_box_ghosts += out_of_box;
      for (std::size_t k = 0; k < p.size(); ++k) {
        const std::array<float, 3> f{p.ax[k], p.ay[k], p.az[k]};
        if (p.is_owned(k)) {
          out.owned[p.id[k]] = f;
        } else {
          out.ghosts.emplace_back(p.id[k], f);
        }
      }
    });
    return out;
  };

  auto expect_close = [](const std::array<float, 3>& got,
                         const std::array<float, 3>& want, const char* what,
                         int ranks, std::size_t i) {
    for (int d = 0; d < 3; ++d) {
      const double scale = std::abs(want[d]) + 1e-4;
      EXPECT_NEAR(got[d], want[d], 1e-4 * scale)
          << what << " " << i << " axis " << d << " at " << ranks << " ranks";
    }
  };
  const auto serial = forces_with_ranks(1);
  for (int ranks : {2, 3, 4, 8}) {
    const auto parallel = forces_with_ranks(ranks);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      expect_close(parallel.owned[i], serial.owned[i], "particle", ranks, i);
    }
    for (const auto& [i, force] : parallel.ghosts) {
      expect_close(force, serial.owned[i], "ghost of", ranks, i);
    }
    EXPECT_GT(parallel.out_of_box_ghosts, 0u) << ranks << " ranks";
    if (ranks == 8) {
      EXPECT_EQ(parallel.empty_ranks, 4);
    }
  }
}

TEST(PmSolver, FetchBytesScaleWithOccupiedCells) {
  // One particle on a 4-rank 64^3 mesh: beyond its deposit and the
  // transforms' transposes, apply ships only the force at the stencil
  // cells another rank owns, an 8-byte id out and three doubles back per
  // cell. The stencil straddles the z = 16 slab boundary, so at least
  // one of its two 2x2 planes is remote.
  comm::World world(4);
  world.run([](comm::Communicator& comm) {
    const double box = 64.0;
    const std::size_t ng = 64;
    const comm::CartDecomposition decomp(comm.size(), box);
    PMSolver pm(comm, decomp, PMConfig{ng, box, 1.5});
    Particles p;
    double remote_cells = 0.0;
    const std::array<double, 3> pos{20.3, 40.7, 16.0};
    if (decomp.owner_of(pos) == comm.rank()) {
      p.push_back(0, Species::kDarkMatter, static_cast<float>(pos[0]),
                  static_cast<float>(pos[1]), static_cast<float>(pos[2]), 0,
                  0, 0, 1.0f);
      for (std::size_t plane : {15, 16}) {
        if (pm.fft().z_partition().owner(plane) != comm.rank()) {
          remote_cells += 4.0;
        }
      }
      EXPECT_GT(remote_cells, 0.0);
    }
    auto bytes_of = [&](auto&& work) {
      const std::uint64_t before = comm.bytes_sent();
      work();
      return comm.bytes_sent() - before;
    };
    const std::uint64_t deposit = bytes_of([&] { pm.deposit(comm, p); });
    fft::DistributedFFT fft(comm, ng);
    const std::uint64_t transforms = bytes_of([&] {
      fft.forward_real();
      for (int d = 0; d < 3; ++d) fft.backward_real();
    });
    const std::uint64_t apply = bytes_of([&] { pm.apply(comm, p, 8.0); });
    ASSERT_GE(apply, deposit + transforms);
    const double fetch = comm.allreduce_scalar(
        static_cast<double>(apply - deposit - transforms),
        comm::ReduceOp::kSum);
    const double expected =
        comm.allreduce_scalar(remote_cells, comm::ReduceOp::kSum) *
        (sizeof(std::uint64_t) + 3 * sizeof(double));
    EXPECT_EQ(fetch, expected);
  });
}

TEST(PmSolver, GhostParticlesReceiveForces) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(1, 16.0);
    PMSolver pm(comm, decomp, PMConfig{16, 16.0, 1.5});
    Particles p;
    p.push_back(0, Species::kDarkMatter, 8.0f, 8.0f, 8.0f, 0, 0, 0, 500.0f);
    // Ghost replica outside the box (unwrapped image coordinate).
    const std::size_t g =
        p.push_back(1, Species::kDarkMatter, -1.0f, 8.0f, 8.0f, 0, 0, 0, 1.0f);
    p.ghost[g] = 1;
    pm.apply(comm, p, 2.0);
    // The ghost must feel the central mass pulling it (periodically) —
    // nonzero interpolated force, no crash on out-of-box coordinates.
    EXPECT_TRUE(std::isfinite(p.ax[g]));
    EXPECT_NE(p.ax[g], 0.0f);
  });
}

TEST(PmSolver, OverdensitySpectrumFlatForUniformField) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(comm.size(), 8.0);
    PMSolver pm(comm, decomp, PMConfig{8, 8.0, 1.5});
    Particles p;
    // Uniform lattice on cell centers, all owned by the right ranks.
    for (int iz = 0; iz < 8; ++iz) {
      for (int iy = 0; iy < 8; ++iy) {
        for (int ix = 0; ix < 8; ++ix) {
          const std::array<double, 3> pos{ix + 0.5, iy + 0.5, iz + 0.5};
          if (decomp.owner_of(pos) != comm.rank()) continue;
          p.push_back(static_cast<std::uint64_t>((iz * 8 + iy) * 8 + ix),
                      Species::kDarkMatter, static_cast<float>(pos[0]),
                      static_cast<float>(pos[1]), static_cast<float>(pos[2]),
                      0, 0, 0, 1.0f);
        }
      }
    }
    const auto spectrum = pm.overdensity_spectrum(comm, p);
    for (const auto& mode : spectrum) {
      EXPECT_NEAR(std::abs(mode), 0.0, 1e-6);
    }
  });
}

}  // namespace
}  // namespace crkhacc::mesh
