// Tests for the deterministic intra-node threading layer: the
// work-stealing ThreadPool itself, and bitwise identity of every threaded
// short-range pipeline stage (tree build, short-range gravity, CRKSPH
// sweeps, PM deposit/interpolate) across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "comm/world.h"
#include "core/particles.h"
#include "core/simulation.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "mesh/pm_solver.h"
#include "sph/solver.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crkhacc {
namespace {

using util::ThreadPool;

const unsigned kThreadCounts[] = {1, 2, 4, 8};

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

/// Random particles of one species inside [0, box)^3.
Particles random_particles(std::size_t n, double box, Species species,
                           std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = p.push_back(
        static_cast<std::uint64_t>(i), species,
        static_cast<float>(rng.next_double() * box),
        static_cast<float>(rng.next_double() * box),
        static_cast<float>(rng.next_double() * box),
        static_cast<float>(rng.next_double() - 0.5),
        static_cast<float>(rng.next_double() - 0.5),
        static_cast<float>(rng.next_double() - 0.5),
        1.0f + static_cast<float>(rng.next_double()));
    if (species == Species::kGas) {
      p.hsml[j] = static_cast<float>(0.8 + 0.4 * rng.next_double());
      p.u[j] = 50.0f + 100.0f * static_cast<float>(rng.next_double());
    }
  }
  return p;
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- ThreadPool unit tests ---------------------------------------------------

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, 1,
                    [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  const double r = pool.reduce(
      0, 0, 1, -1.5, [](std::size_t, std::size_t) { return 7.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(r, -1.5);
  EXPECT_EQ(pool.stats().parallel_regions, 0u);
}

TEST(ThreadPool, RangeSmallerThanThreadCountCoversEverything) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, 3, 1,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                    });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EveryElementVisitedExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, n, 64,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                    });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(pool.stats().chunks_executed, (n + 63) / 64);
  EXPECT_EQ(pool.stats().busy_seconds.size(), 4u);
}

TEST(ThreadPool, ChunkIndexMatchesFixedDecomposition) {
  // Chunk c must cover [begin + c*grain, ...) regardless of who runs it.
  ThreadPool pool(4);
  const std::size_t begin = 7, end = 1007, grain = 13;
  std::vector<std::atomic<bool>> ok((end - begin + grain - 1) / grain);
  for (auto& f : ok) f.store(false);
  pool.parallel_for(begin, end, grain,
                    [&](std::size_t lo, std::size_t hi, std::size_t c) {
                      if (lo == begin + c * grain &&
                          hi == std::min(lo + grain, end)) {
                        ok[c].store(true);
                      }
                    });
  for (auto& f : ok) EXPECT_TRUE(f.load());
}

TEST(ThreadPool, NestedSubmitRunsInline) {
  ThreadPool pool(4);
  const std::size_t outer = 16, inner = 100;
  std::vector<std::atomic<int>> hits(outer * inner);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, outer, 1,
                    [&](std::size_t olo, std::size_t ohi, std::size_t) {
                      for (std::size_t o = olo; o < ohi; ++o) {
                        pool.parallel_for(
                            0, inner, 8,
                            [&](std::size_t lo, std::size_t hi, std::size_t) {
                              for (std::size_t i = lo; i < hi; ++i) {
                                ++hits[o * inner + i];
                              }
                            });
                      }
                    });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1,
                        [&](std::size_t lo, std::size_t, std::size_t) {
                          if (lo == 500) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool remains usable for subsequent regions.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 4,
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      count += static_cast<int>(hi - lo);
                    });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReduceIsBitwiseIdenticalAcrossThreadCounts) {
  // Pathological summands (wildly varying magnitudes) so any change in
  // combination order would change the rounded result.
  SplitMix64 rng(21);
  const std::size_t n = 4097;
  std::vector<double> values(n);
  for (auto& v : values) {
    v = (rng.next_double() - 0.5) * std::pow(10.0, 12.0 * rng.next_double());
  }
  auto sum_with = [&](unsigned threads) {
    ThreadPool pool(threads);
    return pool.reduce(
        0, n, 32, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_with(1);
  for (unsigned t : kThreadCounts) {
    EXPECT_EQ(sum_with(t), serial) << "threads=" << t;
  }
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, StatsAccumulateAndReset) {
  ThreadPool pool(2);
  pool.parallel_for(0, 100, 10,
                    [](std::size_t, std::size_t, std::size_t) {});
  pool.parallel_for(0, 100, 10,
                    [](std::size_t, std::size_t, std::size_t) {});
  EXPECT_EQ(pool.stats().parallel_regions, 2u);
  EXPECT_EQ(pool.stats().chunks_executed, 20u);
  EXPECT_GT(pool.stats().wall_seconds, 0.0);
  pool.reset_stats();
  EXPECT_EQ(pool.stats().parallel_regions, 0u);
  EXPECT_EQ(pool.stats().threads, 2u);
}

// --- bitwise determinism of the pipeline stages ------------------------------

TEST(Determinism, TreeBuildIdenticalAcrossThreadCounts) {
  const auto p = random_particles(3000, 16.0, Species::kDarkMatter, 3);
  tree::ChainingMesh serial(cube(16.0), {2.0, 16});
  serial.build(p);
  for (unsigned t : kThreadCounts) {
    ThreadPool pool(t);
    tree::ChainingMesh threaded(cube(16.0), {2.0, 16});
    threaded.build(p, &pool);
    ASSERT_EQ(threaded.permutation(), serial.permutation()) << "threads=" << t;
    ASSERT_EQ(threaded.num_leaves(), serial.num_leaves()) << "threads=" << t;
    for (std::size_t l = 0; l < serial.num_leaves(); ++l) {
      const auto& a = serial.leaf(l);
      const auto& b = threaded.leaf(l);
      ASSERT_EQ(a.begin, b.begin);
      ASSERT_EQ(a.end, b.end);
      ASSERT_EQ(a.lo, b.lo);
      ASSERT_EQ(a.hi, b.hi);
    }
  }
}

TEST(Determinism, ShortRangeGravityBitwiseAcrossThreadCounts) {
  const auto base = random_particles(2000, 12.0, Species::kDarkMatter, 11);
  tree::ChainingMesh mesh(cube(12.0), {3.0, 32});
  mesh.build(base);
  gravity::GravityConfig config;

  auto forces_with = [&](ThreadPool* pool) {
    Particles p = base;
    gpu::FlopRegistry flops;
    gravity::compute_short_range(p, mesh, /*split=*/nullptr, config, 1.0,
                                 nullptr, flops, nullptr, pool);
    return p;
  };
  const Particles serial = forces_with(nullptr);
  for (unsigned t : kThreadCounts) {
    ThreadPool pool(t);
    const Particles threaded = forces_with(&pool);
    EXPECT_TRUE(same_floats(threaded.ax, serial.ax)) << "threads=" << t;
    EXPECT_TRUE(same_floats(threaded.ay, serial.ay)) << "threads=" << t;
    EXPECT_TRUE(same_floats(threaded.az, serial.az)) << "threads=" << t;
  }
}

TEST(Determinism, CrkSphSweepsBitwiseAcrossThreadCounts) {
  const auto base = random_particles(1500, 10.0, Species::kGas, 29);
  tree::ChainingMesh mesh(cube(10.0), {2.5, 32});
  mesh.build(base);

  auto hydro_with = [&](ThreadPool* pool) {
    Particles p = base;
    sph::SphConfig config;  // CRK on: exercises all three pair sweeps
    sph::SphSolver solver(config);
    gpu::FlopRegistry flops;
    solver.compute_forces(p, mesh, 1.0, nullptr, flops, nullptr, pool);
    return p;
  };
  const Particles serial = hydro_with(nullptr);
  for (unsigned t : kThreadCounts) {
    ThreadPool pool(t);
    const Particles threaded = hydro_with(&pool);
    EXPECT_TRUE(same_floats(threaded.rho, serial.rho)) << "threads=" << t;
    EXPECT_TRUE(same_floats(threaded.ax, serial.ax)) << "threads=" << t;
    EXPECT_TRUE(same_floats(threaded.ay, serial.ay)) << "threads=" << t;
    EXPECT_TRUE(same_floats(threaded.az, serial.az)) << "threads=" << t;
    EXPECT_TRUE(same_floats(threaded.du, serial.du)) << "threads=" << t;
  }
}

TEST(Determinism, PmDepositAndInterpolateBitwiseAcrossThreadCounts) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const double box = 16.0;
    const comm::CartDecomposition decomp(comm.size(), box);
    const auto p = random_particles(5000, box, Species::kDarkMatter, 47);

    auto solve_with = [&](ThreadPool* pool, std::vector<double>& density,
                          double& mean, Particles& out) {
      mesh::PMSolver pm(comm, decomp, mesh::PMConfig{16, box, 1.5});
      pm.set_thread_pool(pool);
      density = pm.deposit(comm, p);
      mean = pm.mean_density();
      out = p;
      pm.apply(comm, out, 2.0);
    };

    std::vector<double> density0;
    double mean0 = 0.0;
    Particles out0;
    solve_with(nullptr, density0, mean0, out0);
    for (unsigned t : kThreadCounts) {
      ThreadPool pool(t);
      std::vector<double> density;
      double mean = 0.0;
      Particles out;
      solve_with(&pool, density, mean, out);
      ASSERT_EQ(density.size(), density0.size());
      EXPECT_EQ(0, std::memcmp(density.data(), density0.data(),
                               density.size() * sizeof(double)))
          << "threads=" << t;
      EXPECT_EQ(mean, mean0) << "threads=" << t;
      EXPECT_TRUE(same_floats(out.ax, out0.ax)) << "threads=" << t;
      EXPECT_TRUE(same_floats(out.ay, out0.ay)) << "threads=" << t;
      EXPECT_TRUE(same_floats(out.az, out0.az)) << "threads=" << t;
    }
  });
}

TEST(Determinism, FullHydroStepBitwiseAcrossThreadCounts) {
  // End-to-end: a full PM step (exchange, tree, PM solve, sub-cycled
  // gravity + CRKSPH + subgrid) with threads=N must leave the particle
  // state bitwise identical to threads=1.
  auto run_with = [](int threads) {
    core::SimConfig config;
    config.np = 6;
    config.box = 18.0;
    config.ng = 8;
    config.z_init = 20.0;
    config.z_final = 10.0;
    config.num_pm_steps = 2;
    config.hydro = true;
    config.subgrid_on = true;
    config.bins.max_depth = 3;
    config.seed = 7;
    config.threads = threads;
    Particles snapshot;
    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      core::SimContext ctx(config.threads);
      core::Simulation sim(ctx, comm, config);
      sim.initialize();
      sim.step();
      sim.step();
      snapshot = sim.particles();
    });
    return snapshot;
  };
  const Particles serial = run_with(1);
  for (int t : {2, 4, 8}) {
    EXPECT_EQ(first_state_difference(run_with(t), serial), "")
        << "threads=" << t;
  }
}

}  // namespace
}  // namespace crkhacc
