// Tests for particle migration and the overload (ghost) exchange.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>

#include "comm/decomposition.h"
#include "comm/world.h"
#include "core/diagnostics.h"
#include "core/exchange.h"
#include "core/param_file.h"
#include "core/simulation.h"
#include "util/rng.h"

namespace crkhacc::core {
namespace {

Particles scatter_particles(const comm::CartDecomposition& decomp, int rank,
                            std::size_t total, double box, std::uint64_t seed) {
  // Deterministic global cloud; each rank takes the ones it owns.
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < total; ++i) {
    const std::array<double, 3> pos{rng.next_double() * box,
                                    rng.next_double() * box,
                                    rng.next_double() * box};
    if (decomp.owner_of(pos) != rank) continue;
    p.push_back(i, Species::kDarkMatter, static_cast<float>(pos[0]),
                static_cast<float>(pos[1]), static_cast<float>(pos[2]), 0, 0,
                0, 1.0f);
  }
  return p;
}

class ExchangeTest : public ::testing::TestWithParam<int> {};

TEST_P(ExchangeTest, ConservesGlobalOwnedCount) {
  const int ranks = GetParam();
  const double box = 16.0;
  comm::World world(ranks);
  world.run([&](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(comm.size(), box);
    auto p = scatter_particles(decomp, comm.rank(), 500, box, 1);
    // Displace some particles across boundaries (wrapped).
    for (std::size_t i = 0; i < p.size(); i += 3) {
      p.x[i] = static_cast<float>(decomp.wrap(p.x[i] + 3.0));
    }
    const auto stats = exchange_and_overload(comm, decomp, p, 1.5);
    const auto total =
        comm.allreduce_scalar(stats.owned, comm::ReduceOp::kSum);
    EXPECT_EQ(total, 500);
    // Every owned particle is in this rank's box afterwards.
    const auto box_local = decomp.local_box(comm.rank());
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!p.is_owned(i)) continue;
      EXPECT_TRUE(box_local.contains({p.x[i], p.y[i], p.z[i]}));
    }
  });
}

TEST_P(ExchangeTest, GhostsLieInOverloadedShell) {
  const int ranks = GetParam();
  const double box = 16.0;
  const double overload = 2.0;
  comm::World world(ranks);
  world.run([&](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(comm.size(), box);
    auto p = scatter_particles(decomp, comm.rank(), 800, box, 2);
    exchange_and_overload(comm, decomp, p, overload);
    const auto obox = decomp.overloaded_box(comm.rank(), overload);
    const auto inner = decomp.local_box(comm.rank());
    std::size_t ghosts = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p.is_owned(i)) continue;
      ++ghosts;
      // Inside the overloaded box, outside the owned box.
      EXPECT_TRUE(obox.contains({p.x[i], p.y[i], p.z[i]}))
          << p.x[i] << "," << p.y[i] << "," << p.z[i];
      EXPECT_FALSE(inner.contains({p.x[i], p.y[i], p.z[i]}));
    }
    // A one-rank world evolves no self-images: its chaining mesh wraps.
    if (decomp.self_periodic()) {
      EXPECT_EQ(ghosts, 0u);
    } else {
      EXPECT_GT(ghosts, 0u);
    }
  });
}

TEST_P(ExchangeTest, GhostCoverageIsComplete) {
  // Every particle of every other rank whose periodic image falls in my
  // overloaded shell must arrive as a ghost.
  const int ranks = GetParam();
  const double box = 16.0;
  const double overload = 2.0;
  comm::World world(ranks);
  std::mutex mutex;
  std::vector<std::array<float, 3>> global_cloud;
  // Build the global cloud once (all ranks generate identically).
  {
    SplitMix64 rng(3);
    for (int i = 0; i < 600; ++i) {
      global_cloud.push_back(
          {static_cast<float>(rng.next_double() * box),
           static_cast<float>(rng.next_double() * box),
           static_cast<float>(rng.next_double() * box)});
    }
  }
  world.run([&](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(comm.size(), box);
    Particles p;
    for (std::size_t i = 0; i < global_cloud.size(); ++i) {
      const auto& c = global_cloud[i];
      const std::array<double, 3> pos{c[0], c[1], c[2]};
      if (decomp.owner_of(pos) != comm.rank()) continue;
      p.push_back(i, Species::kDarkMatter, c[0], c[1], c[2], 0, 0, 0, 1.0f);
    }
    const auto stats = exchange_and_overload(comm, decomp, p, overload);
    if (decomp.self_periodic()) {
      // A one-rank world's replicas exist only for analysis: the
      // exchange builds none, analysis_replica_cloud the complete set.
      EXPECT_EQ(stats.ghosts, 0);
      p = analysis_replica_cloud(decomp, p, overload);
    }

    // Expected ghosts: image positions of non-owned global particles
    // inside my overloaded box.
    const auto obox = decomp.overloaded_box(comm.rank(), overload);
    const auto inner = decomp.local_box(comm.rank());
    std::set<std::uint64_t> ghost_ids;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!p.is_owned(i)) ghost_ids.insert(p.id[i]);
    }
    for (std::size_t i = 0; i < global_cloud.size(); ++i) {
      const auto& c = global_cloud[i];
      bool expected = false;
      for (int ox = -1; ox <= 1 && !expected; ++ox) {
        for (int oy = -1; oy <= 1 && !expected; ++oy) {
          for (int oz = -1; oz <= 1 && !expected; ++oz) {
            const std::array<double, 3> img{c[0] + ox * box, c[1] + oy * box,
                                            c[2] + oz * box};
            if (!obox.contains(img)) continue;
            if (ox == 0 && oy == 0 && oz == 0 && inner.contains(img)) continue;
            expected = true;
          }
        }
      }
      if (expected) {
        EXPECT_TRUE(ghost_ids.count(i)) << "missing ghost id " << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ExchangeTest, ::testing::Values(1, 2, 4, 8));

TEST(Exchange, SingleRankSelfImagesOnlyInAnalysisCloud) {
  comm::World world(1);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(1, 10.0);
    ASSERT_TRUE(decomp.self_periodic());
    Particles p;
    // Particle near the low-x face.
    p.push_back(0, Species::kDarkMatter, 0.2f, 5.0f, 5.0f, 0, 0, 0, 1.0f);
    // Particle in the middle: no images needed.
    p.push_back(1, Species::kDarkMatter, 5.0f, 5.0f, 5.0f, 0, 0, 0, 1.0f);
    // The exchange evolves no replicas in a one-rank world.
    const auto stats = exchange_and_overload(comm, decomp, p, 1.0);
    EXPECT_EQ(stats.owned, 2);
    EXPECT_EQ(stats.ghosts, 0);
    ASSERT_EQ(p.size(), 2u);
    // The analysis cloud carries the periodic self-image, the unwrapped
    // image at x ~ 10.2, after the owned particles.
    const Particles cloud = analysis_replica_cloud(decomp, p, 1.0);
    ASSERT_EQ(cloud.size(), 3u);
    EXPECT_TRUE(cloud.is_owned(0));
    EXPECT_TRUE(cloud.is_owned(1));
    EXPECT_FALSE(cloud.is_owned(2));
    EXPECT_EQ(cloud.id[2], 0u);
    EXPECT_NEAR(cloud.x[2], 10.2f, 1e-4);
  });
}

TEST(Exchange, AnalysisCloudRowsFollowTheOverloadRule) {
  // Every row of the replica cloud, in order: the owned particles as they
  // are (ghost rows dropped), then, particle by particle, each image whose
  // position lands in the overloaded box, offsets in (x, y, z) loop order.
  constexpr double kBox = 10.0;
  constexpr double kOverload = 1.5;
  const comm::CartDecomposition decomp(1, kBox);
  Particles p;
  SplitMix64 rng(17);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const std::size_t row = p.push_back(
        i, i % 2 ? Species::kGas : Species::kDarkMatter,
        static_cast<float>(rng.next_double() * kBox),
        static_cast<float>(rng.next_double() * kBox),
        static_cast<float>(rng.next_double() * kBox), 1.0f * i, 2.0f, 3.0f,
        1.0f + i);
    p.u[row] = 0.5f * i;
    p.rho[row] = 2.0f;
    p.hsml[row] = 0.3f;
    p.metal[row] = 0.01f;
    p.bin[row] = static_cast<std::uint8_t>(i % 3);
    p.ax[row] = 9.0f;  // scratch: copied for owned rows, zero for images
    if (i % 50 == 7) p.ghost[row] = 1;
  }

  Particles expected;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.is_owned(i)) expected.append_from(p, i);
  }
  const std::size_t owned = expected.size();
  const auto obox = decomp.overloaded_box(0, kOverload);
  for (std::size_t i = 0; i < owned; ++i) {
    for (int ox = -1; ox <= 1; ++ox) {
      for (int oy = -1; oy <= 1; ++oy) {
        for (int oz = -1; oz <= 1; ++oz) {
          if (ox == 0 && oy == 0 && oz == 0) continue;
          const std::array<double, 3> image{
              static_cast<double>(expected.x[i]) + ox * kBox,
              static_cast<double>(expected.y[i]) + oy * kBox,
              static_cast<double>(expected.z[i]) + oz * kBox};
          if (!obox.contains(image)) continue;
          auto record = expected.record(i);
          record.x = static_cast<float>(image[0]);
          record.y = static_cast<float>(image[1]);
          record.z = static_cast<float>(image[2]);
          record.ghost = 1;
          expected.append_record(record);
        }
      }
    }
  }

  const Particles cloud = analysis_replica_cloud(decomp, p, kOverload);
  ASSERT_GT(expected.size(), owned);
  EXPECT_EQ(first_state_difference(cloud, expected), "");
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    ASSERT_EQ(cloud.ax[i], i < owned ? 9.0f : 0.0f) << "row " << i;
  }
  // The rows are counted first, so every column is allocated once at its
  // final size.
  for_each_column([&](const auto& c) {
    EXPECT_EQ((cloud.*c.member).capacity(), cloud.size()) << c.name;
  });
}

TEST(Exchange, SelfPeriodicOnlyForOneRankWorlds) {
  for (const int ranks : {1, 2, 4, 8}) {
    EXPECT_EQ(comm::CartDecomposition(ranks, 10.0).self_periodic(),
              ranks == 1);
  }
}

TEST(Exchange, StaleGhostsDroppedOnReexchange) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(2, 10.0);
    auto p = scatter_particles(decomp, comm.rank(), 200, 10.0, 4);
    exchange_and_overload(comm, decomp, p, 1.0);
    const auto owned_before = [&] {
      std::size_t n = 0;
      for (std::size_t i = 0; i < p.size(); ++i) n += p.is_owned(i);
      return n;
    }();
    // Re-exchange without moving anything: ghosts rebuilt, not duplicated.
    const auto stats = exchange_and_overload(comm, decomp, p, 1.0);
    EXPECT_EQ(static_cast<std::size_t>(stats.owned), owned_before);
    std::map<std::uint64_t, int> ghost_copies;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!p.is_owned(i)) ++ghost_copies[p.id[i]];
    }
    // With 2 ranks (1x1x2 split), a boundary particle can legitimately
    // appear as several periodic images, but never twice at the same
    // image position.
    std::set<std::tuple<std::uint64_t, float, float, float>> seen;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p.is_owned(i)) continue;
      const auto key = std::make_tuple(p.id[i], p.x[i], p.y[i], p.z[i]);
      EXPECT_FALSE(seen.count(key)) << "duplicate ghost image";
      seen.insert(key);
    }
  });
}

TEST(ParamFile, ParsesTypedValuesAndComments) {
  const auto params = ParamFile::parse(R"(
# campaign configuration
np = 16
box = 32.5        # Mpc/h
hydro = true
sph_kernel = wendland
label = frontier-e-mini
)");
  ASSERT_TRUE(params.has_value());
  EXPECT_EQ(params->get_int("np"), 16);
  EXPECT_DOUBLE_EQ(params->get_double("box").value(), 32.5);
  EXPECT_EQ(params->get_bool("hydro"), true);
  EXPECT_EQ(params->get_string("label"), "frontier-e-mini");
  EXPECT_FALSE(params->has("missing"));
  EXPECT_FALSE(params->get_double("label").has_value());  // wrong type
  EXPECT_FALSE(params->get_int("box").has_value());       // non-integral
}

TEST(ParamFile, RejectsMalformedLines) {
  EXPECT_FALSE(ParamFile::parse("np 16").has_value());
  EXPECT_FALSE(ParamFile::parse("= 3").has_value());
  EXPECT_TRUE(ParamFile::parse("").has_value());
  EXPECT_FALSE(ParamFile::load("/nonexistent/file.params").has_value());
}

TEST(ParamFile, AppliesOntoSimConfigAndFlagsUnknownKeys) {
  const auto params = ParamFile::parse(R"(
np = 20
box = 40.0
z_final = 0.5
hydro = false
sph_kernel = wendland
warp_size = 32
omega_m = 0.3
not_a_real_key = 7
)");
  ASSERT_TRUE(params.has_value());
  SimConfig config;
  const auto unknown = params->apply(config);
  EXPECT_EQ(config.np, 20u);
  EXPECT_DOUBLE_EQ(config.box, 40.0);
  EXPECT_DOUBLE_EQ(config.z_final, 0.5);
  EXPECT_FALSE(config.hydro);
  EXPECT_EQ(config.sph.kernel, sph::KernelShape::kWendlandC4);
  EXPECT_EQ(config.sph.launch.warp_size, 32u);
  EXPECT_EQ(config.gravity.launch.warp_size, 32u);
  EXPECT_DOUBLE_EQ(config.cosmology.omega_m, 0.3);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "not_a_real_key");
}

TEST(ParamFile, RetiredSingleValuedKeysAreUnknown) {
  // The writer always stamps the current checkpoint format, the
  // balancer blends measured costs whenever every rank has one, and no
  // code wrote a trace to the `trace_file` path, so none of the former
  // keys selects anything: old files get the warning.
  const auto old = ParamFile::parse(
      "ckpt_format = 2\nlb_use_measured = true\ntrace_file = t.json\n");
  ASSERT_TRUE(old.has_value());
  SimConfig config;
  const auto flagged = old->apply(config);
  EXPECT_EQ(std::set<std::string>(flagged.begin(), flagged.end()),
            (std::set<std::string>{"ckpt_format", "lb_use_measured",
                                   "trace_file"}));
}

TEST(ParamFile, AppliesLaunchKeysAndRejectsDegenerateWarpSize) {
  const auto params = ParamFile::parse("launch_mode = naive\n");
  ASSERT_TRUE(params.has_value());
  SimConfig config;
  EXPECT_TRUE(params->apply(config).empty());
  EXPECT_EQ(config.sph.launch.mode, gpu::LaunchMode::kNaive);
  EXPECT_EQ(config.gravity.launch.mode, gpu::LaunchMode::kNaive);

  // The tile engine follows the build and the config, so launch_schedule
  // is no longer a key: every former value comes back as unknown and
  // the launch config is untouched.
  const gpu::LaunchConfig defaults;
  for (const char* retired : {"leaf_owner", "simd", "deferred_store"}) {
    const auto old = ParamFile::parse(std::string("launch_schedule = ") +
                                      retired + "\n");
    ASSERT_TRUE(old.has_value());
    SimConfig keep;
    const auto flagged = old->apply(keep);
    ASSERT_EQ(flagged.size(), 1u) << retired;
    EXPECT_EQ(flagged[0], "launch_schedule");
    EXPECT_EQ(keep.gravity.launch.warp_size, defaults.warp_size);
    EXPECT_EQ(keep.gravity.launch.mode, defaults.mode);
  }

  // warp_size = 1 would make the warp-split half-warp zero lanes wide
  // and hang the tile loop; the parser must refuse it and keep the
  // previous value.
  const auto bad = ParamFile::parse("warp_size = 1\nlaunch_mode = bogus\n");
  ASSERT_TRUE(bad.has_value());
  SimConfig keep;
  keep.sph.launch.warp_size = 32;
  keep.gravity.launch.warp_size = 32;
  const auto flagged = bad->apply(keep);
  ASSERT_EQ(flagged.size(), 2u);
  EXPECT_EQ(keep.sph.launch.warp_size, 32u);
  EXPECT_EQ(keep.gravity.launch.warp_size, 32u);
  EXPECT_EQ(keep.sph.launch.mode, gpu::LaunchMode::kWarpSplit);
}

TEST(ParamFile, AppliesRankLossPolicyAndRejectsUnknownValues) {
  const auto params = ParamFile::parse("rank_loss_policy = shrink\n");
  ASSERT_TRUE(params.has_value());
  SimConfig config;
  EXPECT_TRUE(params->apply(config).empty());
  EXPECT_EQ(config.rank_loss_policy, RankLossPolicy::kShrink);

  const auto back = ParamFile::parse("rank_loss_policy = fatal\n");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->apply(config).empty());
  EXPECT_EQ(config.rank_loss_policy, RankLossPolicy::kFatal);

  // An unknown policy is flagged and the previous value kept — a typo
  // must not silently downgrade a shrink campaign to fatal.
  const auto bad = ParamFile::parse("rank_loss_policy = respawn\n");
  ASSERT_TRUE(bad.has_value());
  SimConfig keep;
  keep.rank_loss_policy = RankLossPolicy::kShrink;
  EXPECT_EQ(bad->apply(keep).size(), 1u);
  EXPECT_EQ(keep.rank_loss_policy, RankLossPolicy::kShrink);
}

TEST(Diagnostics, ConservationSnapshotReducesGlobally) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    Particles p;
    if (comm.rank() == 0) {
      const auto g = p.push_back(0, Species::kGas, 1, 1, 1, 10, 0, 0, 2.0f);
      p.u[g] = 50.0f;
      p.metal[g] = 0.1f;
      p.push_back(1, Species::kDarkMatter, 2, 2, 2, -10, 0, 0, 3.0f);
    } else {
      p.push_back(2, Species::kStar, 3, 3, 3, 0, 5, 0, 1.0f);
      p.push_back(3, Species::kBlackHole, 4, 4, 4, 0, 0, 0, 0.5f);
      // A ghost that must not be double counted.
      const auto ghost = p.push_back(4, Species::kGas, 5, 5, 5, 0, 0, 0, 9.0f);
      p.ghost[ghost] = 1;
    }
    const auto snap = measure_conservation(comm, p);
    EXPECT_EQ(snap.count, 4);
    EXPECT_DOUBLE_EQ(snap.mass_total, 6.5);
    EXPECT_DOUBLE_EQ(snap.mass_gas, 2.0);
    EXPECT_DOUBLE_EQ(snap.mass_dm, 3.0);
    EXPECT_DOUBLE_EQ(snap.mass_stars, 1.0);
    EXPECT_DOUBLE_EQ(snap.mass_bh, 0.5);
    EXPECT_NEAR(snap.thermal_energy, 100.0, 1e-9);
    EXPECT_NEAR(snap.metal_mass, 0.2, 1e-6);
    // Momentum: 2*10 - 3*10 = -10 in x, 1*5 in y.
    EXPECT_NEAR(snap.momentum[0], -10.0, 1e-9);
    EXPECT_NEAR(snap.momentum[1], 5.0, 1e-9);
    EXPECT_GT(snap.momentum_asymmetry, 0.0);
    EXPECT_LE(snap.momentum_asymmetry, 1.0);
  });
}

TEST(Diagnostics, MassConservedThroughHydroRun) {
  comm::World world(2);
  world.run([](comm::Communicator& comm) {
    core::SimConfig config;
    config.np = 8;
    config.box = 24.0;
    config.ng = 16;
    config.z_init = 20.0;
    config.z_final = 5.0;
    config.num_pm_steps = 2;
    config.hydro = true;
    config.subgrid_on = true;
    config.bins.max_depth = 3;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto before = measure_conservation(comm, sim.particles());
    sim.run();
    const auto after = measure_conservation(comm, sim.particles());
    EXPECT_LT(std::abs(mass_drift(before, after)), 1e-5);
    EXPECT_EQ(before.count, after.count);
    // The isotropic box keeps net momentum a small fraction of the
    // momentum scale.
    EXPECT_LT(after.momentum_asymmetry, 0.1);
  });
}

TEST(Exchange, MigrationMovesOwnershipToCorrectRank) {
  comm::World world(4);
  world.run([](comm::Communicator& comm) {
    const comm::CartDecomposition decomp(4, 8.0);
    Particles p;
    if (comm.rank() == 0) {
      // Deliberately hold particles that belong elsewhere.
      for (int r = 0; r < 4; ++r) {
        const auto center = decomp.local_box(r);
        p.push_back(static_cast<std::uint64_t>(r), Species::kDarkMatter,
                    static_cast<float>(0.5 * (center.lo[0] + center.hi[0])),
                    static_cast<float>(0.5 * (center.lo[1] + center.hi[1])),
                    static_cast<float>(0.5 * (center.lo[2] + center.hi[2])),
                    0, 0, 0, 1.0f);
      }
    }
    exchange_and_overload(comm, decomp, p, 0.5);
    // Each rank owns exactly the particle whose id matches its rank.
    std::size_t owned = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!p.is_owned(i)) continue;
      ++owned;
      EXPECT_EQ(p.id[i], static_cast<std::uint64_t>(comm.rank()));
    }
    EXPECT_EQ(owned, 1u);
  });
}

}  // namespace
}  // namespace crkhacc::core
