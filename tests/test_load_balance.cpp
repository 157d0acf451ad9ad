// Dynamic load balancing: the census cost model against brute-force
// pair counts, the pure assignment/gating/bin-pick policies, work-packet
// wire round-trips, the single-process ship/execute/apply path against
// the unbalanced launch (bitwise), and the 4-rank end-to-end contract —
// a balanced clustered run is bit_cast-identical to the unbalanced one
// at every thread count and launch schedule while the executed-FLOP
// imbalance drops.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/decomposition.h"
#include "comm/work_packets.h"
#include "comm/world.h"
#include "core/load_balancer.h"
#include "core/simulation.h"
#include "gpu/device.h"
#include "gravity/short_range.h"
#include "support/clustered_ic.h"
#include "tree/chaining_mesh.h"
#include "util/rng.h"

namespace crkhacc::core {
namespace {

comm::Box3 cube(double size) {
  comm::Box3 box;
  box.lo = {0, 0, 0};
  box.hi = {size, size, size};
  return box;
}

Particles random_cloud(std::size_t n, double box, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, Species::kDarkMatter,
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box),
                static_cast<float>(rng.next_double() * box), 0.0f, 0.0f, 0.0f,
                1.0f);
  }
  return p;
}

// --- cost model ---------------------------------------------------------

TEST(LbCostModel, CensusMatchesBruteForceOrderedPairCount) {
  const double box = 8.0;
  const auto p = random_cloud(500, box, 7);
  tree::ChainingMesh mesh(cube(box), {2.0, 8});
  mesh.build(p);

  // Brute force: per ordered particle pair (i, j), i != j, in the same
  // or adjacent bins (no periodic wrap — ghosts carry the wrap in
  // production), charge one interaction to i's bin.
  const auto& dims = mesh.dims();
  std::vector<std::array<int, 3>> coord(p.size());
  std::vector<std::size_t> bin(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    bin[i] = mesh.bin_of_position_for_test(p.x[i], p.y[i], p.z[i]);
    coord[i] = {static_cast<int>(bin[i] % dims[0]),
                static_cast<int>((bin[i] / dims[0]) % dims[1]),
                static_cast<int>(bin[i] / (static_cast<std::size_t>(dims[0]) *
                                           dims[1]))};
  }
  std::vector<double> brute(mesh.num_bins(), 0.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (i == j) continue;
      if (std::abs(coord[i][0] - coord[j][0]) > 1 ||
          std::abs(coord[i][1] - coord[j][1]) > 1 ||
          std::abs(coord[i][2] - coord[j][2]) > 1) {
        continue;
      }
      brute[bin[i]] += 1.0;
    }
  }

  const auto costs = lb_bin_costs(mesh);
  ASSERT_EQ(costs.size(), mesh.num_bins());
  double total = 0.0;
  for (std::size_t b = 0; b < costs.size(); ++b) {
    EXPECT_EQ(costs[b], brute[b]) << "bin " << b;  // exact: integer-valued
    total += brute[b];
  }
  EXPECT_EQ(lb_census_cost(mesh), total);
}

TEST(LbCostModel, BlendFallsBackToCensusWithoutFullMeasurements) {
  const std::vector<double> census{4.0, 2.0, 6.0};
  // One missing measurement (first step / tracing off) => pure census.
  EXPECT_EQ(lb_blend_costs(census, {1.0, 0.0, 1.0}), census);
  EXPECT_EQ(lb_blend_costs(census, {0.0, 0.0, 0.0}), census);
}

TEST(LbCostModel, BlendAveragesNormalizedSignalsPreservingTotal) {
  const std::vector<double> census{4.0, 2.0, 6.0};     // mean 4
  const std::vector<double> measured{1.0, 1.0, 1.0};   // flat
  const auto blended = lb_blend_costs(census, measured);
  // Halfway between the census share and flat, in census units.
  EXPECT_DOUBLE_EQ(blended[0], 0.5 * (4.0 + 4.0));
  EXPECT_DOUBLE_EQ(blended[1], 0.5 * (2.0 + 4.0));
  EXPECT_DOUBLE_EQ(blended[2], 0.5 * (6.0 + 4.0));
  EXPECT_DOUBLE_EQ(blended[0] + blended[1] + blended[2], 12.0);
}

// --- assignment / gate / bin pick ---------------------------------------

TEST(LbAssign, OverloadedRankClaimsCheapestNeighborTiesToLowestRank) {
  const comm::CartDecomposition decomp(4, 32.0);  // 2x2x1: all adjacent
  LbConfig config;
  const std::vector<double> costs{100.0, 10.0, 10.0, 10.0};  // mean 32.5
  const auto plan = lb_assign(costs, decomp, config);
  EXPECT_DOUBLE_EQ(plan.imbalance_before, 100.0 / 32.5);
  ASSERT_EQ(plan.migrations.size(), 1u);
  EXPECT_EQ(plan.migrations[0].donor, 0);
  EXPECT_EQ(plan.migrations[0].helper, 1);  // cost tie -> lowest rank
  // min(excess 67.5, headroom 22.5, max_fraction 50) = 22.5.
  EXPECT_DOUBLE_EQ(plan.migrations[0].delta, 22.5);
  EXPECT_DOUBLE_EQ(plan.imbalance_after, 77.5 / 32.5);
}

TEST(LbAssign, DonorAndHelperSetsStayDisjoint) {
  const comm::CartDecomposition decomp(4, 32.0);
  LbConfig config;
  // Two donors, two near-empty ranks: each donor must claim its own
  // helper, never another donor, never a claimed helper.
  const std::vector<double> costs{100.0, 1.0, 1.0, 98.0};  // mean 50
  const auto plan = lb_assign(costs, decomp, config);
  ASSERT_EQ(plan.migrations.size(), 2u);
  EXPECT_EQ(plan.migrations[0].donor, 0);
  EXPECT_EQ(plan.migrations[0].helper, 1);
  EXPECT_DOUBLE_EQ(plan.migrations[0].delta, 49.0);  // helper headroom
  EXPECT_EQ(plan.migrations[1].donor, 3);
  EXPECT_EQ(plan.migrations[1].helper, 2);
  EXPECT_DOUBLE_EQ(plan.migrations[1].delta, 48.0);  // donor excess
}

TEST(LbAssign, MaxFractionCapsTheShift) {
  const comm::CartDecomposition decomp(4, 32.0);
  LbConfig config;
  config.max_fraction = 0.25;
  const std::vector<double> costs{100.0, 1.0, 1.0, 98.0};
  const auto plan = lb_assign(costs, decomp, config);
  ASSERT_EQ(plan.migrations.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.migrations[0].delta, 25.0);
  EXPECT_DOUBLE_EQ(plan.migrations[1].delta, 24.5);
}

TEST(LbAssign, BalancedCostsProduceNoMigration) {
  const comm::CartDecomposition decomp(4, 32.0);
  const auto plan = lb_assign({5.0, 5.0, 5.0, 5.0}, decomp, LbConfig{});
  EXPECT_DOUBLE_EQ(plan.imbalance_before, 1.0);
  EXPECT_DOUBLE_EQ(plan.imbalance_after, 1.0);
  EXPECT_TRUE(plan.migrations.empty());
}

TEST(LbGate, EngagesAboveThresholdAndRearmsBelowHysteresisLevel) {
  LbConfig config;
  config.threshold = 1.5;
  config.hysteresis = 0.8;  // re-arm level 1 + 0.8 * 0.5 = 1.4
  EXPECT_FALSE(lb_gate(1.45, false, config));  // below threshold, off
  EXPECT_TRUE(lb_gate(1.55, false, config));   // crossed: engage
  EXPECT_TRUE(lb_gate(1.45, true, config));    // hovering: stay engaged
  EXPECT_FALSE(lb_gate(1.35, true, config));   // fell below re-arm: off
  EXPECT_TRUE(lb_gate(1.55, true, config));
}

TEST(LbGate, NonPositiveThresholdIsAlwaysOff) {
  LbConfig config;
  config.threshold = 0.0;
  EXPECT_FALSE(lb_gate(100.0, false, config));
  EXPECT_FALSE(lb_gate(100.0, true, config));
  config.threshold = -1.0;
  EXPECT_FALSE(lb_gate(100.0, true, config));
}

TEST(LbPickBins, GreedyTakeWhileHalfTheBinFitsTheTarget) {
  // delta 5: the 10-bin fits (10/2 <= 5) and fills the budget; the
  // smaller bins would overshoot and are skipped.
  const auto a = lb_pick_bins({10.0, 4.0, 2.0}, 5.0);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{1, 0, 0}));
  // delta 2: the 10-bin overshoots (10/2 > 2) but the 4-bin fits.
  const auto b = lb_pick_bins({10.0, 4.0, 2.0}, 2.0);
  EXPECT_EQ(b, (std::vector<std::uint8_t>{0, 1, 0}));
  // Non-positive delta ships nothing.
  EXPECT_EQ(lb_pick_bins({10.0, 4.0}, 0.0),
            (std::vector<std::uint8_t>{0, 0}));
  // Empty bins never ship (the scan stops at cost <= 0).
  EXPECT_EQ(lb_pick_bins({0.0, 0.0}, 5.0), (std::vector<std::uint8_t>{0, 0}));
}

TEST(LbPickBins, EqualCostTiesGoToTheLowerBinIndex) {
  const auto flags = lb_pick_bins({3.0, 3.0, 3.0}, 2.0);
  EXPECT_EQ(flags, (std::vector<std::uint8_t>{1, 0, 0}));
}

// --- wire format --------------------------------------------------------

TEST(WorkPackets, PacketSurvivesEncodeDecodeRoundTrip) {
  comm::WorkPacket packet;
  packet.donor = 3;
  packet.substep = 11;
  packet.a_mid = 0.251;
  packet.leaf_begin = {0, 2, 5};
  packet.x = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  packet.y = {0.5f, 1.5f, 2.5f, 3.5f, 4.5f};
  packet.z = {9.0f, 8.0f, 7.0f, 6.0f, 5.0f};
  packet.mass = {1.0f, 1.0f, 2.0f, 2.0f, 3.0f};
  packet.active = {1, 0, 1, 1, 0};
  packet.task_owner = {0, 1};
  packet.task_entry_begin = {0, 2, 3};
  packet.entry_partner = {1, 0, 0};
  packet.entry_side = {0, 1, 2};
  const auto bytes = comm::encode_work_packet(packet);
  const auto decoded = comm::decode_work_packet(bytes);
  EXPECT_EQ(decoded.donor, packet.donor);
  EXPECT_EQ(decoded.substep, packet.substep);
  EXPECT_EQ(decoded.a_mid, packet.a_mid);
  EXPECT_EQ(decoded.leaf_begin, packet.leaf_begin);
  EXPECT_EQ(decoded.x, packet.x);
  EXPECT_EQ(decoded.y, packet.y);
  EXPECT_EQ(decoded.z, packet.z);
  EXPECT_EQ(decoded.mass, packet.mass);
  EXPECT_EQ(decoded.active, packet.active);
  EXPECT_EQ(decoded.task_owner, packet.task_owner);
  EXPECT_EQ(decoded.task_entry_begin, packet.task_entry_begin);
  EXPECT_EQ(decoded.entry_partner, packet.entry_partner);
  EXPECT_EQ(decoded.entry_side, packet.entry_side);
  EXPECT_EQ(decoded.num_leaves(), 2u);
  EXPECT_EQ(decoded.num_particles(), 5u);
  EXPECT_EQ(decoded.num_tasks(), 2u);
}

TEST(WorkPackets, ReplySurvivesEncodeDecodeRoundTrip) {
  comm::WorkReply reply;
  reply.substep = 4;
  reply.ax = {1.25f, -2.5f};
  reply.ay = {0.0f, 3.0f};
  reply.az = {-0.125f, 7.0f};
  const auto bytes = comm::encode_work_reply(reply);
  const auto decoded = comm::decode_work_reply(bytes);
  EXPECT_EQ(decoded.substep, reply.substep);
  EXPECT_EQ(decoded.ax, reply.ax);
  EXPECT_EQ(decoded.ay, reply.ay);
  EXPECT_EQ(decoded.az, reply.az);
}

// --- ship / execute / apply bitwise identity ----------------------------

// The whole migration data path in one process: extract a packet for a
// subset of owner tasks, execute it on "another rank" (fresh scratch
// state, adopted mesh), apply the reply, and require the result to be
// bit-identical to the plain unbalanced launch. Warp 64 runs vector tiles
// on AVX2 builds, warp 48 (not a power of two) always runs scalar tiles.
class MigrationBitwiseTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(MigrationBitwiseTest, RoundTripMatchesUnbalancedLaunchBitwise) {
  const auto [warp_size, threads] = GetParam();
  testsupport::ClusteredIcConfig ic;
  ic.box = 12.0;
  ic.count = 600;
  ic.scale = 1.0;
  ic.center_a = {3.0, 3.0, 6.0};
  ic.center_b = {9.0, 9.0, 6.0};
  const Particles base = testsupport::clustered_two_sphere_ic(ic);

  tree::ChainingMesh mesh(cube(ic.box), {2.0, 16});
  mesh.build(base);
  const auto pairs = mesh.interaction_pairs(3.0);
  const gpu::LaunchPlan plan(mesh, pairs);

  gravity::GravityConfig config;
  config.launch.warp_size = warp_size;
  util::ThreadPool pool(threads);
  util::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

  // Alternating activity mask: migrated inactive particles must keep
  // their zeroed accumulators on both paths.
  std::vector<std::uint8_t> active(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) active[i] = (i % 3) != 0;

  Particles reference = base;
  gpu::FlopRegistry ref_flops;
  gravity::compute_short_range(reference, mesh, nullptr, config, 0.5,
                               active.data(), ref_flops, &pairs, pool_ptr);

  // Migrate the most expensive third of the census.
  const auto bin_costs = lb_bin_costs(mesh);
  const auto flags = lb_pick_bins(bin_costs, lb_census_cost(mesh) / 3.0);
  std::vector<std::uint8_t> skip(plan.num_owners(), 0);
  std::size_t migrated = 0;
  for (std::size_t t = 0; t < plan.num_owners(); ++t) {
    skip[t] = flags[mesh.leaf_bin(plan.owner(t))];
    migrated += skip[t];
  }
  ASSERT_GT(migrated, 0u);
  ASSERT_LT(migrated, plan.num_owners());  // both paths exercised

  Particles local = base;
  gpu::FlopRegistry flops;
  gravity::compute_short_range(local, mesh, plan, nullptr, config, 0.5,
                               active.data(), flops, skip.data(), pool_ptr);
  const comm::WorkPacket packet =
      extract_work_packet(local, mesh, plan, skip, active.data(), 0.5,
                          /*substep=*/7, /*donor_rank=*/3);
  EXPECT_EQ(packet.num_tasks(), migrated);
  const comm::WorkReply reply =
      gravity::execute_work_packet(packet, nullptr, config, flops, pool_ptr);
  EXPECT_EQ(reply.substep, 7u);
  apply_work_reply(local, mesh, plan, skip, reply, active.data());

  // The helper charged the migrated interactions to the same kernel:
  // local-skipped + packet FLOPs must equal the unbalanced launch's.
  EXPECT_DOUBLE_EQ(flops.total_flops(), ref_flops.total_flops());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(local.ax[i]),
              std::bit_cast<std::uint32_t>(reference.ax[i]))
        << "particle " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(local.ay[i]),
              std::bit_cast<std::uint32_t>(reference.ay[i]));
    ASSERT_EQ(std::bit_cast<std::uint32_t>(local.az[i]),
              std::bit_cast<std::uint32_t>(reference.az[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Warps, MigrationBitwiseTest,
    ::testing::Combine(::testing::Values(64u, 48u), ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint32_t, int>>& info) {
      return "warp" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// --- RunResult merge policy ---------------------------------------------

TEST(RunResultMerge, LbCountersSumAndPhaseStatsFoldOnce) {
  RunResult a, b;
  a.lb_packets_migrated = 3;
  a.lb_steps = 2;
  a.lb_imbalance_before = 3.0;
  a.lb_imbalance_after = 2.2;
  a.phase_stats = {{"short_range", 1.0, 2.0}};
  b.lb_packets_migrated = 5;
  b.lb_steps = 1;
  b.lb_imbalance_before = 1.5;
  b.lb_imbalance_after = 1.1;
  b.phase_stats = {{"short_range", 3.0, 4.0}, {"exchange", 0.5, 0.75}};
  a.merge(b);
  EXPECT_EQ(a.lb_packets_migrated, 8u);
  EXPECT_EQ(a.lb_steps, 3u);
  EXPECT_DOUBLE_EQ(a.lb_imbalance_before, 4.5);
  EXPECT_DOUBLE_EQ(a.lb_imbalance_after, 3.3);
  ASSERT_EQ(a.phase_stats.size(), 2u);
  EXPECT_EQ(a.phase_stats[0].name, "short_range");
  EXPECT_DOUBLE_EQ(a.phase_stats[0].mean_seconds, 4.0);
  EXPECT_DOUBLE_EQ(a.phase_stats[0].max_seconds, 6.0);
  EXPECT_EQ(a.phase_stats[1].name, "exchange");
}

// --- 4-rank end-to-end acceptance ---------------------------------------

struct ClusteredRun {
  std::map<std::uint64_t, std::array<float, 6>> state;  ///< id -> x,v
  double flop_ratio = 0.0;        ///< executed short-range max/mean
  std::uint64_t packets = 0;      ///< migrated packets, all ranks
  double imbalance_before = 0.0;  ///< run-average decision input
  std::string simd_isa;           ///< RunResult.simd_isa
};

// Two Plummer spheres on a 2x2x1 rank grid: ranks 0 and 3 hold the
// cores, ranks 1 and 2 are nearly empty — the canonical short-range
// hot-spot. Gravity-only, tracing off, so every decision is pure census
// and the runs are deterministic machine to machine.
ClusteredRun run_clustered(
    int threads, double lb_threshold,
    gpu::LaunchMode mode = gpu::LaunchMode::kWarpSplit) {
  ClusteredRun out;
  std::mutex mu;
  comm::World world(4);
  world.run([&](comm::Communicator& comm) {
    SimConfig config;
    config.np = 32;
    config.box = 64.0;
    config.ng = 64;
    config.z_init = 20.0;
    config.z_final = 10.0;
    config.num_pm_steps = 2;
    config.hydro = false;
    config.subgrid_on = false;
    config.bins.max_depth = 2;
    config.threads = threads;
    config.seed = 77;
    config.sph.eta = 0.1f;  // bin width = short-range cutoff, not SPH
    config.gravity.launch.mode = mode;
    config.lb.threshold = lb_threshold;
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);

    testsupport::ClusteredIcConfig ic;
    ic.box = config.box;
    ic.count = 3000;
    ic.scale = 4.0;
    ic.seed = 5150;
    ic.center_a = {16.0, 16.0, 32.0};  // core of rank (0,0) on the 2x2x1 grid
    ic.center_b = {48.0, 48.0, 32.0};  // core of rank (1,1)
    // Rank 0 seeds the full cloud; the first exchange distributes it.
    Particles p;
    if (comm.rank() == 0) p = testsupport::clustered_two_sphere_ic(ic);
    sim.initialize_from(std::move(p), 0);
    const auto result = sim.run();
    EXPECT_TRUE(result.completed);

    const double local =
        sim.flops().flops_of(gravity::ShortRangeKernel::kName);
    const double peak = comm.allreduce_scalar(local, comm::ReduceOp::kMax);
    const double total = comm.allreduce_scalar(local, comm::ReduceOp::kSum);
    const auto packets = comm.allreduce_scalar(
        static_cast<std::int64_t>(result.lb_packets_migrated),
        comm::ReduceOp::kSum);

    std::lock_guard<std::mutex> lock(mu);
    out.flop_ratio = peak / (total / comm.size());
    out.packets = static_cast<std::uint64_t>(packets);
    out.simd_isa = result.simd_isa;
    if (result.lb_steps > 0) {
      out.imbalance_before =
          result.lb_imbalance_before / static_cast<double>(result.lb_steps);
    }
    const auto& particles = sim.particles();
    for (std::size_t i = 0; i < particles.size(); ++i) {
      if (!particles.is_owned(i)) continue;
      out.state[particles.id[i]] = {particles.x[i],  particles.y[i],
                                    particles.z[i],  particles.vx[i],
                                    particles.vy[i], particles.vz[i]};
    }
  });
  return out;
}

void expect_bitwise_equal(const ClusteredRun& got, const ClusteredRun& want) {
  ASSERT_EQ(got.state.size(), want.state.size());
  auto it = want.state.begin();
  for (const auto& [id, s] : got.state) {
    ASSERT_EQ(id, it->first);
    for (std::size_t c = 0; c < s.size(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(s[c]),
                std::bit_cast<std::uint32_t>(it->second[c]))
          << "id " << id << " component " << c;
    }
    ++it;
  }
}

TEST(LoadBalanceEndToEnd, BalancedRunBitwiseEqualAndImbalanceDrops) {
  const auto baseline = run_clustered(1, /*lb_threshold=*/0.0);
  EXPECT_EQ(baseline.packets, 0u);
  EXPECT_EQ(baseline.state.size(), 3000u);
  // The clustered IC really is imbalanced without the balancer.
  EXPECT_GT(baseline.flop_ratio, 1.3);

  const auto balanced = run_clustered(1, /*lb_threshold=*/1.2);
  EXPECT_GT(balanced.packets, 0u);
  EXPECT_GT(balanced.imbalance_before, 1.2);
  // Acceptance: the executed-work imbalance ratio drops by >= 25%.
  EXPECT_LE(balanced.flop_ratio, 0.75 * baseline.flop_ratio);
  // And the particle state is exactly the unbalanced state.
  expect_bitwise_equal(balanced, baseline);
}

TEST(LoadBalanceEndToEnd, BalancedRunsMatchBaselineAcrossSchedulesAndThreads) {
  const auto baseline = run_clustered(1, /*lb_threshold=*/0.0);
  const auto balanced = run_clustered(8, /*lb_threshold=*/1.2);
  EXPECT_GT(balanced.packets, 0u);
  expect_bitwise_equal(balanced, baseline);
}

// run_clustered is gravity-only (hydro off): the reported ISA is the one
// its gravity tiles ran on — the compiled backend by default, "none"
// once naive mode leaves no lanes to vectorize.
TEST(RunResultSimdIsa, GravityOnlyRunReportsGravityTileIsa) {
  EXPECT_EQ(run_clustered(1, /*lb_threshold=*/0.0).simd_isa,
            gpu::simd::kIsaName);
  EXPECT_EQ(
      run_clustered(1, /*lb_threshold=*/0.0, gpu::LaunchMode::kNaive).simd_isa,
      "none");
}

}  // namespace
}  // namespace crkhacc::core
