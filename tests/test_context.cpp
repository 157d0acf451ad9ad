// Shared-context tests: bitwise identity of context-borrowing runs
// against private-context runs (across thread counts), asset-cache hit
// accounting (cooling tables, primed initial states, process-wide FFT
// plans), the initial-state cache key's inclusion/exclusion semantics,
// RunResult::merge's per-field policies, and the tightened
// MemFaultInjector armed-refs contract.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "comm/world.h"
#include "core/context.h"
#include "core/sdc.h"
#include "core/simulation.h"
#include "subgrid/cooling.h"

namespace crkhacc::core {
namespace {

SimConfig tiny_config() {
  SimConfig config;
  config.np = 6;
  config.box = 16.0;
  config.ng = 8;
  config.z_init = 20.0;
  config.z_final = 10.0;
  config.num_pm_steps = 2;
  config.hydro = true;
  config.subgrid_on = true;
  config.bins.max_depth = 2;
  config.seed = 321;
  return config;
}

Particles run_private(const SimConfig& config) {
  Particles final_state;
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    final_state = sim.particles();
  });
  return final_state;
}

// --- shared-vs-private bitwise identity --------------------------------------

TEST(SimContext, SharedContextBitwiseIdenticalToPrivate) {
  // The redesign's core promise: borrowing a shared context — including
  // the cache fast-path where the second simulation adopts the first's
  // primed initial state instead of regenerating it — changes no bits,
  // at serial and oversubscribed pool widths alike.
  for (int threads : {1, 8}) {
    SimConfig config = tiny_config();
    config.threads = threads;
    const Particles reference = run_private(config);

    comm::World world(1);
    world.run([&](comm::Communicator& comm) {
      SimContext ctx(config.threads);
      for (int repeat = 0; repeat < 2; ++repeat) {
        Simulation sim(ctx, comm, config);
        sim.initialize();
        const auto result = sim.run();
        ASSERT_TRUE(result.completed);
        EXPECT_EQ(first_state_difference(sim.particles(), reference), "");
      }
      // The second run must have been served from the cache, so the
      // identity above covered the fast-path, not two cold starts.
      EXPECT_EQ(ctx.asset_stats().initial_state_hits, 1u) << threads;
    });
  }
}

// --- asset-cache accounting --------------------------------------------------

TEST(SimContext, CachesPrimedInitialStateAndCoolingByConfig) {
  const SimConfig config = tiny_config();
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SimContext ctx(1);
    for (int repeat = 0; repeat < 3; ++repeat) {
      Simulation sim(ctx, comm, config);
      sim.initialize();
    }
    const auto stats = ctx.asset_stats();
    EXPECT_EQ(stats.initial_state_misses, 1u);
    EXPECT_EQ(stats.initial_state_hits, 2u);
    // One cooling table serves all three (subgrid_on with one config).
    EXPECT_EQ(stats.cooling_misses, 1u);
    EXPECT_GE(stats.cooling_hits, 2u);

    // A different realization must NOT share the cached state.
    SimConfig other = config;
    other.seed = config.seed + 1;
    Simulation sim(ctx, comm, other);
    sim.initialize();
    EXPECT_EQ(ctx.asset_stats().initial_state_misses, 2u);
  });
}

TEST(SimContext, CoolingTableHandleIsSharedBitExact) {
  SimContext ctx(1);
  subgrid::CoolingConfig cooling;
  const auto a = ctx.cooling_table(cooling);
  const auto b = ctx.cooling_table(cooling);
  ASSERT_TRUE(a);
  EXPECT_EQ(a.get(), b.get());  // same immutable asset, not a copy

  subgrid::CoolingConfig warmer = cooling;
  warmer.t_floor_K *= 2.0;
  const auto c = ctx.cooling_table(warmer);
  ASSERT_TRUE(c);
  EXPECT_NE(a.get(), c.get());

  const auto stats = ctx.asset_stats();
  EXPECT_EQ(stats.cooling_hits, 1u);
  EXPECT_EQ(stats.cooling_misses, 2u);
}

TEST(SimContext, FftPlanCacheServesRepeatRuns) {
  // The plan cache is process-wide, so assert on deltas: a second
  // identical simulation must add plan hits but no new plans.
  const SimConfig config = tiny_config();
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    SimContext ctx(1);
    {
      Simulation sim(ctx, comm, config);
      sim.initialize();
      ASSERT_TRUE(sim.run().completed);
    }
    const auto warm = ctx.asset_stats();
    {
      Simulation sim(ctx, comm, config);
      sim.initialize();
      ASSERT_TRUE(sim.run().completed);
    }
    const auto after = ctx.asset_stats();
    EXPECT_GT(after.fft_plan_hits, warm.fft_plan_hits);
    EXPECT_EQ(after.fft_plan_misses, warm.fft_plan_misses);
  });
}

// --- initial-state cache key semantics ---------------------------------------

TEST(SimContext, InitialStateKeyTracksPrimingInputsOnly) {
  const SimConfig base = tiny_config();
  const std::string key = SimContext::initial_state_key(base, 0, 1);

  // Fields that feed IC generation or solver priming change the key.
  SimConfig reseeded = base;
  reseeded.seed += 1;
  EXPECT_NE(SimContext::initial_state_key(reseeded, 0, 1), key);

  SimConfig denser = base;
  denser.np += 2;
  EXPECT_NE(SimContext::initial_state_key(denser, 0, 1), key);

  SimConfig hotter = base;
  hotter.sph.eta *= 1.1;  // priming iterates smoothing lengths with eta
  EXPECT_NE(SimContext::initial_state_key(hotter, 0, 1), key);

  // The domain is part of the key.
  EXPECT_NE(SimContext::initial_state_key(base, 1, 2), key);

  // Evolution-only knobs do NOT change the key — this is what lets a
  // calibration sweep (softening, step count, final epoch) share one
  // primed realization through the farm.
  SimConfig sweep = base;
  sweep.softening = 0.123;
  sweep.num_pm_steps += 5;
  sweep.z_final = 2.0;
  EXPECT_EQ(SimContext::initial_state_key(sweep, 0, 1), key);

  // Thread count never changes results, so it never splits the cache.
  SimConfig wide = base;
  wide.threads = 8;
  EXPECT_EQ(SimContext::initial_state_key(wide, 0, 1), key);
}

// --- RunResult::merge --------------------------------------------------------

TEST(RunResult, MergeSumsCountersAndAppendsReports) {
  RunResult a;
  a.steps_done = 3;
  a.interruptions = 1;
  a.recovery_attempts = 2;
  a.sdc_detections = 1;
  a.io.local_retries = 4;
  a.io.longest_chain = 3;
  a.reports.resize(3);
  a.trace_events = 10;

  RunResult b;
  b.steps_done = 5;
  b.interruptions = 2;
  b.recovery_attempts = 1;
  b.sdc_detections = 2;
  b.io.local_retries = 1;
  b.io.degraded_to_direct = true;
  b.io.longest_chain = 2;
  b.reports.resize(5);
  b.trace_events = 7;

  a.merge(b);
  EXPECT_EQ(a.steps_done, 8u);
  EXPECT_EQ(a.interruptions, 3u);
  EXPECT_EQ(a.recovery_attempts, 3u);
  EXPECT_EQ(a.sdc_detections, 3u);
  EXPECT_EQ(a.io.local_retries, 5u);
  EXPECT_TRUE(a.io.degraded_to_direct);          // OR
  EXPECT_EQ(a.io.longest_chain, 3u);             // max, not sum
  EXPECT_EQ(a.reports.size(), 8u);               // append
  EXPECT_EQ(a.trace_events, 17u);
}

TEST(RunResult, MergeCombinesPhaseStatsByNameAndThreading) {
  RunResult a;
  a.phase_stats.push_back({"gravity", 1.0, 2.0});
  a.threading.threads = 2;
  a.threading.busy_seconds = {1.0, 2.0};
  a.threading.steals = 5;

  RunResult b;
  b.phase_stats.push_back({"gravity", 0.5, 1.0});
  b.phase_stats.push_back({"sph", 3.0, 4.0});
  b.threading.threads = 4;
  b.threading.busy_seconds = {0.5, 0.5, 0.25, 0.25};
  b.threading.steals = 2;

  a.merge(b);
  ASSERT_EQ(a.phase_stats.size(), 2u);
  EXPECT_EQ(a.phase_stats[0].name, "gravity");
  EXPECT_DOUBLE_EQ(a.phase_stats[0].mean_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.phase_stats[0].max_seconds, 3.0);
  EXPECT_EQ(a.phase_stats[1].name, "sph");
  EXPECT_EQ(a.threading.threads, 4u);            // max pool width
  EXPECT_EQ(a.threading.steals, 7u);
  ASSERT_EQ(a.threading.busy_seconds.size(), 4u);  // widened, summed
  EXPECT_DOUBLE_EQ(a.threading.busy_seconds[0], 1.5);
  EXPECT_DOUBLE_EQ(a.threading.busy_seconds[1], 2.5);
}

TEST(RunResult, MergeKeepsCompletedAndTakesNewestSchedule) {
  RunResult a;
  a.completed = true;
  a.simd_isa = "none";

  RunResult failed;
  failed.completed = false;
  failed.simd_isa = "avx2";
  a.merge(failed);
  // `completed` is a caller-level judgment, never merged.
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.simd_isa, "avx2");  // newest non-empty wins

  RunResult empty;
  a.merge(empty);
  EXPECT_EQ(a.simd_isa, "avx2");  // empty never overwrites
}

// --- MemFaultInjector armed-refs contract ------------------------------------

TEST(MemFaultInjector, ArmedRefsBalanceAcrossArmDisarmAndSimDeath) {
  const SimConfig config = tiny_config();
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    MemFaultInjector injector(0.0, 7);
    SimContext ctx(1);
    {
      Simulation sim(ctx, comm, config);
      sim.set_memory_fault_injector(&injector);
      EXPECT_EQ(injector.armed_refs(), 1);
      sim.set_memory_fault_injector(&injector);  // re-arm is not a leak
      EXPECT_EQ(injector.armed_refs(), 1);
      sim.set_memory_fault_injector(nullptr);
      EXPECT_EQ(injector.armed_refs(), 0);

      sim.set_memory_fault_injector(&injector);
      EXPECT_EQ(injector.armed_refs(), 1);
    }
    // Simulation destruction releases the armed reference, so the
    // injector may now be destroyed without tripping its CHECK.
    EXPECT_EQ(injector.armed_refs(), 0);
  });
}

}  // namespace
}  // namespace crkhacc::core
