// SDC guardrail tests: paged CRC snapshots, audit scan primitives, the
// throwing CHECK family, timestep-anomaly census, bin-occupancy census,
// the auditor's detection lattice, and the end-to-end drill — a seeded
// bit flip in a live particle array is detected, the step rolls back
// and replays, and the final multi-step state is bitwise identical to
// an uninjected run; with the replay budget exhausted the run escalates
// to checkpoint restore (including the PR 1 interaction where the
// newest checkpoint is itself corrupt).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <vector>

#include "comm/world.h"
#include "core/param_file.h"
#include "core/sdc.h"
#include "core/simulation.h"
#include "integrator/timestep.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "io/storage.h"
#include "tree/chaining_mesh.h"
#include "util/assertions.h"
#include "util/audit.h"
#include "util/snapshot.h"

namespace crkhacc {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    // PID-qualified: ctest -j runs each case in its own process, so a
    // per-process counter alone collides across concurrent cases.
    path_ = fs::temp_directory_path() /
            ("crkhacc_sdc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

// --- util: paged snapshot ---------------------------------------------------

TEST(PagedSnapshot, CaptureRestoreRoundTrip) {
  std::vector<float> a(1000);
  std::vector<std::uint8_t> b(37);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(i);

  util::PagedSnapshot snapshot(/*page_bytes=*/256);
  EXPECT_FALSE(snapshot.valid());
  const std::vector<util::PagedSnapshot::Region> regions = {
      {a.data(), a.size() * sizeof(float)}, {b.data(), b.size()}};
  snapshot.capture(regions);
  ASSERT_TRUE(snapshot.valid());
  EXPECT_TRUE(snapshot.verify());
  EXPECT_EQ(snapshot.bytes(), a.size() * sizeof(float) + b.size());
  EXPECT_EQ(snapshot.pages(), (snapshot.bytes() + 255) / 256);
  EXPECT_EQ(snapshot.num_regions(), 2u);
  EXPECT_EQ(snapshot.region_bytes(1), b.size());

  // Trash the live arrays, then restore.
  std::fill(a.begin(), a.end(), -1.0f);
  std::fill(b.begin(), b.end(), 0xFF);
  const std::vector<util::PagedSnapshot::MutableRegion> out = {
      {a.data(), a.size() * sizeof(float)}, {b.data(), b.size()}};
  ASSERT_TRUE(snapshot.restore(out));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], static_cast<float>(i));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(b[i], static_cast<std::uint8_t>(i));
  }
}

TEST(PagedSnapshot, DoubleBufferKeepsLatestCapture) {
  std::vector<std::uint8_t> data(100, 1);
  util::PagedSnapshot snapshot(64);
  const std::vector<util::PagedSnapshot::Region> region = {
      {data.data(), data.size()}};
  snapshot.capture(region);
  std::fill(data.begin(), data.end(), 2);
  snapshot.capture(region);  // second capture goes to the other buffer
  std::fill(data.begin(), data.end(), 9);
  const std::vector<util::PagedSnapshot::MutableRegion> out = {
      {data.data(), data.size()}};
  ASSERT_TRUE(snapshot.restore(out));
  for (const std::uint8_t v : data) ASSERT_EQ(v, 2);
}

TEST(PagedSnapshot, CorruptedPageIsDetectedAndRestoreRefuses) {
  std::vector<std::uint8_t> data(1000, 7);
  util::PagedSnapshot snapshot(128);
  const std::vector<util::PagedSnapshot::Region> region = {
      {data.data(), data.size()}};
  snapshot.capture(region);
  ASSERT_TRUE(snapshot.verify());

  // Flip one bit of the snapshot payload itself (the corruption the
  // per-page CRCs exist to catch).
  snapshot.mutable_payload_for_test()[513] ^= 0x04;
  EXPECT_FALSE(snapshot.verify());
  std::fill(data.begin(), data.end(), 3);
  const std::vector<util::PagedSnapshot::MutableRegion> out = {
      {data.data(), data.size()}};
  EXPECT_FALSE(snapshot.restore(out));
  // A refused restore must not have written anything.
  for (const std::uint8_t v : data) ASSERT_EQ(v, 3);
}

TEST(PagedSnapshot, EmptyCaptureIsValid) {
  util::PagedSnapshot snapshot;
  std::vector<util::PagedSnapshot::Region> none;
  snapshot.capture(none);
  EXPECT_TRUE(snapshot.valid());
  EXPECT_TRUE(snapshot.verify());
  EXPECT_EQ(snapshot.bytes(), 0u);
  std::vector<util::PagedSnapshot::MutableRegion> out;
  EXPECT_TRUE(snapshot.restore(out));
}

// --- util: audit scans ------------------------------------------------------

TEST(AuditScans, FindNonfiniteAndOutside) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> clean = {0.0f, 1.0f, -3.5f};
  EXPECT_EQ(util::find_nonfinite(clean), util::kAuditNone);
  const std::vector<float> dirty = {0.0f, nan, inf};
  EXPECT_EQ(util::find_nonfinite(dirty), 1u);

  EXPECT_EQ(util::find_outside(clean, -4.0f, 4.0f), util::kAuditNone);
  EXPECT_EQ(util::find_outside(clean, 0.0f, 4.0f), 2u);
  // NaN counts as outside any interval.
  EXPECT_EQ(util::find_outside(dirty, -1e30f, 1e30f), 1u);
}

TEST(AuditScans, RelativeDrift) {
  EXPECT_DOUBLE_EQ(util::relative_drift(100.0, 101.0, 1e-30), 0.01);
  EXPECT_DOUBLE_EQ(util::relative_drift(0.0, 0.5, 1.0), 0.5);  // floored
  EXPECT_DOUBLE_EQ(util::relative_drift(50.0, 50.0, 1e-30), 0.0);
}

// --- util: throwing checks --------------------------------------------------

TEST(ThrowingChecks, CheckFiniteThrowsWithContext) {
  EXPECT_NO_THROW(CHECK_FINITE(1.25f, "field x, particle 0"));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    CHECK_FINITE(nan, "field u, particle 42");
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("CHECK_FINITE"), std::string::npos);
    EXPECT_NE(what.find("field u, particle 42"), std::string::npos);
    EXPECT_NE(what.find("nan"), std::string::npos);
  }
}

TEST(ThrowingChecks, CheckBoundsThrowsWithValueAndInterval) {
  EXPECT_NO_THROW(CHECK_BOUNDS(0.5, 0.0, 1.0, "ok"));
  try {
    CHECK_BOUNDS(-2.5f, 0.0, 1.0, "field mass, particle 7");
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("CHECK_BOUNDS"), std::string::npos);
    EXPECT_NE(what.find("-2.5"), std::string::npos);
    EXPECT_NE(what.find("[0, 1]"), std::string::npos);
    EXPECT_NE(what.find("field mass, particle 7"), std::string::npos);
  }
  // NaN fails any bounds check.
  EXPECT_THROW(
      CHECK_BOUNDS(std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0, "nan"),
      InvariantError);
}

// --- integrator: anomaly census ---------------------------------------------

TEST(TimestepAnomalies, AssignBinsCountsCorruptLimits) {
  Particles p;
  for (int i = 0; i < 6; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter, 0, 0, 0,
                0, 0, 0, 1.0f);
  }
  const double inf = std::numeric_limits<double>::infinity();
  // inf is legal (bin 0); NaN and <=0 are the corruption signatures; the
  // 1e-9 limit demands a deeper bin than max_depth (clamped).
  const std::vector<double> limits = {
      inf, 0.5, std::numeric_limits<double>::quiet_NaN(), -1.0, 0.0, 1e-9};
  integrator::TimeBinConfig bins;
  bins.max_depth = 4;
  integrator::TimestepAnomalyStats stats;
  const int depth = integrator::assign_bins(p, limits, 1.0, bins, &stats);
  EXPECT_EQ(depth, 4);
  EXPECT_EQ(stats.nonfinite, 1u);
  EXPECT_EQ(stats.nonpositive, 2u);
  EXPECT_EQ(stats.clamped, 1u);
  EXPECT_DOUBLE_EQ(stats.min_limit, 1e-9);
  // NaN/non-positive limits land in the deepest bin (defensive).
  EXPECT_EQ(p.bin[2], 4);
  EXPECT_EQ(p.bin[3], 4);
}

// --- tree: occupancy census -------------------------------------------------

TEST(BinOccupancy, CountsOwnedAndFlagsEscapees) {
  comm::Box3 domain;
  domain.lo = {0.0, 0.0, 0.0};
  domain.hi = {8.0, 8.0, 8.0};
  Particles p;
  for (int i = 0; i < 16; ++i) {
    p.push_back(static_cast<std::uint64_t>(i), Species::kDarkMatter,
                0.5f + 0.25f * static_cast<float>(i % 8), 4.0f, 4.0f, 0, 0, 0,
                1.0f);
  }
  p.ghost[0] = 1;                                      // ghosts not counted
  p.x[1] = std::numeric_limits<float>::quiet_NaN();    // escaped
  p.x[2] = 1.0e20f;                                    // escaped
  p.x[3] = -0.4f;                                      // inside slack
  const auto stats = tree::bin_occupancy(domain, 2.0, p, /*slack=*/0.5);
  EXPECT_EQ(stats.bins, 64u);
  EXPECT_EQ(stats.out_of_domain, 2u);
  EXPECT_EQ(stats.counted, 13u);  // 16 - 1 ghost - 2 escaped
  EXPECT_GE(stats.max_bin, 1u);
  EXPECT_NEAR(stats.mean_bin, 13.0 / 64.0, 1e-12);
}

TEST(BinOccupancy, PeriodicWrapIsNotAnEscape) {
  // A particle that drifted across the periodic box edge since the last
  // exchange sits at the far side of the global box while still being
  // legitimately owned by this rank. With the box period supplied, the
  // census must count it, not flag it (a false escape here would make
  // the SDC audit deterministically fail a healthy step — fatal, since
  // replay reproduces it bit-for-bit).
  comm::Box3 domain;
  domain.lo = {0.0, 0.0, 0.0};
  domain.hi = {4.0, 8.0, 8.0};  // rank's slab of an 8^3 box
  Particles p;
  p.push_back(0, Species::kDarkMatter, 2.0f, 4.0f, 4.0f, 0, 0, 0, 1.0f);
  p.push_back(1, Species::kDarkMatter, 7.9f, 4.0f, 4.0f, 0, 0, 0,
              1.0f);  // x = -0.1 wrapped to 7.9
  const auto no_period = tree::bin_occupancy(domain, 2.0, p, /*slack=*/0.5);
  EXPECT_EQ(no_period.out_of_domain, 1u);
  const auto periodic =
      tree::bin_occupancy(domain, 2.0, p, /*slack=*/0.5, /*period=*/8.0);
  EXPECT_EQ(periodic.out_of_domain, 0u);
  EXPECT_EQ(periodic.counted, 2u);
  // A genuine escape is still flagged even with the period supplied.
  p.x[1] = 5.5f;  // neither 5.5 nor 5.5±8 is within [−0.5, 4.5]
  const auto escaped =
      tree::bin_occupancy(domain, 2.0, p, /*slack=*/0.5, /*period=*/8.0);
  EXPECT_EQ(escaped.out_of_domain, 1u);
}

TEST(BinOccupancy, HardenedBinningClampsCorruptPositions) {
  comm::Box3 domain;
  domain.lo = {0.0, 0.0, 0.0};
  domain.hi = {8.0, 8.0, 8.0};
  tree::ChainingMesh mesh(domain, {2.0, 4});
  // NaN and wildly out-of-range coordinates must land in valid edge bins
  // (no float->int UB; this test is the UBSan guard for the SDC window
  // between a flip and its audit).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(mesh.bin_of_position_for_test(nan, nan, nan), 0u);
  const std::size_t top = mesh.bin_of_position_for_test(1e30f, 1e30f, 1e30f);
  EXPECT_LT(top, 64u);
  EXPECT_EQ(mesh.bin_of_position_for_test(-1e30f, 4.0f, 4.0f),
            mesh.bin_of_position_for_test(0.5f, 4.0f, 4.0f));
}

// --- core: injector + regions ----------------------------------------------

TEST(MemFaultInjector, DrawIsDeterministicAndRateGated) {
  const core::MemFaultInjector always(1.0, 1234);
  const core::MemFaultInjector never(0.0, 1234);
  for (std::uint64_t opp = 0; opp < 64; ++opp) {
    const auto a = always.draw(opp);
    const auto b = always.draw(opp);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(never.draw(opp).has_value());
    EXPECT_EQ(a->field, b->field);
    EXPECT_EQ(a->index, b->index);
    EXPECT_EQ(a->bit, b->bit);
    EXPECT_LT(a->field, core::MemFaultInjector::kFieldCount);
    EXPECT_LT(a->bit, 32u);
  }
  // Rate ~0.25 hits roughly a quarter of opportunities.
  const core::MemFaultInjector some(0.25, 99);
  int hits = 0;
  for (std::uint64_t opp = 0; opp < 400; ++opp) {
    if (some.draw(opp)) ++hits;
  }
  EXPECT_GT(hits, 50);
  EXPECT_LT(hits, 200);
}

TEST(MemFaultInjector, ApplyFlipTogglesExactlyOneBit) {
  Particles p;
  p.push_back(0, Species::kGas, 1.5f, 2.5f, 3.5f, -1.0f, 0.5f, 2.0f, 1.25f);
  core::MemFaultInjector::Flip flip;
  flip.field = 7;  // mass
  flip.index = 0;
  flip.bit = 31;   // sign
  const std::string what = core::apply_flip(p, flip);
  EXPECT_EQ(p.mass[0], -1.25f);
  EXPECT_NE(what.find("mass[0]"), std::string::npos);
  // Re-applying restores the original value (XOR).
  core::apply_flip(p, flip);
  EXPECT_EQ(p.mass[0], 1.25f);
}

TEST(SdcCheckNames, RendersMaskBits) {
  EXPECT_EQ(core::sdc_check_names(0), "ok");
  EXPECT_EQ(core::sdc_check_names(core::kSdcCheckNonFinite), "nonfinite");
  EXPECT_EQ(core::sdc_check_names(core::kSdcCheckBounds |
                                  core::kSdcCheckConservation),
            "bounds|conservation");
  EXPECT_EQ(core::sdc_check_names(core::kSdcCheckSnapshot), "snapshot");
}

// --- core: auditor ----------------------------------------------------------

core::AuditContext unit_context() {
  core::AuditContext ctx;
  ctx.box = 8.0;
  ctx.position_margin = 2.0;
  ctx.domain.lo = {0.0, 0.0, 0.0};
  ctx.domain.hi = {8.0, 8.0, 8.0};
  ctx.domain_slack = 1.0;
  ctx.cm_bin_width = 2.0;
  return ctx;
}

Particles unit_particles(std::size_t n) {
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, Species::kDarkMatter,
                0.25f + 7.5f * static_cast<float>(i) / static_cast<float>(n),
                4.0f, 4.0f, 10.0f, -5.0f, 2.0f, 1.0f);
  }
  return p;
}

TEST(SdcAuditor, DetectionLattice) {
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    core::SdcAuditor auditor(core::SdcConfig{});
    const auto ctx = unit_context();

    // Clean state passes every gate.
    auto p = unit_particles(32);
    EXPECT_EQ(auditor.audit(comm, p, ctx), 0u);
    EXPECT_TRUE(auditor.last_failure().empty());

    // NaN position -> nonfinite (plus bounds: NaN is outside too).
    p = unit_particles(32);
    p.x[3] = std::numeric_limits<float>::quiet_NaN();
    auto mask = auditor.audit(comm, p, ctx);
    EXPECT_TRUE(mask & core::kSdcCheckNonFinite);
    EXPECT_NE(auditor.last_failure().find("particle 3"), std::string::npos);

    // Superluminal velocity -> bounds.
    p = unit_particles(32);
    p.vy[7] = 1.0e7f;
    mask = auditor.audit(comm, p, ctx);
    EXPECT_TRUE(mask & core::kSdcCheckBounds);
    EXPECT_FALSE(mask & core::kSdcCheckNonFinite);

    // Negative mass -> bounds.
    p = unit_particles(32);
    p.mass[0] = -1.0f;
    EXPECT_TRUE(auditor.audit(comm, p, ctx) & core::kSdcCheckBounds);

    // Escaped position -> bounds + occupancy census agreement.
    p = unit_particles(32);
    p.x[1] = 500.0f;
    mask = auditor.audit(comm, p, ctx);
    EXPECT_TRUE(mask & core::kSdcCheckBounds);
    EXPECT_TRUE(mask & core::kSdcCheckOccupancy);

    // Timestep census anomalies gate the verdict.
    p = unit_particles(32);
    auto bad_ctx = ctx;
    bad_ctx.timestep.nonfinite = 2;
    EXPECT_TRUE(auditor.audit(comm, p, bad_ctx) & core::kSdcCheckTimestep);

    // Solver-side non-finite census gates the verdict.
    bad_ctx = ctx;
    bad_ctx.solver_nonfinite = 1;
    EXPECT_TRUE(auditor.audit(comm, p, bad_ctx) & core::kSdcCheckNonFinite);
  });
}

TEST(SdcAuditor, ConservationGates) {
  comm::World world(2);
  world.run([&](comm::Communicator& comm) {
    core::SdcAuditor auditor(core::SdcConfig{});
    auto ctx = unit_context();
    auto p = unit_particles(32);
    ctx.reference = core::measure_conservation(comm, p);

    // Unchanged state: no drift.
    EXPECT_EQ(auditor.audit(comm, p, ctx), 0u);

    // Rank 1 loses mass silently -> every rank gets the conservation bit.
    auto corrupt = p;
    if (comm.rank() == 1) corrupt.mass[4] = 0.25f;
    const auto mask = auditor.audit(comm, corrupt, ctx);
    EXPECT_TRUE(mask & core::kSdcCheckConservation);

    // Energy explosion (one particle at 1e4 km/s is ~1e5x the budget of
    // the 32 slow particles) -> conservation bit on all ranks.
    auto hot = p;
    if (comm.rank() == 0) hot.vx[0] = 1.0e4f;
    EXPECT_TRUE(auditor.audit(comm, hot, ctx) & core::kSdcCheckConservation);
  });
}

// --- param file -------------------------------------------------------------

TEST(SdcParams, KeysParseAndTyposAreReported) {
  const auto file = core::ParamFile::parse(
      "sdc = on\n"
      "sdc_page_bytes = 4096\n"
      "sdc_max_replays = 5\n"
      "sdc_mass_drift_tol = 1e-8\n"
      "sdc_energy_growth = 50\n"
      "sdc_momentum_drift_tol = 0.25\n"
      "sdc_max_velocity = 1e5\n"
      "sdc_max_u = 1e10\n"
      "sdc_occupancy_factor = 256\n"
      "sdc_max_replay = 9\n");  // typo: must be reported, not absorbed
  ASSERT_TRUE(file.has_value());
  core::SimConfig config;
  const auto unknown = file->apply(config);
  EXPECT_TRUE(config.sdc.enabled);
  EXPECT_EQ(config.sdc.page_bytes, 4096u);
  EXPECT_EQ(config.sdc.max_replays, 5);
  EXPECT_DOUBLE_EQ(config.sdc.mass_drift_tol, 1e-8);
  EXPECT_DOUBLE_EQ(config.sdc.energy_growth_factor, 50.0);
  EXPECT_DOUBLE_EQ(config.sdc.momentum_drift_tol, 0.25);
  EXPECT_DOUBLE_EQ(config.sdc.max_velocity, 1e5);
  EXPECT_DOUBLE_EQ(config.sdc.max_internal_energy, 1e10);
  EXPECT_DOUBLE_EQ(config.sdc.occupancy_factor, 256.0);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "sdc_max_replay");
}

// --- end-to-end drills ------------------------------------------------------

core::SimConfig drill_config() {
  core::SimConfig config;
  config.np = 8;
  config.box = 24.0;
  config.ng = 16;
  config.z_init = 20.0;
  config.z_final = 5.0;
  config.num_pm_steps = 3;
  config.hydro = false;
  config.subgrid_on = false;
  config.bins.max_depth = 4;
  config.seed = 99;
  config.threads = 2;
  config.sdc.enabled = true;
  return config;
}

/// Injector that flips the mass sign bit of one slot at exactly the
/// scripted opportunities. A sign flip on mass is detectable for ANY
/// particle value (mass must sit in [0, max]), keeping the drill
/// deterministic.
class ScriptedFlips : public core::MemFaultInjector {
 public:
  explicit ScriptedFlips(std::vector<std::uint64_t> opportunities)
      : core::MemFaultInjector(0.0, 0),
        opportunities_(std::move(opportunities)) {}

  std::optional<Flip> draw(std::uint64_t opportunity) const override {
    if (std::find(opportunities_.begin(), opportunities_.end(), opportunity) ==
        opportunities_.end()) {
      return std::nullopt;
    }
    Flip flip;
    flip.field = 7;  // mass
    flip.index = 5;
    flip.bit = 31;   // sign bit
    return flip;
  }

 private:
  std::vector<std::uint64_t> opportunities_;
};

TEST(SdcDrill, RollbackReplayMatchesUninjectedRunBitwise) {
  // The acceptance drill: a seeded bit flip lands in a live particle
  // array mid-step; the audit detects it, the step rolls back to the
  // in-memory snapshot and replays, and the final 3-step state is
  // bitwise identical to a run that never saw the flip.
  const int num_ranks = 2;
  comm::World world(num_ranks);

  std::vector<Particles> reference(num_ranks);
  world.run([&](comm::Communicator& comm) {
    const auto sim_config = drill_config();
    core::SimContext ctx(sim_config.threads);
    core::Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.sdc_audits, 3u);  // one clean audit per step
    EXPECT_EQ(result.sdc_detections, 0u);
    reference[static_cast<std::size_t>(comm.rank())] = sim.particles();
  });

  world.run([&](comm::Communicator& comm) {
    const auto sim_config = drill_config();
    core::SimContext ctx(sim_config.threads);
    core::Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    // Each step consumes 2 opportunities (one per drill point); step 0
    // uses {0,1}, step 1 uses {2,3}. Flip once, mid-step-1.
    const ScriptedFlips injector({2});
    sim.set_memory_fault_injector(&injector);
    const auto result = sim.run();
    sim.set_memory_fault_injector(nullptr);  // injector dies before sim
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.sdc_injected_flips, 1u);
    EXPECT_EQ(result.sdc_detections, 1u);
    EXPECT_EQ(result.sdc_rollbacks, 1u);
    EXPECT_EQ(result.sdc_replays, 1u);
    EXPECT_EQ(result.sdc_escalations, 0u);
    EXPECT_EQ(result.sdc_audits, 4u);  // 3 steps + 1 replayed attempt
    EXPECT_EQ(result.steps_done, 3u);
    ASSERT_EQ(result.reports.size(), 3u);
    EXPECT_TRUE(result.reports[1].sdc.failed_checks != 0u);

    const auto& want = reference[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(first_state_difference(sim.particles(), want), "");
  });
}

TEST(SdcDrill, PersistentFlipsExhaustReplayBudgetAndEscalate) {
  // Flips at every drill point of one step burn the whole replay budget;
  // the step must escalate to checkpoint restore and the campaign still
  // completes with the right final state.
  const int num_ranks = 2;
  TempDir dir;
  comm::World world(num_ranks);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < num_ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }

  auto config = drill_config();
  config.sdc.max_replays = 1;

  std::vector<Particles> reference(num_ranks);
  world.run([&](comm::Communicator& comm) {
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    reference[static_cast<std::size_t>(comm.rank())] = sim.particles();
  });

  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 8});
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    // Step 0 is clean ({0,1}) and checkpoints. Step 1's first attempt
    // (drill points {2,3}) and its single replay ({4,5}) are each
    // poisoned at ONE drill point (two flips at the same slot would XOR
    // back to clean) -> escalation. The re-run of step 1 after
    // recover() ({6,7}) is clean.
    const ScriptedFlips injector({2, 4});
    sim.set_memory_fault_injector(&injector);
    auto result = sim.run(&writer, &pfs);
    sim.set_memory_fault_injector(nullptr);  // injector dies before sim
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.sdc_detections, 2u);
    EXPECT_EQ(result.sdc_rollbacks, 1u);
    EXPECT_EQ(result.sdc_replays, 1u);
    EXPECT_EQ(result.sdc_escalations, 1u);
    EXPECT_EQ(result.sdc_injected_flips, 2u);
    EXPECT_EQ(result.recovery_attempts, 1u);
    EXPECT_EQ(result.checkpoint_fallbacks, 0u);
    EXPECT_EQ(result.restarts_from_ics, 0u);
    EXPECT_EQ(result.steps_done, 3u);

    const auto& want = reference[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(first_state_difference(sim.particles(), want), "");
    writer.drain();
    comm.barrier();
  });
}

TEST(SdcDrill, EscalationWithCorruptNewestCheckpointFallsBack) {
  // The PR 1 x PR 3 interaction: the replay budget is exhausted AND the
  // newest at-rest checkpoint is bit-flipped. recover() must reject the
  // corrupt checkpoint (CRC), fall back one step further, and the run
  // must still finish bitwise-identical to the clean campaign.
  const int num_ranks = 2;
  TempDir dir;
  comm::World world(num_ranks);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < num_ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }

  auto config = drill_config();
  config.sdc.max_replays = 1;

  std::vector<Particles> reference(num_ranks);
  world.run([&](comm::Communicator& comm) {
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    reference[static_cast<std::size_t>(comm.rank())] = sim.particles();
  });

  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 8});
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    // Steps 0 and 1 run clean and checkpoint (steps 1 and 2 on disk).
    sim.step(&writer);
    sim.step(&writer);
    writer.drain();
    comm.barrier();
    // Silently flip a bit of every rank's newest (step 2) payload.
    if (comm.rank() == 0) {
      for (int r = 0; r < num_ranks; ++r) {
        const auto path =
            pfs.full_path(io::MultiTierWriter::checkpoint_path(2, r));
        std::fstream file(path,
                          std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(static_cast<bool>(file));
        file.seekg(80);
        char byte;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x10);
        file.seekp(80);
        file.write(&byte, 1);
      }
    }
    comm.barrier();

    // Step 2 (the third PM step) has consumed opportunities {0..3};
    // poison its first attempt (drill points {4,5}) and only replay
    // ({6,7}) at one drill point each (a pair at the same slot XORs
    // back to clean).
    const ScriptedFlips injector({4, 6});
    sim.set_memory_fault_injector(&injector);
    auto result = sim.run(&writer, &pfs);
    sim.set_memory_fault_injector(nullptr);  // injector dies before sim
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.sdc_escalations, 1u);
    // Newest checkpoint (step 2) failed validation -> fell back to 1.
    EXPECT_EQ(result.recovery_attempts, 2u);
    EXPECT_EQ(result.checkpoint_fallbacks, 1u);
    EXPECT_EQ(result.restarts_from_ics, 0u);
    // Recovered at step 1: replays steps 1 and 2 (clean: the flip
    // window has passed).
    EXPECT_EQ(result.steps_done, 2u);

    const auto& want = reference[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(first_state_difference(sim.particles(), want), "");
    writer.drain();
    comm.barrier();
  });
}

TEST(SdcDrill, GuardrailsOffAndOnAgreeBitwiseWithoutFaults) {
  // The guardrail layer must be a pure observer when nothing is wrong:
  // snapshot + audit + commit must not perturb the trajectory.
  const int num_ranks = 2;
  comm::World world(num_ranks);
  std::vector<Particles> reference(num_ranks);
  world.run([&](comm::Communicator& comm) {
    auto config = drill_config();
    config.sdc.enabled = false;
    core::SimContext ctx(config.threads);
    core::Simulation sim(ctx, comm, config);
    sim.initialize();
    ASSERT_TRUE(sim.run().completed);
    reference[static_cast<std::size_t>(comm.rank())] = sim.particles();
  });
  world.run([&](comm::Communicator& comm) {
    const auto sim_config = drill_config();
    core::SimContext ctx(sim_config.threads);
    core::Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.sdc_audits, 3u);
    EXPECT_EQ(result.sdc_detections, 0u);
    const auto& want = reference[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(first_state_difference(sim.particles(), want), "");
  });
}

}  // namespace
}  // namespace crkhacc
