// Fault-domain tests: injectable storage faults (torn writes, bit flips,
// transient EIO, sticky ENOSPC), write-verify + retry in the multi-tier
// writer, end-to-end checkpoint integrity (CRC markers), recovery
// fallback to older checkpoints in the simulation driver, and the
// drain/shutdown race.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "comm/world.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "io/storage.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace crkhacc::io {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    // PID-qualified: ctest -j runs each case in its own process, so a
    // per-process counter alone collides across concurrent cases.
    path_ = fs::temp_directory_path() /
            ("crkhacc_fault_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

Particles sample_particles(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(i, i % 2 ? Species::kGas : Species::kDarkMatter,
                static_cast<float>(rng.next_double() * 10.0),
                static_cast<float>(rng.next_double() * 10.0),
                static_cast<float>(rng.next_double() * 10.0),
                static_cast<float>(rng.next_gaussian()),
                static_cast<float>(rng.next_gaussian()),
                static_cast<float>(rng.next_gaussian()),
                static_cast<float>(1.0 + rng.next_double()));
  }
  return p;
}

struct Tiers {
  TempDir dir;
  ThrottledStore nvme;
  ThrottledStore pfs;

  Tiers()
      : nvme(StoreConfig{dir.str() + "/nvme", 0.0, 0.0, false}),
        pfs(StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true}) {}
};

MultiTierConfig fast_retry_config(int rank = 0, int window = 8) {
  MultiTierConfig config;
  config.rank = rank;
  config.checkpoint_window = window;
  config.max_write_attempts = 4;
  config.backoff_base_s = 1e-4;
  config.backoff_max_s = 1e-3;
  return config;
}

// --- storage fault policy ---------------------------------------------------

TEST(StorageFaults, ScheduleIsDeterministic) {
  // Two stores with the same seed inject the identical fault sequence.
  TempDir dir_a, dir_b;
  ThrottledStore a(StoreConfig{dir_a.str(), 0.0, 0.0, false});
  ThrottledStore b(StoreConfig{dir_b.str(), 0.0, 0.0, false});
  FaultPolicy policy;
  policy.seed = 77;
  policy.transient_eio = 0.3;
  a.set_fault_policy(policy);
  b.set_fault_policy(policy);
  const std::vector<std::uint8_t> data(64, 42);
  int eio_count = 0;
  for (int op = 0; op < 50; ++op) {
    const auto oa = a.try_write("f" + std::to_string(op), data);
    const auto ob = b.try_write("f" + std::to_string(op), data);
    EXPECT_EQ(static_cast<int>(oa.status), static_cast<int>(ob.status));
    if (oa.status == IoStatus::kTransientError) ++eio_count;
  }
  EXPECT_GT(eio_count, 5);
  EXPECT_LT(eio_count, 30);
  EXPECT_EQ(a.fault_stats().eio_errors, static_cast<std::uint64_t>(eio_count));
}

TEST(StorageFaults, TornWriteIsSilentButDetectable) {
  TempDir dir;
  ThrottledStore store(StoreConfig{dir.str(), 0.0, 0.0, false});
  FaultPolicy policy;
  policy.seed = 3;
  policy.torn_write = 1.0;  // every write torn
  store.set_fault_policy(policy);
  const std::vector<std::uint8_t> data(1000, 0xAB);
  const auto outcome = store.try_write("torn.bin", data);
  // Silent: the write claims success...
  EXPECT_EQ(static_cast<int>(outcome.status), static_cast<int>(IoStatus::kOk));
  EXPECT_EQ(store.fault_stats().torn_writes, 1u);
  // ...but read-back shows a prefix, caught by size/CRC comparison.
  std::vector<std::uint8_t> echo;
  ASSERT_TRUE(store.read("torn.bin", echo));
  EXPECT_LT(echo.size(), data.size());
}

TEST(StorageFaults, BitFlipIsSilentButDetectable) {
  TempDir dir;
  ThrottledStore store(StoreConfig{dir.str(), 0.0, 0.0, false});
  FaultPolicy policy;
  policy.seed = 4;
  policy.bit_flip = 1.0;
  store.set_fault_policy(policy);
  const std::vector<std::uint8_t> data(1000, 0xAB);
  ASSERT_EQ(static_cast<int>(store.try_write("flip.bin", data).status),
            static_cast<int>(IoStatus::kOk));
  std::vector<std::uint8_t> echo;
  ASSERT_TRUE(store.read("flip.bin", echo));
  ASSERT_EQ(echo.size(), data.size());
  EXPECT_NE(crc32(echo.data(), echo.size()), crc32(data.data(), data.size()));
  // Exactly one bit differs.
  int flipped_bits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    flipped_bits += __builtin_popcount(data[i] ^ echo[i]);
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(StorageFaults, EnospcIsSticky) {
  TempDir dir;
  ThrottledStore store(StoreConfig{dir.str(), 0.0, 0.0, false});
  FaultPolicy policy;
  policy.seed = 5;
  policy.enospc = 1.0;
  store.set_fault_policy(policy);
  const std::vector<std::uint8_t> data(10, 1);
  EXPECT_EQ(static_cast<int>(store.try_write("a", data).status),
            static_cast<int>(IoStatus::kNoSpace));
  EXPECT_TRUE(store.tier_failed());
  // Even with the hazard removed, the tier stays failed until reset.
  store.set_fault_policy(FaultPolicy{});
  EXPECT_EQ(static_cast<int>(store.try_write("b", data).status),
            static_cast<int>(IoStatus::kNoSpace));
  store.reset_tier();
  EXPECT_EQ(static_cast<int>(store.try_write("c", data).status),
            static_cast<int>(IoStatus::kOk));
}

TEST(StorageFaults, DisabledPolicyNeverFails) {
  TempDir dir;
  ThrottledStore store(StoreConfig{dir.str(), 0.0, 0.0, false});
  const std::vector<std::uint8_t> data(100, 9);
  for (int op = 0; op < 20; ++op) {
    EXPECT_EQ(static_cast<int>(store.try_write("f", data).status),
              static_cast<int>(IoStatus::kOk));
  }
  const auto stats = store.fault_stats();
  EXPECT_EQ(stats.torn_writes + stats.bit_flips + stats.eio_errors +
                stats.enospc_errors,
            0u);
}

// --- checkpoint markers -----------------------------------------------------

TEST(CheckpointMarkerCodec, RoundTripAndRejectsCorruption) {
  CheckpointMarker marker;
  marker.payload_bytes = 123456;
  marker.payload_crc = 0xDEADBEEF;
  const auto bytes = encode_marker(marker);
  CheckpointMarker decoded;
  ASSERT_TRUE(decode_marker(bytes, decoded));
  EXPECT_EQ(decoded.payload_bytes, 123456u);
  EXPECT_EQ(decoded.payload_crc, 0xDEADBEEFu);

  auto corrupt = bytes;
  corrupt[6] ^= 0x10;
  EXPECT_FALSE(decode_marker(corrupt, decoded));
  corrupt = bytes;
  corrupt.pop_back();  // torn marker
  EXPECT_FALSE(decode_marker(corrupt, decoded));
  EXPECT_FALSE(decode_marker({1}, decoded));  // legacy marker format
}

TEST(CheckpointIntegrity, MarkerCarriesPayloadCrc) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, fast_retry_config());
  const auto p = sample_particles(40, 11);
  SnapshotMeta meta;
  meta.step = 3;
  writer.write_checkpoint(meta, p);
  writer.drain();

  std::vector<std::uint8_t> marker_bytes;
  ASSERT_TRUE(tiers.pfs.read(MultiTierWriter::marker_path(3, 0), marker_bytes));
  CheckpointMarker marker;
  ASSERT_TRUE(decode_marker(marker_bytes, marker));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(
      tiers.pfs.read(MultiTierWriter::checkpoint_path(3, 0), payload));
  EXPECT_EQ(marker.payload_bytes, payload.size());
  EXPECT_EQ(marker.payload_crc, crc32(payload.data(), payload.size()));
  EXPECT_TRUE(verify_checkpoint_rank(tiers.pfs, 3, 0));
}

TEST(CheckpointIntegrity, DiscoverySkipsBitFlippedCheckpoint) {
  // A checkpoint corrupted at rest (after the marker was stamped) must
  // not be reported as complete.
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, fast_retry_config());
  const auto p = sample_particles(40, 12);
  for (std::uint64_t step = 1; step <= 2; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  ASSERT_EQ(latest_complete_checkpoint(tiers.pfs, 1).value_or(0), 2u);

  // Flip one bit of the newest payload in place on the "PFS".
  const auto path = tiers.pfs.full_path(MultiTierWriter::checkpoint_path(2, 0));
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(static_cast<bool>(file));
    file.seekg(100);
    char byte;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(100);
    file.write(&byte, 1);
  }
  EXPECT_FALSE(verify_checkpoint_rank(tiers.pfs, 2, 0));
  EXPECT_EQ(latest_complete_checkpoint(tiers.pfs, 1).value_or(0), 1u);

  // restore_checkpoint refuses the corrupt step and accepts the older.
  SnapshotMeta meta;
  Particles out;
  EXPECT_FALSE(restore_checkpoint(tiers.pfs, 2, 0, meta, out));
  EXPECT_TRUE(restore_checkpoint(tiers.pfs, 1, 0, meta, out));
}

// --- multi-tier writer under faults ----------------------------------------

TEST(MultiTierFaults, RetriesThroughTransientPfsErrors) {
  Tiers tiers;
  FaultPolicy policy;
  policy.seed = 21;
  policy.transient_eio = 0.5;
  tiers.pfs.set_fault_policy(policy);
  auto config = fast_retry_config();
  config.max_write_attempts = 10;  // 0.5^10 residual exhaustion risk
  MultiTierWriter writer(tiers.nvme, tiers.pfs, config);
  const auto p = sample_particles(60, 13);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  // Despite a 50% per-op error rate, every checkpoint lands intact.
  for (std::uint64_t step = 1; step <= 6; ++step) {
    EXPECT_TRUE(verify_checkpoint_rank(tiers.pfs, step, 0)) << step;
  }
  const auto stats = writer.stats();
  EXPECT_GT(stats.pfs_retries, 0u);
  EXPECT_EQ(stats.bleed_failures, 0u);
}

TEST(MultiTierFaults, VerifyCatchesTornAndFlippedBleeds) {
  Tiers tiers;
  FaultPolicy policy;
  policy.seed = 22;
  policy.torn_write = 0.25;
  policy.bit_flip = 0.25;
  tiers.pfs.set_fault_policy(policy);
  MultiTierWriter writer(tiers.nvme, tiers.pfs, fast_retry_config());
  const auto p = sample_particles(60, 14);
  for (std::uint64_t step = 1; step <= 8; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  // Half the ops corrupt silently: write-verify must have caught some...
  EXPECT_GT(writer.stats().verify_failures, 0u);
  // ...and the completion invariant holds exactly: a checkpoint reported
  // bled passes end-to-end validation; one that exhausted its retries
  // never does (no corrupt checkpoint can masquerade as complete).
  std::uint64_t bled_count = 0;
  for (const auto& record : writer.records()) {
    EXPECT_EQ(verify_checkpoint_rank(tiers.pfs, record.step, 0), record.bled)
        << record.step;
    if (record.bled) ++bled_count;
  }
  EXPECT_GT(bled_count, 0u);
}

TEST(MultiTierFaults, RetryExhaustionLeavesCheckpointIncomplete) {
  Tiers tiers;
  FaultPolicy policy;
  policy.seed = 23;
  policy.transient_eio = 1.0;  // PFS never accepts a write
  tiers.pfs.set_fault_policy(policy);
  MultiTierWriter writer(tiers.nvme, tiers.pfs, fast_retry_config());
  const auto p = sample_particles(30, 15);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();

  const auto stats = writer.stats();
  EXPECT_EQ(stats.bleed_failures, 1u);
  // max_write_attempts - 1 retries before giving up.
  EXPECT_EQ(stats.pfs_retries, 3u);
  // No marker: the checkpoint must not be discoverable...
  EXPECT_FALSE(latest_complete_checkpoint(tiers.pfs, 1).has_value());
  // ...and the local copy is retained as the only good replica.
  EXPECT_TRUE(tiers.nvme.exists(MultiTierWriter::checkpoint_path(1, 0)));
}

TEST(MultiTierFaults, DegradesToDirectPfsWhenLocalTierDies) {
  Tiers tiers;
  FaultPolicy policy;
  policy.seed = 24;
  policy.enospc = 1.0;  // node-local NVMe fails on first touch
  tiers.nvme.set_fault_policy(policy);
  MultiTierWriter writer(tiers.nvme, tiers.pfs, fast_retry_config());
  const auto p = sample_particles(30, 16);
  for (std::uint64_t step = 1; step <= 3; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  // All checkpoints still reach the PFS intact, via the direct path.
  for (std::uint64_t step = 1; step <= 3; ++step) {
    EXPECT_TRUE(verify_checkpoint_rank(tiers.pfs, step, 0)) << step;
  }
  const auto stats = writer.stats();
  EXPECT_TRUE(stats.degraded_to_direct);
  EXPECT_EQ(stats.bleed_failures, 0u);
  const auto records = writer.records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& record : records) EXPECT_TRUE(record.bled);
}

// --- prune window -----------------------------------------------------------

TEST(MultiTierPrune, NoLeakWhenManyStepsElapseBetweenBleeds) {
  // Regression: the old fixed cutoff-8 scan window leaked checkpoints
  // when step numbers jumped by more than 8 between bleeds.
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         fast_retry_config(0, /*window=*/2));
  const auto p = sample_particles(10, 17);
  for (std::uint64_t step : {1ull, 2ull, 3ull, 30ull, 31ull}) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  // Window of 2 behind newest=31: steps 1, 2, 3 (a >8-step-old batch)
  // must all be gone.
  for (std::uint64_t step : {1ull, 2ull, 3ull}) {
    EXPECT_FALSE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(step, 0)))
        << step;
    EXPECT_FALSE(tiers.pfs.exists(MultiTierWriter::marker_path(step, 0)))
        << step;
  }
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(30, 0)));
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(31, 0)));
}

// --- drain / shutdown race --------------------------------------------------

TEST(MultiTierShutdown, ShutdownReleasesBlockedDrain) {
  // A drain racing writer teardown must not wait forever: shutdown()
  // wakes it even though queued bleeds were abandoned.
  TempDir dir;
  ThrottledStore nvme(StoreConfig{dir.str() + "/nvme", 0.0, 0.0, false});
  // Slow PFS so queued bleeds cannot finish quickly.
  ThrottledStore pfs(StoreConfig{dir.str() + "/pfs", 50e3, 0.0, true});
  MultiTierWriter writer(nvme, pfs, fast_retry_config());
  const auto p = sample_particles(2000, 18);  // ~130 KB -> seconds per bleed
  for (std::uint64_t step = 1; step <= 4; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  std::thread drainer([&] { writer.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  writer.shutdown();  // must release the drainer promptly
  drainer.join();
  SUCCEED();
}

TEST(MultiTierShutdown, ShutdownIsIdempotentAndSafeBeforeDestruction) {
  Tiers tiers;
  auto writer = std::make_unique<MultiTierWriter>(tiers.nvme, tiers.pfs,
                                                  fast_retry_config());
  const auto p = sample_particles(10, 19);
  SnapshotMeta meta;
  meta.step = 1;
  writer->write_checkpoint(meta, p);
  writer->drain();
  writer->shutdown();
  writer->shutdown();  // idempotent
  writer.reset();      // destructor after explicit shutdown
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(1, 0)));
}

}  // namespace
}  // namespace crkhacc::io

// --- end-to-end recovery through the simulation driver ----------------------

namespace crkhacc::core {
namespace {

namespace fs = std::filesystem;

SimConfig tiny_config() {
  SimConfig config;
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
  return config;
}

class TempDir {
 public:
  TempDir() {
    // PID-qualified for the same reason as the storage-layer TempDir.
    path_ = fs::temp_directory_path() /
            ("crkhacc_fault_sim_test_" + std::to_string(::getpid()) + "_" +
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

/// FaultInjector that interrupts at exactly the scripted trials.
class ScriptedFault : public io::FaultInjector {
 public:
  explicit ScriptedFault(std::vector<std::uint64_t> fail_trials)
      : io::FaultInjector(0.0, 0), fail_trials_(std::move(fail_trials)) {}

  bool should_fail(std::uint64_t trial, double /*dt*/) const override {
    return std::find(fail_trials_.begin(), fail_trials_.end(), trial) !=
           fail_trials_.end();
  }

 private:
  std::vector<std::uint64_t> fail_trials_;
};

TEST(SimulationRecovery, CorruptNewestCheckpointFallsBackBitExact) {
  // The acceptance scenario: the newest checkpoint is silently corrupted
  // (bit flip at rest, caught by CRC), a machine interrupt strikes, and
  // the run must recover from the next-older step and still finish with
  // final state identical to a fault-free run.
  const int num_ranks = 2;
  TempDir dir;
  comm::World world(num_ranks);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < num_ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }

  // Reference: the same campaign, no faults.
  std::vector<Particles> reference(num_ranks);
  world.run([&](comm::Communicator& comm) {
    const auto sim_config = tiny_config();
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    const auto result = sim.run();
    ASSERT_TRUE(result.completed);
    reference[static_cast<std::size_t>(comm.rank())] = sim.particles();
  });

  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 8});
    const auto sim_config = tiny_config();
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    // Steps 1 and 2 complete and checkpoint; then corrupt the newest
    // checkpoint of every rank; then an interrupt strikes at trial 2.
    sim.step(&writer);
    sim.step(&writer);
    writer.drain();
    comm.barrier();
    if (comm.rank() == 0) {
      for (int r = 0; r < num_ranks; ++r) {
        const auto path =
            pfs.full_path(io::MultiTierWriter::checkpoint_path(2, r));
        std::fstream file(path,
                          std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(static_cast<bool>(file));
        file.seekg(64);
        char byte;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x08);
        file.seekp(64);
        file.write(&byte, 1);
      }
    }
    comm.barrier();

    const ScriptedFault fault({0});  // interrupt immediately on resuming
    auto result = sim.run(&writer, &pfs, &fault);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.interruptions, 1u);
    // Newest (step 2) failed CRC -> fell back to step 1.
    EXPECT_EQ(result.recovery_attempts, 2u);
    EXPECT_EQ(result.checkpoint_fallbacks, 1u);
    EXPECT_EQ(result.restarts_from_ics, 0u);
    // Replayed steps 1->3 after recovering from step 1.
    EXPECT_EQ(result.steps_done, 2u);

    // Final state is bit-identical to the fault-free campaign.
    const auto& expect = reference[static_cast<std::size_t>(comm.rank())];
    const auto& got = sim.particles();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.id[i], expect.id[i]);
      ASSERT_EQ(got.x[i], expect.x[i]);
      ASSERT_EQ(got.y[i], expect.y[i]);
      ASSERT_EQ(got.z[i], expect.z[i]);
      ASSERT_EQ(got.vx[i], expect.vx[i]);
      ASSERT_EQ(got.vy[i], expect.vy[i]);
      ASSERT_EQ(got.vz[i], expect.vz[i]);
    }
    writer.drain();
    comm.barrier();
  });
}

TEST(SimulationRecovery, AllCheckpointsCorruptRestartsFromIcs) {
  const int num_ranks = 2;
  TempDir dir;
  comm::World world(num_ranks);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
  for (int r = 0; r < num_ranks; ++r) {
    nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
        dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
  }
  world.run([&](comm::Communicator& comm) {
    io::MultiTierWriter writer(*nvmes[static_cast<std::size_t>(comm.rank())],
                               pfs, io::MultiTierConfig{comm.rank(), 8});
    const auto sim_config = tiny_config();
    SimContext ctx(sim_config.threads);
    Simulation sim(ctx, comm, sim_config);
    sim.initialize();
    sim.step(&writer);
    writer.drain();
    comm.barrier();
    // Remove rank 0's payload: step 1 is unusable for everyone.
    if (comm.rank() == 0) {
      pfs.remove(io::MultiTierWriter::checkpoint_path(1, 0));
    }
    comm.barrier();

    RunResult probe;
    sim.recover(pfs, probe);
    EXPECT_EQ(probe.recovery_attempts, 1u);
    EXPECT_EQ(probe.checkpoint_fallbacks, 1u);
    EXPECT_EQ(probe.restarts_from_ics, 1u);
    EXPECT_EQ(sim.current_step(), 0u);
    comm.barrier();
  });
}

}  // namespace
}  // namespace crkhacc::core
