// Tests for the I/O stack: throttled storage tiers, the multi-tier
// writer, checkpoint discovery/restart, fault injection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "core/particles.h"
#include "io/checkpoint.h"
#include "io/multi_tier.h"
#include "io/storage.h"
#include "util/rng.h"
#include "util/timer.h"

namespace crkhacc::io {
namespace {

namespace fs = std::filesystem;

Particles sample_particles(std::size_t n, std::uint64_t seed,
                           std::size_t num_ghosts = 0) {
  SplitMix64 rng(seed);
  Particles p;
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = p.push_back(
        i, i % 2 ? Species::kGas : Species::kDarkMatter,
        static_cast<float>(rng.next_double() * 10.0),
        static_cast<float>(rng.next_double() * 10.0),
        static_cast<float>(rng.next_double() * 10.0),
        static_cast<float>(rng.next_gaussian()),
        static_cast<float>(rng.next_gaussian()),
        static_cast<float>(rng.next_gaussian()),
        static_cast<float>(1.0 + rng.next_double()));
    p.u[idx] = static_cast<float>(rng.next_double() * 100.0);
    p.rho[idx] = static_cast<float>(rng.next_double());
    p.hsml[idx] = 0.5f;
    p.metal[idx] = 0.01f;
    p.bin[idx] = static_cast<std::uint8_t>(i % 5);
    if (i < num_ghosts) p.ghost[idx] = 1;
  }
  return p;
}

class TempDir {
 public:
  TempDir() {
    // PID-qualified: ctest -j runs each case in its own process, so a
    // per-process counter alone collides across concurrent cases.
    path_ = fs::temp_directory_path() /
            ("crkhacc_io_test_" + std::to_string(::getpid()) + "_" +
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

// --- throttled store -------------------------------------------------------------

TEST(ThrottledStore, WriteReadRemoveList) {
  TempDir dir;
  StoreConfig config;
  config.root = dir.str();
  ThrottledStore store(config);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  store.write("sub/file.bin", data);
  EXPECT_TRUE(store.exists("sub/file.bin"));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(store.read("sub/file.bin", out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(store.bytes_written(), 5u);
  EXPECT_EQ(store.list("sub").size(), 1u);
  store.remove("sub/file.bin");
  EXPECT_FALSE(store.exists("sub/file.bin"));
  EXPECT_FALSE(store.read("sub/file.bin", out));
}

TEST(ThrottledStore, EnforcesBandwidth) {
  TempDir dir;
  StoreConfig config;
  config.root = dir.str();
  config.bandwidth_bytes_per_s = 1e6;  // 1 MB/s
  ThrottledStore store(config);
  const std::vector<std::uint8_t> data(100000, 7);  // 100 KB -> 0.1 s
  const double elapsed = store.write("f.bin", data);
  EXPECT_GE(elapsed, 0.09);
  EXPECT_LT(elapsed, 0.5);
}

TEST(ThrottledStore, SharedChannelSerializesWriters) {
  TempDir dir;
  StoreConfig config;
  config.root = dir.str();
  config.bandwidth_bytes_per_s = 2e6;
  config.shared_channel = true;
  ThrottledStore store(config);
  const std::vector<std::uint8_t> data(100000, 1);  // 0.05 s each
  Stopwatch watch;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, &data, t] {
      store.write("w" + std::to_string(t) + ".bin", data);
    });
  }
  for (auto& w : writers) w.join();
  // Four writers on a shared 0.05 s channel: >= ~0.2 s total.
  EXPECT_GE(watch.seconds(), 0.18);
}

TEST(ThrottledStore, PrivateChannelDoesNotSerialize) {
  TempDir dir;
  StoreConfig config;
  config.root = dir.str();
  config.bandwidth_bytes_per_s = 2e6;
  config.shared_channel = false;
  ThrottledStore store(config);
  const std::vector<std::uint8_t> data(100000, 1);
  Stopwatch watch;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, &data, t] {
      store.write("w" + std::to_string(t) + ".bin", data);
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_LT(watch.seconds(), 0.15);
}

TEST(ThrottledStore, IngestMovesFileBetweenTiers) {
  TempDir dir;
  StoreConfig fast_config{dir.str() + "/nvme", 0.0, 0.0, false};
  StoreConfig slow_config{dir.str() + "/pfs", 0.0, 0.0, true};
  ThrottledStore nvme(fast_config), pfs(slow_config);
  nvme.write("ckpt/a.bin", {9, 9, 9});
  pfs.ingest(nvme, "ckpt/a.bin");
  EXPECT_FALSE(nvme.exists("ckpt/a.bin"));
  EXPECT_TRUE(pfs.exists("ckpt/a.bin"));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(pfs.read("ckpt/a.bin", out));
  EXPECT_EQ(out.size(), 3u);
}

// --- multi-tier writer ---------------------------------------------------------

struct Tiers {
  TempDir dir;
  ThrottledStore nvme;
  ThrottledStore pfs;

  explicit Tiers(double nvme_bw = 0.0, double pfs_bw = 0.0)
      : nvme(StoreConfig{dir.str() + "/nvme", nvme_bw, 0.0, false}),
        pfs(StoreConfig{dir.str() + "/pfs", pfs_bw, 0.0, true}) {}
};

TEST(MultiTierWriter, CheckpointReachesPfsWithMarker) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, MultiTierConfig{0, 2});
  const auto p = sample_particles(40, 5);
  SnapshotMeta meta;
  meta.step = 1;
  meta.scale_factor = 0.1;
  writer.write_checkpoint(meta, p);
  writer.drain();
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(1, 0)));
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::marker_path(1, 0)));
  EXPECT_FALSE(tiers.nvme.exists(MultiTierWriter::checkpoint_path(1, 0)));
  const auto records = writer.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].bled);
  EXPECT_GT(records[0].bytes, 0u);
}

TEST(MultiTierWriter, WindowPruningRemovesOldCheckpoints) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, MultiTierConfig{0, 2});
  const auto p = sample_particles(10, 6);
  for (std::uint64_t step = 0; step < 6; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  // Window of 2: steps 4, 5 survive; old steps are pruned.
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(5, 0)));
  EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(4, 0)));
  EXPECT_FALSE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(1, 0)));
  EXPECT_FALSE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(0, 0)));
}

TEST(MultiTierWriter, LocalWriteBlocksLessThanDirect) {
  // NVMe fast, PFS slow: the multi-tier path must block the caller far
  // less than the direct path for the same payload.
  Tiers tiers(/*nvme_bw=*/50e6, /*pfs_bw=*/5e6);
  const auto p = sample_particles(2000, 7);  // ~130 KB

  MultiTierWriter multi(tiers.nvme, tiers.pfs, MultiTierConfig{0, 4});
  SnapshotMeta meta;
  meta.step = 1;
  const double multi_blocked = multi.write_checkpoint(meta, p);
  multi.drain();

  MultiTierWriter direct(tiers.nvme, tiers.pfs, MultiTierConfig{0, 4});
  meta.step = 2;
  const double direct_blocked = direct.write_checkpoint_direct(meta, p);

  EXPECT_LT(multi_blocked * 3.0, direct_blocked);
}

TEST(MultiTierWriter, AccountsBytes) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, MultiTierConfig{0, 8});
  const auto p = sample_particles(25, 8);
  for (std::uint64_t step = 0; step < 3; ++step) {
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  CkptFileMeta full;
  full.snapshot.particle_count = p.size();
  full.chunk_bytes = static_cast<std::uint32_t>(CkptConfig{}.chunk_bytes);
  const auto expected =
      encode_checkpoint(full, particle_columns(p)).size() * 3;
  EXPECT_EQ(writer.bytes_written(), expected);
}

// --- checkpoint discovery / restart -----------------------------------------------

TEST(Checkpoint, FindsNewestCompleteAcrossRanks) {
  Tiers tiers;
  const auto p = sample_particles(15, 9);
  const int num_ranks = 3;
  std::vector<std::unique_ptr<MultiTierWriter>> writers;
  for (int r = 0; r < num_ranks; ++r) {
    writers.push_back(std::make_unique<MultiTierWriter>(
        tiers.nvme, tiers.pfs, MultiTierConfig{r, 8}));
  }
  for (std::uint64_t step = 1; step <= 3; ++step) {
    for (int r = 0; r < num_ranks; ++r) {
      SnapshotMeta meta;
      meta.step = step;
      meta.rank = r;
      meta.num_ranks = num_ranks;  // the real writer stamps this
      writers[static_cast<std::size_t>(r)]->write_checkpoint(meta, p);
    }
  }
  for (auto& w : writers) w->drain();
  EXPECT_EQ(checkpoint_writer_count(tiers.pfs, 3), num_ranks);
  auto latest = latest_complete_checkpoint(tiers.pfs, num_ranks);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 3u);

  // Break step 3 for rank 1: discovery falls back to step 2.
  tiers.pfs.remove(MultiTierWriter::marker_path(3, 1));
  latest = latest_complete_checkpoint(tiers.pfs, num_ranks);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 2u);
}

TEST(Checkpoint, ToleratesDirectoryWrittenByDifferentRankCount) {
  // A step committed by 3 ranks read by a 2-rank (post-shrink) or 4-rank
  // (grown) run: the directory's own account of itself says ranks 0..2
  // constitute a complete commit, so discovery must return the step (and
  // warn) instead of silently reporting nothing.
  Tiers tiers;
  const auto p = sample_particles(12, 21);
  for (int r = 0; r < 3; ++r) {
    MultiTierWriter writer(tiers.nvme, tiers.pfs, MultiTierConfig{r, 8});
    SnapshotMeta meta;
    meta.step = 5;
    meta.rank = r;
    meta.num_ranks = 3;
    writer.write_checkpoint(meta, p);
    writer.drain();
  }
  for (const int readers : {2, 4}) {
    const auto latest = latest_complete_checkpoint(tiers.pfs, readers);
    ASSERT_TRUE(latest.has_value()) << "readers=" << readers;
    EXPECT_EQ(*latest, 5u) << "readers=" << readers;
  }
}

TEST(Checkpoint, PartiallyCommittedStepNeverQualifies) {
  // Ranks 0 and 1 bled their files but rank 2 died first: every present
  // file records 3 writers, so the step was never collectively committed
  // — no reader rank count may select it, including the 2-rank reader
  // the surviving pair becomes after the shrink.
  Tiers tiers;
  const auto p = sample_particles(12, 22);
  for (int r = 0; r < 2; ++r) {
    MultiTierWriter writer(tiers.nvme, tiers.pfs, MultiTierConfig{r, 8});
    SnapshotMeta meta;
    meta.step = 6;
    meta.rank = r;
    meta.num_ranks = 3;
    writer.write_checkpoint(meta, p);
    writer.drain();
  }
  EXPECT_EQ(checkpoint_writer_count(tiers.pfs, 6), 3);
  for (const int readers : {2, 3}) {
    EXPECT_FALSE(latest_complete_checkpoint(tiers.pfs, readers).has_value())
        << "readers=" << readers;
  }
}

TEST(Checkpoint, EmptyStoreHasNoCheckpoint) {
  Tiers tiers;
  EXPECT_FALSE(latest_complete_checkpoint(tiers.pfs, 2).has_value());
}

TEST(Checkpoint, RestoreRoundTrip) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, MultiTierConfig{0, 8});
  const auto p = sample_particles(60, 10, /*num_ghosts=*/12);
  SnapshotMeta meta;
  meta.step = 7;
  meta.scale_factor = 0.33;
  writer.write_checkpoint(meta, p);
  writer.drain();

  Particles restored;
  SnapshotMeta restored_meta;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 7, 0, restored_meta, restored));
  EXPECT_DOUBLE_EQ(restored_meta.scale_factor, 0.33);
  ASSERT_EQ(restored.size(), p.size());
  std::size_t ghosts = 0;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored.x[i], p.x[i]);
    if (restored.ghost[i]) ++ghosts;
  }
  EXPECT_EQ(ghosts, 12u);
  EXPECT_FALSE(restore_checkpoint(tiers.pfs, 99, 0, restored_meta, restored));
}

// --- fault injection -----------------------------------------------------------

TEST(FaultInjector, DeterministicSchedule) {
  const FaultInjector a(10.0, 42), b(10.0, 42);
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    EXPECT_EQ(a.should_fail(trial, 1.0), b.should_fail(trial, 1.0));
  }
}

TEST(FaultInjector, RateMatchesMtti) {
  const FaultInjector injector(10.0, 7);
  int failures = 0;
  const int trials = 10000;
  for (std::uint64_t t = 0; t < trials; ++t) {
    if (injector.should_fail(t, 1.0)) ++failures;
  }
  // dt/mtti = 0.1 hazard per trial.
  EXPECT_NEAR(failures, 1000, 120);
}

TEST(FaultInjector, DisabledWhenMttiNonPositive) {
  const FaultInjector injector(0.0, 7);
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_FALSE(injector.should_fail(t, 1.0));
  }
}

}  // namespace
}  // namespace crkhacc::io
