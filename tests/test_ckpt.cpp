// Tests for the self-describing chunked column checkpoint format (CKC2),
// differential checkpoint planning and chains, chain-aware retention,
// and the offline audit/repair machinery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "comm/world.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/ckpt_audit.h"
#include "io/column_file.h"
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
            ("crkhacc_ckpt_test_" + std::to_string(::getpid()) + "_" +
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

/// Force the read-only overload on a mutable Particles.
std::vector<ColumnView> const_cols(const Particles& p) {
  return particle_columns(p);
}

CkptFileMeta make_meta(const Particles& p, std::uint64_t step,
                       std::uint32_t chunk_bytes) {
  CkptFileMeta meta;
  meta.snapshot.step = step;
  meta.snapshot.scale_factor = 0.42;
  meta.snapshot.rank = 3;
  meta.snapshot.num_ranks = 8;
  meta.snapshot.particle_count = p.size();
  meta.base_step = step;
  meta.chunk_bytes = chunk_bytes;
  return meta;
}

/// Payload byte offset of chunk `index` of column `name`, from a
/// pristine parse (so corruption tests can hit an exact chunk).
std::uint64_t chunk_offset(const std::vector<std::uint8_t>& bytes,
                           const std::string& name, std::uint32_t index) {
  ParsedCheckpoint parsed;
  EXPECT_EQ(parse_checkpoint(bytes, parsed), ParseStatus::kOk);
  for (const ParsedColumn& col : parsed.columns) {
    if (col.name != name) continue;
    for (const ParsedChunk& chunk : col.chunks) {
      if (chunk.index == index) return chunk.offset;
    }
  }
  ADD_FAILURE() << "chunk " << name << "[" << index << "] not found";
  return 0;
}

// --- wire format -----------------------------------------------------------

TEST(CkptFormat, FullRoundTripCarriesMeta) {
  const auto p = sample_particles(100, 1, /*num_ghosts=*/7);
  const auto meta = make_meta(p, 12, 256);
  const auto cols = particle_columns(p);
  const auto bytes = encode_checkpoint(meta, cols);

  ParsedCheckpoint parsed;
  ASSERT_EQ(parse_checkpoint(bytes, parsed), ParseStatus::kOk);
  EXPECT_EQ(parsed.meta.snapshot.step, 12u);
  EXPECT_DOUBLE_EQ(parsed.meta.snapshot.scale_factor, 0.42);
  EXPECT_EQ(parsed.meta.snapshot.rank, 3);
  EXPECT_EQ(parsed.meta.snapshot.num_ranks, 8);
  EXPECT_EQ(parsed.meta.snapshot.particle_count, 100u);
  EXPECT_EQ(parsed.meta.snapshot.format_version, kCkptFormatVersion);
  EXPECT_EQ(parsed.meta.kind, CkptKind::kFull);
  EXPECT_EQ(parsed.meta.chain_index, 0u);
  EXPECT_EQ(parsed.meta.chunk_bytes, 256u);
  EXPECT_EQ(parsed.columns.size(), cols.size());
  EXPECT_TRUE(parsed.all_chunks_valid());
  EXPECT_TRUE(is_complete(parsed));

  Particles out;
  out.resize(100);
  const auto dest = particle_columns(out);
  ASSERT_TRUE(apply_chunks(parsed, bytes, dest));
  EXPECT_EQ(first_state_difference(out, p), "");
}

TEST(CkptFormat, ChunkDamageIsLocalized) {
  const auto p = sample_particles(200, 2);
  const auto bytes = encode_checkpoint(make_meta(p, 1, 64),
                                       particle_columns(p));
  auto corrupted = bytes;
  corrupted[chunk_offset(bytes, "x", 2) + 5] ^= 0x10;

  ParsedCheckpoint parsed;
  ASSERT_EQ(parse_checkpoint(corrupted, parsed), ParseStatus::kOk);
  EXPECT_EQ(parsed.chunks_damaged, 1u);
  EXPECT_FALSE(is_complete(parsed));
  for (const ParsedColumn& col : parsed.columns) {
    for (const ParsedChunk& chunk : col.chunks) {
      EXPECT_EQ(chunk.valid, !(col.name == "x" && chunk.index == 2))
          << col.name << "[" << chunk.index << "]";
    }
  }
}

TEST(CkptFormat, TruncationDamagesTailOnly) {
  const auto p = sample_particles(200, 3);
  const auto bytes = encode_checkpoint(make_meta(p, 1, 64),
                                       particle_columns(p));
  auto torn = bytes;
  torn.resize(bytes.size() - 100);

  ParsedCheckpoint parsed;
  ASSERT_EQ(parse_checkpoint(torn, parsed), ParseStatus::kOk);
  EXPECT_GT(parsed.chunks_damaged, 0u);
  EXPECT_LT(parsed.chunks_damaged, parsed.chunks_checked);
  for (const ParsedColumn& col : parsed.columns) {
    for (const ParsedChunk& chunk : col.chunks) {
      // Exactly the chunks the truncation cut into are invalid.
      EXPECT_EQ(chunk.valid, chunk.offset + chunk.length <= torn.size())
          << col.name << "[" << chunk.index << "]";
    }
  }
}

TEST(CkptFormat, HeaderCorruptionAndGarbageRejected) {
  const auto p = sample_particles(50, 4);
  const auto bytes = encode_checkpoint(make_meta(p, 1, 256),
                                       particle_columns(p));
  ParsedCheckpoint parsed;

  auto corrupted = bytes;
  corrupted[9] ^= 0x01;  // inside the CRC-covered header fields
  EXPECT_EQ(parse_checkpoint(corrupted, parsed), ParseStatus::kCorruptHeader);

  corrupted = bytes;
  corrupted[5] ^= 0x01;  // the header CRC itself
  EXPECT_EQ(parse_checkpoint(corrupted, parsed), ParseStatus::kCorruptHeader);

  EXPECT_EQ(parse_checkpoint({1, 2, 3}, parsed), ParseStatus::kNotCkpt);
  EXPECT_EQ(parse_checkpoint({}, parsed), ParseStatus::kNotCkpt);
}

TEST(CkptFormat, LegacyGio1Rejected) {
  std::vector<std::uint8_t> legacy(64, 0);
  const std::uint32_t magic = 0x47494f31u;  // "GIO1" blobs from format v1
  std::memcpy(legacy.data(), &magic, sizeof(magic));
  ParsedCheckpoint parsed;
  EXPECT_EQ(parse_checkpoint(legacy, parsed), ParseStatus::kLegacy);
}

TEST(CkptFormat, FutureVersionRejected) {
  const auto p = sample_particles(50, 5);
  auto bytes = encode_checkpoint(make_meta(p, 1, 256), particle_columns(p));
  // Stamp format v3 and re-seal the header CRC (which covers bytes
  // [8, 72) — everything after the magic and the CRC field itself), so
  // the reader sees an *intact* file from a newer writer.
  const std::uint32_t version = kCkptFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const std::uint32_t seal = crc32(bytes.data() + 8, 64);
  std::memcpy(bytes.data() + 4, &seal, sizeof(seal));
  ParsedCheckpoint parsed;
  EXPECT_EQ(parse_checkpoint(bytes, parsed), ParseStatus::kBadVersion);
}

TEST(CkptFormat, UnknownColumnSkippedOnApply) {
  const auto p = sample_particles(60, 6);
  auto cols = particle_columns(p);
  const std::vector<float> future(p.size(), 1.5f);
  cols.push_back(ColumnView{"entropy_fut", ColumnType::kF32, 4, future.data(),
                            p.size()});
  const auto bytes = encode_checkpoint(make_meta(p, 1, 256), cols);

  ParsedCheckpoint parsed;
  ASSERT_EQ(parse_checkpoint(bytes, parsed), ParseStatus::kOk);
  EXPECT_EQ(parsed.columns.size(), cols.size());

  // A reader that predates "entropy_fut" still restores everything else.
  Particles out;
  out.resize(p.size());
  ASSERT_TRUE(apply_chunks(parsed, bytes, particle_columns(out)));
  EXPECT_EQ(first_state_difference(out, p), "");
}

TEST(CkptFormat, MismatchedDestinationFails) {
  const auto p = sample_particles(50, 7);
  const auto bytes = encode_checkpoint(make_meta(p, 1, 256),
                                       particle_columns(p));
  ParsedCheckpoint parsed;
  ASSERT_EQ(parse_checkpoint(bytes, parsed), ParseStatus::kOk);
  Particles out;
  out.resize(40);  // wrong element count for a known column
  EXPECT_FALSE(apply_chunks(parsed, bytes, particle_columns(out)));
}

TEST(CkptFormat, DiffMaskCarriesOnlySelectedChunks) {
  auto p = sample_particles(200, 8);
  const auto old_x = p.x;
  // Mutate the elements covered by chunk 2 of "x" (64-byte chunks -> 16
  // floats per chunk), then encode a diff carrying exactly that chunk.
  for (std::size_t i = 32; i < 48; ++i) p.x[i] += 1.0f;

  auto meta = make_meta(p, 5, 64);
  meta.kind = CkptKind::kDiff;
  meta.base_step = 4;
  meta.chain_index = 1;
  const auto cols = const_cols(p);
  ChunkMask mask(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const auto chunks = (cols[c].bytes() + 63) / 64;
    mask[c].assign(chunks, 0);
  }
  mask[1][2] = 1;  // column order: id, x, ...
  const auto bytes = encode_checkpoint(meta, cols, &mask);

  ParsedCheckpoint parsed;
  ASSERT_EQ(parse_checkpoint(bytes, parsed), ParseStatus::kOk);
  EXPECT_EQ(parsed.meta.kind, CkptKind::kDiff);
  EXPECT_EQ(parsed.meta.base_step, 4u);
  EXPECT_EQ(parsed.meta.chain_index, 1u);
  EXPECT_FALSE(is_complete(parsed));
  EXPECT_EQ(parsed.chunks_checked, 1u);
  ASSERT_EQ(parsed.columns[1].name, "x");
  ASSERT_EQ(parsed.columns[1].chunks.size(), 1u);
  EXPECT_EQ(parsed.columns[1].chunks[0].index, 2u);

  // Overlaying the diff onto the old state reproduces the new state.
  Particles out = p;
  out.x = old_x;
  ASSERT_TRUE(apply_chunks(parsed, bytes, particle_columns(out)));
  EXPECT_EQ(first_state_difference(out, p), "");
}

// --- differential planner --------------------------------------------------

CkptConfig diff_config(std::size_t chunk_bytes = 256, int max_chain = 7) {
  CkptConfig config;
  config.diff = true;
  config.diff_max_chain = max_chain;
  config.chunk_bytes = chunk_bytes;
  return config;
}

TEST(CkptPlanner, FirstWriteFullThenQuiescentDiffsCarryNothing) {
  const auto p = sample_particles(500, 9);
  CkptDiffPlanner planner(diff_config());
  const auto cols = particle_columns(p);

  const auto first = planner.plan(1, cols);
  EXPECT_EQ(first.kind, CkptKind::kFull);
  EXPECT_EQ(first.chain_index, 0u);
  EXPECT_EQ(first.chain_root, 1u);
  EXPECT_EQ(first.chunks_written, first.chunks_total);
  EXPECT_GT(first.chunks_total, 0u);

  // Nothing moved: the diff carries zero chunks.
  const auto second = planner.plan(2, cols);
  EXPECT_EQ(second.kind, CkptKind::kDiff);
  EXPECT_EQ(second.base_step, 1u);
  EXPECT_EQ(second.chain_index, 1u);
  EXPECT_EQ(second.chain_root, 1u);
  EXPECT_EQ(second.chunks_written, 0u);
}

TEST(CkptPlanner, LocalizedMutationMarksOneChunk) {
  auto p = sample_particles(2000, 10);
  CkptDiffPlanner planner(diff_config(256));
  (void)planner.plan(1, const_cols(p));

  p.x[0] += 1.0f;  // one element -> one 256-byte chunk of one column
  const auto plan = planner.plan(2, const_cols(p));
  EXPECT_EQ(plan.kind, CkptKind::kDiff);
  EXPECT_EQ(plan.chunks_written, 1u);
  ASSERT_EQ(plan.mask.size(), const_cols(p).size());
  EXPECT_EQ(plan.mask[1][0], 1);  // x, chunk 0
  std::uint64_t set = 0;
  for (const auto& col : plan.mask) {
    for (const auto bit : col) set += bit;
  }
  EXPECT_EQ(set, 1u);
}

TEST(CkptPlanner, ChainBoundedByMaxChain) {
  auto p = sample_particles(300, 11);
  CkptDiffPlanner planner(diff_config(256, /*max_chain=*/2));
  std::vector<CkptKind> kinds;
  std::vector<std::uint64_t> roots;
  for (std::uint64_t step = 1; step <= 6; ++step) {
    p.x[step] += 0.5f;
    const auto plan = planner.plan(step, const_cols(p));
    kinds.push_back(plan.kind);
    roots.push_back(plan.chain_root);
  }
  const std::vector<CkptKind> expect{CkptKind::kFull, CkptKind::kDiff,
                                     CkptKind::kDiff, CkptKind::kFull,
                                     CkptKind::kDiff, CkptKind::kDiff};
  EXPECT_EQ(kinds, expect);
  EXPECT_EQ(roots, (std::vector<std::uint64_t>{1, 1, 1, 4, 4, 4}));
}

TEST(CkptPlanner, LayoutChangeForcesFull) {
  auto p = sample_particles(100, 12);
  CkptDiffPlanner planner(diff_config());
  (void)planner.plan(1, const_cols(p));
  p.push_back(1000, Species::kGas, 1, 2, 3, 0, 0, 0, 1);
  const auto plan = planner.plan(2, const_cols(p));
  EXPECT_EQ(plan.kind, CkptKind::kFull);
  EXPECT_EQ(plan.chain_root, 2u);
}

TEST(CkptPlanner, DiffDisabledAlwaysPlansFull) {
  const auto p = sample_particles(100, 13);
  CkptConfig config;  // diff off
  CkptDiffPlanner planner(config);
  for (std::uint64_t step = 1; step <= 3; ++step) {
    EXPECT_EQ(planner.plan(step, const_cols(p)).kind, CkptKind::kFull);
  }
}

TEST(CkptPlanner, ForcedFullResetsChain) {
  auto p = sample_particles(100, 14);
  CkptDiffPlanner planner(diff_config());
  (void)planner.plan(1, const_cols(p));
  p.x[0] += 1.0f;
  EXPECT_EQ(planner.plan(2, const_cols(p)).kind, CkptKind::kDiff);
  const auto forced = planner.plan_full(3, const_cols(p));
  EXPECT_EQ(forced.kind, CkptKind::kFull);
  EXPECT_EQ(forced.chain_index, 0u);
  p.x[1] += 1.0f;
  const auto next = planner.plan(4, const_cols(p));
  EXPECT_EQ(next.kind, CkptKind::kDiff);
  EXPECT_EQ(next.base_step, 3u);
  EXPECT_EQ(next.chain_root, 3u);
}

// --- multi-tier writer with differential chains ----------------------------

struct Tiers {
  TempDir dir;
  ThrottledStore nvme;
  ThrottledStore pfs;

  Tiers()
      : nvme(StoreConfig{dir.str() + "/nvme", 0.0, 0.0, false}),
        pfs(StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true}) {}
};

MultiTierConfig diff_writer_config(int window = 8, int max_chain = 7,
                                   bool redundant_local = false) {
  MultiTierConfig config;
  config.rank = 0;
  config.checkpoint_window = window;
  config.ckpt = diff_config(1024, max_chain);
  config.ckpt.redundant_local = redundant_local;
  return config;
}

void mutate_some(Particles& p, std::uint64_t salt) {
  for (std::size_t i = 0; i < 16 && i < p.size(); ++i) {
    p.x[i] += 0.25f * static_cast<float>(salt + 1);
    p.u[i] += 1.0f;
  }
}

TEST(MultiTierDiff, ChainRestoreBitwiseIdenticalToLiveState) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  auto p = sample_particles(600, 15, /*num_ghosts=*/20);
  for (std::uint64_t step = 1; step <= 3; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    meta.scale_factor = 0.1 * static_cast<double>(step);
    writer.write_checkpoint(meta, p);
  }
  writer.drain();

  const auto stats = writer.stats();
  EXPECT_EQ(stats.full_checkpoints, 1u);
  EXPECT_EQ(stats.diff_checkpoints, 2u);
  EXPECT_GT(stats.chunks_skipped, 0u);
  EXPECT_EQ(stats.longest_chain, 2u);

  EXPECT_TRUE(verify_checkpoint_rank(tiers.pfs, 3, 0));
  SnapshotMeta meta;
  Particles restored;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 3, 0, meta, restored));
  EXPECT_EQ(meta.step, 3u);
  EXPECT_DOUBLE_EQ(meta.scale_factor, 0.3);
  EXPECT_EQ(first_state_difference(restored, p), "");

  // Intermediate chain states restore too (diff of step 2 over the full).
  Particles mid;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 2, 0, meta, mid));
  EXPECT_EQ(meta.step, 2u);
}

TEST(MultiTierDiff, DiffWritesShrinkBytes) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  auto p = sample_particles(4000, 16);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  const auto records = writer.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].diff);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_TRUE(records[i].diff);
    EXPECT_LT(records[i].bytes * 4, records[0].bytes) << "step " << i + 1;
    EXPECT_LT(records[i].chunks_written, records[i].chunks_total);
  }
}

TEST(MultiTierDiff, PruneNeverDropsLiveChainAncestors) {
  // Retention window 2 with a 6-step chain rooted at step 1: window-only
  // pruning would delete the anchoring full (and middle diffs) that
  // steps 5 and 6 still replay through. Chain-aware pruning keeps them.
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         diff_writer_config(/*window=*/2, /*max_chain=*/10));
  auto p = sample_particles(600, 17);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  for (std::uint64_t step = 1; step <= 6; ++step) {
    EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(step, 0)))
        << "step " << step;
  }
  SnapshotMeta meta;
  Particles restored;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 6, 0, meta, restored));
  EXPECT_EQ(first_state_difference(restored, p), "");
}

TEST(MultiTierDiff, PruneDropsSupersededChains) {
  // max_chain 2 -> steps 1(F) 2(d) 3(d) 4(F) 5(d) 6(d). Window 2 retains
  // {5, 6}, whose chain roots at 4: steps 1-3 are dead and pruned, the
  // live root 4 survives even though it is outside the window.
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         diff_writer_config(/*window=*/2, /*max_chain=*/2));
  auto p = sample_particles(600, 18);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  for (std::uint64_t step = 1; step <= 3; ++step) {
    EXPECT_FALSE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(step, 0)))
        << "step " << step;
  }
  for (std::uint64_t step = 4; step <= 6; ++step) {
    EXPECT_TRUE(tiers.pfs.exists(MultiTierWriter::checkpoint_path(step, 0)))
        << "step " << step;
  }
  SnapshotMeta meta;
  Particles restored;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 6, 0, meta, restored));
  EXPECT_EQ(first_state_difference(restored, p), "");
}

TEST(MultiTierDiff, RedundantLocalKeptAfterBleed) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         diff_writer_config(8, 7, /*redundant_local=*/true));
  const auto p = sample_particles(300, 19);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();
  const auto rel = MultiTierWriter::checkpoint_path(1, 0);
  ASSERT_TRUE(tiers.pfs.exists(rel));
  ASSERT_TRUE(tiers.nvme.exists(rel));
  std::vector<std::uint8_t> local_bytes, pfs_bytes;
  ASSERT_TRUE(tiers.nvme.read(rel, local_bytes));
  ASSERT_TRUE(tiers.pfs.read(rel, pfs_bytes));
  EXPECT_EQ(local_bytes, pfs_bytes);
}

TEST(MultiTierDiff, VerifyWalksChainAndDiscoveryFallsBack) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  auto p = sample_particles(300, 20);
  for (std::uint64_t step = 1; step <= 3; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  ASSERT_EQ(latest_complete_checkpoint(tiers.pfs, 1), 3u);

  // Damage the middle diff: the tip's own file is pristine, but its
  // chain is not restorable, so neither step 2 nor 3 may be selected.
  tiers.pfs.remove(MultiTierWriter::checkpoint_path(2, 0));
  EXPECT_FALSE(verify_checkpoint_rank(tiers.pfs, 3, 0));
  EXPECT_FALSE(verify_checkpoint_rank(tiers.pfs, 2, 0));
  EXPECT_TRUE(verify_checkpoint_rank(tiers.pfs, 1, 0));
  ASSERT_EQ(latest_complete_checkpoint(tiers.pfs, 1), 1u);

  SnapshotMeta meta;
  Particles restored;
  EXPECT_FALSE(restore_checkpoint(tiers.pfs, 3, 0, meta, restored));
  EXPECT_TRUE(restore_checkpoint(tiers.pfs, 1, 0, meta, restored));
}

// --- offline audit / repair ------------------------------------------------

TEST(CkptAudit, CleanTreeIsClean) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  auto p = sample_particles(300, 21);
  for (std::uint64_t step = 1; step <= 2; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  const auto report = audit_checkpoints(tiers.pfs, CkptAuditOptions{});
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_EQ(report.files_ok, 2u);
  EXPECT_EQ(report.chains_checked, 1u);  // step 2 is a diff
  EXPECT_EQ(report.chains_broken, 0u);
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.summary().find("CLEAN"), std::string::npos);
}

TEST(CkptAudit, PinpointsEverySeededChunkCorruption) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  const auto p = sample_particles(2000, 22);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();

  const auto rel = MultiTierWriter::checkpoint_path(1, 0);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(tiers.pfs.read(rel, bytes));
  struct Hit {
    std::string column;
    std::uint32_t chunk;
  };
  const std::vector<Hit> hits{{"x", 0}, {"vy", 3}, {"bin", 0}};
  for (const Hit& hit : hits) {
    bytes[chunk_offset(bytes, hit.column, hit.chunk) + 1] ^= 0x40;
  }
  tiers.pfs.write(rel, bytes);

  const auto report = audit_checkpoints(tiers.pfs, CkptAuditOptions{});
  EXPECT_EQ(report.files_damaged, 1u);
  EXPECT_EQ(report.chunks_damaged, hits.size());
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.damage.size(), hits.size());
  for (const Hit& hit : hits) {
    const bool found = std::any_of(
        report.damage.begin(), report.damage.end(), [&](const CkptDamage& d) {
          return d.step == 1 && d.rank == 0 && d.column == hit.column &&
                 d.chunk == hit.chunk && !d.repaired &&
                 d.reason == "chunk CRC mismatch";
        });
    EXPECT_TRUE(found) << hit.column << "[" << hit.chunk << "]";
  }
}

TEST(CkptAudit, RepairsChunksFromRedundantTier) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         diff_writer_config(8, 7, /*redundant_local=*/true));
  const auto p = sample_particles(2000, 23);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();

  const auto rel = MultiTierWriter::checkpoint_path(1, 0);
  std::vector<std::uint8_t> pristine;
  ASSERT_TRUE(tiers.pfs.read(rel, pristine));
  auto bytes = pristine;
  bytes[chunk_offset(pristine, "u", 1) + 2] ^= 0x08;  // CRC damage...
  bytes.resize(bytes.size() - 700);                   // ...plus a torn tail
  tiers.pfs.write(rel, bytes);

  CkptAuditOptions options;
  options.repair = true;
  const auto report =
      audit_checkpoints(tiers.pfs, options, {&tiers.nvme});
  EXPECT_GT(report.chunks_damaged, 1u);
  EXPECT_EQ(report.chunks_repaired, report.chunks_damaged);
  EXPECT_EQ(report.files_repaired, 1u);
  EXPECT_TRUE(report.clean());
  bool saw_torn = false, saw_crc = false;
  for (const CkptDamage& d : report.damage) {
    EXPECT_TRUE(d.repaired);
    saw_torn |= d.reason == "chunk truncated (torn write)";
    saw_crc |= d.reason == "chunk CRC mismatch";
  }
  EXPECT_TRUE(saw_torn);
  EXPECT_TRUE(saw_crc);

  // The healed file is bitwise the one the writer bled, and restores.
  std::vector<std::uint8_t> healed;
  ASSERT_TRUE(tiers.pfs.read(rel, healed));
  EXPECT_EQ(healed, pristine);
  Particles restored;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 1, 0, meta, restored));
  EXPECT_EQ(first_state_difference(restored, p), "");
}

TEST(CkptAudit, RestampsLostMarkerFromProvablyIntactPayload) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  const auto p = sample_particles(300, 24);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();
  tiers.pfs.remove(MultiTierWriter::marker_path(1, 0));
  EXPECT_FALSE(verify_checkpoint_rank(tiers.pfs, 1, 0));

  CkptAuditOptions options;
  options.repair = true;
  const auto report = audit_checkpoints(tiers.pfs, options);
  EXPECT_EQ(report.files_repaired, 1u);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.damage.size(), 1u);
  EXPECT_EQ(report.damage[0].column, "<marker>");
  EXPECT_TRUE(verify_checkpoint_rank(tiers.pfs, 1, 0));
}

TEST(CkptAudit, ReplacesMissingPayloadFromSource) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         diff_writer_config(8, 7, /*redundant_local=*/true));
  const auto p = sample_particles(300, 25);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();
  tiers.pfs.remove(MultiTierWriter::checkpoint_path(1, 0));

  CkptAuditOptions options;
  options.repair = true;
  const auto report = audit_checkpoints(tiers.pfs, options, {&tiers.nvme});
  EXPECT_EQ(report.files_damaged, 1u);
  EXPECT_EQ(report.files_repaired, 1u);
  EXPECT_TRUE(report.clean());
  Particles restored;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 1, 0, meta, restored));
  EXPECT_EQ(first_state_difference(restored, p), "");
}

TEST(CkptAudit, FlagsBrokenDiffChains) {
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs, diff_writer_config());
  auto p = sample_particles(300, 26);
  for (std::uint64_t step = 1; step <= 2; ++step) {
    if (step > 1) mutate_some(p, step);
    SnapshotMeta meta;
    meta.step = step;
    writer.write_checkpoint(meta, p);
  }
  writer.drain();
  tiers.pfs.remove(MultiTierWriter::checkpoint_path(1, 0));
  tiers.pfs.remove(MultiTierWriter::marker_path(1, 0));

  const auto report = audit_checkpoints(tiers.pfs, CkptAuditOptions{});
  EXPECT_EQ(report.chains_broken, 1u);
  EXPECT_FALSE(report.clean());
  const bool found = std::any_of(
      report.damage.begin(), report.damage.end(), [](const CkptDamage& d) {
        return d.step == 2 && d.column == "<chain>";
      });
  EXPECT_TRUE(found);
}

TEST(CkptAudit, SeededStorageFaultsRepairedFromLocalTier) {
  // PR-1 FaultPolicy faults, driven through a fault-armed handle onto
  // the same PFS root: a guaranteed silent torn write clobbers the
  // checkpoint at rest; the audit heals it from the redundant copy.
  Tiers tiers;
  MultiTierWriter writer(tiers.nvme, tiers.pfs,
                         diff_writer_config(8, 7, /*redundant_local=*/true));
  const auto p = sample_particles(2000, 27);
  SnapshotMeta meta;
  meta.step = 1;
  writer.write_checkpoint(meta, p);
  writer.drain();

  const auto rel = MultiTierWriter::checkpoint_path(1, 0);
  std::vector<std::uint8_t> pristine;
  ASSERT_TRUE(tiers.pfs.read(rel, pristine));
  ThrottledStore faulty(
      StoreConfig{tiers.dir.str() + "/pfs", 0.0, 0.0, false});
  FaultPolicy policy;
  policy.seed = 5;
  policy.torn_write = 1.0;
  faulty.set_fault_policy(policy);
  faulty.write(rel, pristine);  // reports success, lands a torn prefix
  std::vector<std::uint8_t> on_disk;
  ASSERT_TRUE(tiers.pfs.read(rel, on_disk));
  ASSERT_LT(on_disk.size(), pristine.size());

  CkptAuditOptions options;
  options.repair = true;
  const auto report = audit_checkpoints(tiers.pfs, options, {&tiers.nvme});
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.chunks_repaired + report.files_repaired, 0u);
  Particles restored;
  ASSERT_TRUE(restore_checkpoint(tiers.pfs, 1, 0, meta, restored));
  EXPECT_EQ(first_state_difference(restored, p), "");
}

}  // namespace
}  // namespace crkhacc::io

// --- simulation-level integration ------------------------------------------

namespace crkhacc::core {
namespace {

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

TEST(SimulationCkpt, DiffChainRecoveryBitwiseMatchesFaultFreeRun) {
  // A campaign checkpointing differentially, interrupted and recovered
  // from a diff-chain tip, must finish bitwise identical to a fault-free
  // run — at every thread count.
  const int num_ranks = 2;
  for (const int threads : {1, 8}) {
    io::TempDir dir;
    comm::World world(num_ranks);
    auto config = tiny_config();
    config.threads = threads;
    config.ckpt.diff = true;

    std::vector<Particles> reference(num_ranks);
    world.run([&](comm::Communicator& comm) {
      SimContext ctx(config.threads);
      Simulation sim(ctx, comm, config);
      sim.initialize();
      const auto result = sim.run();
      ASSERT_TRUE(result.completed);
      reference[static_cast<std::size_t>(comm.rank())] = sim.particles();
    });

    io::ThrottledStore pfs(
        io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
    std::vector<std::unique_ptr<io::ThrottledStore>> nvmes;
    for (int r = 0; r < num_ranks; ++r) {
      nvmes.push_back(std::make_unique<io::ThrottledStore>(io::StoreConfig{
          dir.str() + "/nvme" + std::to_string(r), 0.0, 0.0, false}));
    }
    world.run([&](comm::Communicator& comm) {
      io::MultiTierConfig writer_config;
      writer_config.rank = comm.rank();
      writer_config.checkpoint_window = 8;
      writer_config.ckpt = config.ckpt;
      io::MultiTierWriter writer(
          *nvmes[static_cast<std::size_t>(comm.rank())], pfs, writer_config);
      SimContext ctx(config.threads);
      Simulation sim(ctx, comm, config);
      sim.initialize();
      // Steps 1 (full) and 2 (diff) checkpoint, then an interrupt forces
      // recovery from the diff tip at step 2.
      sim.step(&writer);
      sim.step(&writer);
      writer.drain();
      comm.barrier();

      const auto stats = writer.stats();
      EXPECT_GE(stats.full_checkpoints, 1u);
      EXPECT_GE(stats.diff_checkpoints, 1u);

      const ScriptedFault fault({0});
      auto result = sim.run(&writer, &pfs, &fault);
      EXPECT_TRUE(result.completed);
      EXPECT_EQ(result.interruptions, 1u);
      EXPECT_EQ(result.checkpoint_fallbacks, 0u);
      EXPECT_EQ(result.restarts_from_ics, 0u);

      const auto& want = reference[static_cast<std::size_t>(comm.rank())];
      EXPECT_EQ(first_state_difference(sim.particles(), want), "");
      writer.drain();
      comm.barrier();
    });
  }
}

TEST(SimulationCkpt, AuditOnRestoreRepairsDamageAndKeepsNewestStep) {
  // A payload chunk of the newest checkpoint is flipped at rest. Without
  // the audit the restore would fall back one step; with
  // ckpt_audit_on_restore the damage is healed from the redundant local
  // copy first and the newest step restores intact.
  io::TempDir dir;
  comm::World world(1);
  io::ThrottledStore pfs(io::StoreConfig{dir.str() + "/pfs", 0.0, 0.0, true});
  io::ThrottledStore nvme(
      io::StoreConfig{dir.str() + "/nvme", 0.0, 0.0, false});
  world.run([&](comm::Communicator& comm) {
    auto config = tiny_config();
    config.ckpt.audit_on_restore = true;
    config.ckpt.redundant_local = true;
    io::MultiTierConfig writer_config;
    writer_config.rank = 0;
    writer_config.checkpoint_window = 8;
    writer_config.ckpt = config.ckpt;
    io::MultiTierWriter writer(nvme, pfs, writer_config);
    SimContext ctx(config.threads);
    Simulation sim(ctx, comm, config);
    sim.initialize();
    sim.step(&writer);
    sim.step(&writer);
    writer.drain();

    // Flip one byte inside a payload chunk of step 2's file.
    const auto rel = io::MultiTierWriter::checkpoint_path(2, 0);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(pfs.read(rel, bytes));
    io::ParsedCheckpoint parsed;
    ASSERT_EQ(io::parse_checkpoint(bytes, parsed), io::ParseStatus::kOk);
    ASSERT_FALSE(parsed.columns.empty());
    ASSERT_FALSE(parsed.columns[1].chunks.empty());
    bytes[parsed.columns[1].chunks[0].offset] ^= 0x04;
    pfs.write(rel, bytes);

    RunResult probe;
    sim.recover(pfs, probe, &writer);
    EXPECT_EQ(probe.ckpt_audit_runs, 1u);
    EXPECT_GE(probe.ckpt_audit_damaged_chunks, 1u);
    EXPECT_EQ(probe.ckpt_audit_repaired_chunks,
              probe.ckpt_audit_damaged_chunks);
    EXPECT_EQ(probe.recovery_attempts, 1u);
    EXPECT_EQ(probe.checkpoint_fallbacks, 0u);
    EXPECT_EQ(sim.current_step(), 2u);
  });
}

}  // namespace
}  // namespace crkhacc::core
