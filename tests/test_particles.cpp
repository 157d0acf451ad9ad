// Particles tests: the one column list (core/particles.h) and everything
// that iterates it — resize/push_back/append_from/compact/clear_scratch,
// the state comparator, the SDC snapshot regions and the CKC2 checkpoint columns —
// plus the Record wire struct, the one hand-written column list left,
// pinned by a round trip, and a golden CRC of the CKC2 bytes one fixed
// state encodes to.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/particles.h"
#include "core/sdc.h"
#include "io/column_file.h"
#include "util/crc32.h"
#include "util/snapshot.h"

namespace crkhacc {
namespace {

constexpr std::size_t kCount = 7;

template <typename Column>
using ElementOf = typename std::remove_reference_t<
    decltype(std::declval<Particles&>().*std::declval<Column>().member)>::
    value_type;

/// Call f(column, position in kParticleColumns) for every column.
template <typename F>
void for_each_indexed(F&& f) {
  std::size_t c = 0;
  for_each_column([&](const auto& column) { f(column, c++); });
}

/// Particle i's value in the column at list position c: distinct across
/// all 19 columns and all rows (c * 8 + i + 1 < 256 fits the byte columns).
template <typename T>
T distinct_value(std::size_t c, std::size_t i) {
  return static_cast<T>(c * 8 + i + 1);
}

Particles distinct_state(std::size_t n = kCount) {
  Particles p;
  p.resize(n);
  for_each_indexed([&](const auto& column, std::size_t c) {
    using T = ElementOf<decltype(column)>;
    auto& values = p.*column.member;
    for (std::size_t i = 0; i < n; ++i) values[i] = distinct_value<T>(c, i);
  });
  return p;
}

/// Every column of `p`, state and scratch, holds the distinct_state rows
/// `rows`, in that order.
void expect_rows(const Particles& p, const std::vector<std::size_t>& rows) {
  for_each_indexed([&](const auto& column, std::size_t c) {
    using T = ElementOf<decltype(column)>;
    const auto& values = p.*column.member;
    ASSERT_EQ(values.size(), rows.size()) << column.name;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(values[j], distinct_value<T>(c, rows[j]))
          << column.name << "[" << j << "]";
    }
  });
}

std::vector<std::size_t> all_rows(std::size_t n = kCount) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

template <typename T>
void flip_bit(T& value, std::size_t bit) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  std::memcpy(&value, bytes, sizeof(T));
}

io::CkptFileMeta fixed_meta(std::size_t count) {
  io::CkptFileMeta meta;
  meta.snapshot.step = 5;
  meta.snapshot.scale_factor = 0.5;
  meta.snapshot.rank = 1;
  meta.snapshot.num_ranks = 2;
  meta.snapshot.particle_count = count;
  meta.base_step = 5;
  meta.chunk_bytes = 16;  // several chunks per float column
  return meta;
}

TEST(Particles, ColumnListNamesEveryMemberOnce) {
  const std::vector<std::string> state = {
      "id",  "x",   "y",    "z",     "vx",      "vy",  "vz",   "mass",
      "u",   "rho", "hsml", "metal", "species", "bin", "ghost"};
  const std::vector<std::string> scratch = {"ax", "ay", "az", "du"};
  std::vector<std::string> got_state, got_scratch;
  Particles p;
  p.resize(1);
  std::set<const void*> storage;
  for_each_column([&](const auto& column) {
    (column.kind == ColumnKind::kState ? got_state : got_scratch)
        .push_back(column.name);
    storage.insert((p.*column.member).data());
  });
  EXPECT_EQ(got_state, state);  // CKC2 column order
  EXPECT_EQ(got_scratch, scratch);
  EXPECT_EQ(storage.size(), kNumParticleColumns);  // no member listed twice
}

TEST(Particles, CompactKeepsOrderAndEveryColumn) {
  Particles p = distinct_state();
  p.compact({true, false, true, true, false, false, true});
  expect_rows(p, {0, 2, 3, 6});

  Particles q = distinct_state();
  q.compact({false, true, true, true, true, true, false});
  expect_rows(q, {1, 2, 3, 4, 5});

  Particles none = distinct_state();
  none.compact(std::vector<bool>(kCount, false));
  expect_rows(none, {});
}

TEST(Particles, CompactWithNothingDroppedLeavesStateUntouched) {
  Particles p = distinct_state();
  std::vector<const void*> storage;
  for_each_column([&](const auto& column) {
    storage.push_back((p.*column.member).data());
  });
  p.compact(std::vector<bool>(kCount, true));
  expect_rows(p, all_rows());
  std::size_t c = 0;
  for_each_column([&](const auto& column) {
    EXPECT_EQ((p.*column.member).data(), storage[c++]) << column.name;
  });
}

TEST(Particles, AppendFromCopiesEveryColumn) {
  const Particles src = distinct_state();
  Particles dst;
  dst.append_from(src, 4);
  dst.append_from(src, 1);
  dst.append_from(src, 4);
  expect_rows(dst, {4, 1, 4});
}

TEST(Particles, PushBackZeroFillsColumnsItIsNotGiven) {
  Particles p = distinct_state();
  p.resize(0);
  EXPECT_EQ(p.push_back(42, Species::kStar, 1.5f, 2.5f, 3.5f, 4.5f, 5.5f,
                        6.5f, 7.5f),
            0u);
  EXPECT_EQ(p.id[0], 42u);
  EXPECT_EQ(p.species[0], static_cast<std::uint8_t>(Species::kStar));
  EXPECT_EQ(p.x[0], 1.5f);
  EXPECT_EQ(p.y[0], 2.5f);
  EXPECT_EQ(p.z[0], 3.5f);
  EXPECT_EQ(p.vx[0], 4.5f);
  EXPECT_EQ(p.vy[0], 5.5f);
  EXPECT_EQ(p.vz[0], 6.5f);
  EXPECT_EQ(p.mass[0], 7.5f);
  const std::set<std::string> given = {"id", "species", "x",  "y",   "z",
                                       "vx", "vy",      "vz", "mass"};
  for_each_column([&](const auto& column) {
    const auto& values = p.*column.member;
    ASSERT_EQ(values.size(), 1u) << column.name;
    if (given.count(column.name) == 0) {
      EXPECT_EQ(values[0], 0) << column.name;
    }
  });
}

TEST(Particles, ClearScratchZeroesOnlyScratchColumns) {
  Particles p = distinct_state();
  p.clear_scratch();
  EXPECT_EQ(first_state_difference(p, distinct_state()), "");
  for_each_column([&](const auto& column) {
    if (column.kind != ColumnKind::kScratch) return;
    for (const auto value : p.*column.member) {
      EXPECT_EQ(value, 0) << column.name;
    }
  });
}

TEST(Particles, RecordRoundTripReproducesEveryStateColumn) {
  const Particles src = distinct_state();
  Particles copy;
  for (std::size_t i = 0; i < src.size(); ++i) {
    copy.append_record(src.record(i));
  }
  EXPECT_EQ(first_state_difference(copy, src), "");
  // Scratch columns do not travel: the receiver starts them at zero.
  for_each_column([&](const auto& column) {
    if (column.kind != ColumnKind::kScratch) return;
    for (const auto value : copy.*column.member) {
      EXPECT_EQ(value, 0) << column.name;
    }
  });
}

TEST(Particles, FirstStateDifferenceNamesEveryFlippedStateBit) {
  const Particles base = distinct_state();
  EXPECT_EQ(first_state_difference(base, base), "");
  for_each_column([&](const auto& column) {
    using T = ElementOf<decltype(column)>;
    const bool state = column.kind == ColumnKind::kState;
    const std::string where = std::string(column.name) + "[3]";
    for (const std::size_t bit : {std::size_t{0}, sizeof(T) * 8 - 1}) {
      Particles flipped = base;
      flip_bit((flipped.*column.member)[3], bit);
      EXPECT_EQ(first_state_difference(flipped, base), state ? where : "")
          << column.name << " bit " << bit;
      EXPECT_EQ(first_state_difference(base, flipped), state ? where : "")
          << column.name << " bit " << bit;
    }
    if constexpr (std::is_floating_point_v<T>) {
      // -0.0 == +0.0 as floats, but the bits differ.
      Particles plus = base, minus = base;
      (plus.*column.member)[3] = 0.0f;
      (minus.*column.member)[3] = -0.0f;
      EXPECT_EQ(first_state_difference(plus, minus), state ? where : "")
          << column.name;
    }
  });
}

TEST(Particles, FirstStateDifferenceReportsSizeAndFirstColumn) {
  const Particles base = distinct_state();
  Particles shorter = base;
  shorter.resize(kCount - 1);
  EXPECT_EQ(first_state_difference(base, shorter), "size 7 vs 6");

  Particles both = base;
  both.rho[5] += 1.0f;
  both.x[6] += 1.0f;
  EXPECT_EQ(first_state_difference(both, base), "x[6]");  // list order
}

TEST(Particles, SnapshotRegionsRestoreEveryColumn) {
  Particles p = distinct_state();
  util::PagedSnapshot snapshot(/*page_bytes=*/32);
  const auto regions = core::snapshot_regions(std::as_const(p));
  EXPECT_EQ(regions.size(), kNumParticleColumns);
  snapshot.capture(regions);

  for_each_column([&](const auto& column) {
    for (auto& value : p.*column.member) value = {};
  });
  ASSERT_TRUE(snapshot.restore(core::snapshot_regions(p)));
  expect_rows(p, all_rows());
}

TEST(Particles, CheckpointRoundTripRestoresEveryStateColumn) {
  const Particles p = distinct_state();
  const auto columns = io::particle_columns(p);
  const auto bytes = io::encode_checkpoint(fixed_meta(p.size()), columns);
  io::ParsedCheckpoint parsed;
  ASSERT_EQ(io::parse_checkpoint(bytes, parsed), io::ParseStatus::kOk);
  EXPECT_EQ(parsed.columns.size(), 15u);  // the state columns only

  Particles restored;
  restored.resize(p.size());
  ASSERT_TRUE(
      io::apply_chunks(parsed, bytes, io::particle_columns(restored)));
  EXPECT_EQ(first_state_difference(restored, p), "");
}

TEST(Particles, CheckpointBytesOfAFixedStateArePinned) {
  // The CKC2 layout (header, directory, column order, dtypes, chunking)
  // is an on-disk format: this state must keep encoding to the same
  // bytes. The golden values come from hand-written column views in the
  // same order, not from the column list.
  constexpr std::size_t kGoldenBytes = 1409;
  constexpr std::uint32_t kGoldenCrc = 0xd089c77du;
  const Particles p = distinct_state();
  const auto bytes =
      io::encode_checkpoint(fixed_meta(p.size()), io::particle_columns(p));
  EXPECT_EQ(bytes.size(), kGoldenBytes);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), kGoldenCrc);
}

}  // namespace
}  // namespace crkhacc
