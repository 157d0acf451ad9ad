#include "io/column_file.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <type_traits>

#include "util/assertions.h"
#include "util/crc32.h"
#include "util/log.h"

namespace crkhacc::io {
namespace {

constexpr std::uint32_t kMagic = 0x32434b43;        // "CKC2"
constexpr std::uint32_t kLegacyMagic = 0x47494f31;  // "GIO1" (format v1)
constexpr std::size_t kNameBytes = 16;

// Fixed 72-byte file header; header_crc covers everything after itself.
struct WireHeader {
  std::uint32_t magic;
  std::uint32_t header_crc;
  std::uint32_t format_version;
  std::uint32_t kind;
  std::uint64_t step;
  double scale_factor;
  std::int32_t rank;
  std::int32_t num_ranks;
  std::uint64_t particle_count;
  std::uint64_t base_step;
  std::uint32_t chain_index;
  std::uint32_t chunk_bytes;
  std::uint32_t num_columns;
  std::uint32_t dir_bytes;  ///< directory size, excluding its trailing CRC
};
static_assert(sizeof(WireHeader) == 72);

std::uint32_t header_fields_crc(const WireHeader& h) {
  const auto* base = reinterpret_cast<const unsigned char*>(&h);
  const std::size_t offset = offsetof(WireHeader, format_version);
  return crc32(base + offset, sizeof(WireHeader) - offset);
}

/// Log a message at most once per key per process (format-mismatch and
/// unknown-column diagnostics would otherwise repeat per rank per step).
void log_once(log::Level level, const std::string& key,
              const std::string& msg) {
  static std::mutex mutex;
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lock(mutex);
  if (seen.insert(key).second) log::write(level, "%s", msg.c_str());
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
bool read_pod(const std::vector<std::uint8_t>& bytes, std::size_t& cursor,
              std::size_t end, T& value) {
  if (cursor + sizeof(T) > end) return false;
  std::memcpy(&value, bytes.data() + cursor, sizeof(T));
  cursor += sizeof(T);
  return true;
}

std::uint32_t num_chunks_for(std::uint64_t col_bytes,
                             std::uint32_t chunk_bytes) {
  return static_cast<std::uint32_t>((col_bytes + chunk_bytes - 1) /
                                    chunk_bytes);
}

std::uint32_t chunk_length(std::uint64_t col_bytes, std::uint32_t chunk_bytes,
                           std::uint32_t k) {
  const std::uint64_t begin = std::uint64_t{k} * chunk_bytes;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(chunk_bytes, col_bytes - begin));
}

/// Views of the state columns of `p`, in kParticleColumns order, each
/// with the CKC2 dtype of its element type.
template <typename View, typename P>
std::vector<View> state_columns(P& p) {
  std::vector<View> views;
  views.reserve(kNumParticleColumns);
  for_each_column([&](const auto& c) {
    if (c.kind != ColumnKind::kState) return;
    auto& column = p.*c.member;
    using T = typename std::remove_reference_t<decltype(column)>::value_type;
    constexpr ColumnType type =
        std::is_same_v<T, float>           ? ColumnType::kF32
        : std::is_same_v<T, std::uint64_t> ? ColumnType::kU64
                                           : ColumnType::kU8;
    static_assert(type != ColumnType::kU8 || std::is_same_v<T, std::uint8_t>);
    views.push_back(
        View{c.name, type, sizeof(T), column.data(), column.size()});
  });
  return views;
}

}  // namespace

std::vector<ColumnView> particle_columns(const Particles& p) {
  return state_columns<ColumnView>(p);
}

std::vector<MutableColumnView> particle_columns(Particles& p) {
  return state_columns<MutableColumnView>(p);
}

std::vector<std::uint8_t> encode_checkpoint(const CkptFileMeta& meta,
                                            std::span<const ColumnView> columns,
                                            const ChunkMask* mask) {
  CHECK(meta.chunk_bytes > 0);
  CHECK(mask == nullptr || mask->size() == columns.size());
  for (const ColumnView& col : columns) {
    CHECK(col.elem_count == meta.snapshot.particle_count);
    CHECK(col.name.size() < kNameBytes);
  }

  std::vector<std::uint8_t> dir;
  std::vector<std::uint8_t> payload;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const ColumnView& col = columns[c];
    const std::uint64_t col_bytes = col.bytes();
    const std::uint32_t nchunks = num_chunks_for(col_bytes, meta.chunk_bytes);
    CHECK(mask == nullptr || (*mask)[c].size() == nchunks);

    std::vector<std::uint32_t> present;
    for (std::uint32_t k = 0; k < nchunks; ++k) {
      if (mask == nullptr || (*mask)[c][k]) present.push_back(k);
    }

    char name[kNameBytes] = {};
    std::memcpy(name, col.name.data(), col.name.size());
    dir.insert(dir.end(), name, name + kNameBytes);
    append_pod(dir, static_cast<std::uint32_t>(col.type));
    append_pod(dir, col.elem_size);
    append_pod(dir, col.elem_count);
    append_pod(dir, nchunks);
    append_pod(dir, static_cast<std::uint32_t>(present.size()));

    const auto* data = static_cast<const std::uint8_t*>(col.data);
    for (const std::uint32_t k : present) {
      const std::uint32_t length = chunk_length(col_bytes, meta.chunk_bytes, k);
      const std::uint8_t* chunk = data + std::uint64_t{k} * meta.chunk_bytes;
      append_pod(dir, k);
      append_pod(dir, length);
      append_pod(dir, crc32(chunk, length));
      payload.insert(payload.end(), chunk, chunk + length);
    }
  }

  WireHeader header{};
  header.magic = kMagic;
  header.format_version = kCkptFormatVersion;
  header.kind = static_cast<std::uint32_t>(meta.kind);
  header.step = meta.snapshot.step;
  header.scale_factor = meta.snapshot.scale_factor;
  header.rank = meta.snapshot.rank;
  header.num_ranks = meta.snapshot.num_ranks;
  header.particle_count = meta.snapshot.particle_count;
  header.base_step = meta.base_step;
  header.chain_index = meta.chain_index;
  header.chunk_bytes = meta.chunk_bytes;
  header.num_columns = static_cast<std::uint32_t>(columns.size());
  header.dir_bytes = static_cast<std::uint32_t>(dir.size());
  header.header_crc = header_fields_crc(header);

  std::vector<std::uint8_t> bytes;
  bytes.reserve(sizeof(WireHeader) + dir.size() + 4 + payload.size());
  append_pod(bytes, header);
  bytes.insert(bytes.end(), dir.begin(), dir.end());
  append_pod(bytes, crc32(dir.data(), dir.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

ParseStatus parse_checkpoint(const std::vector<std::uint8_t>& bytes,
                             ParsedCheckpoint& out) {
  out = ParsedCheckpoint{};
  if (bytes.size() < sizeof(std::uint32_t)) return ParseStatus::kNotCkpt;
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic == kLegacyMagic) {
    log_once(log::Level::kError, "ckpt-legacy-v1",
             "checkpoint is legacy format v1 (GIO1); this build reads only "
             "format v2 (CKC2) — re-checkpoint from a current run");
    return ParseStatus::kLegacy;
  }
  if (magic != kMagic) return ParseStatus::kNotCkpt;
  if (bytes.size() < sizeof(WireHeader)) return ParseStatus::kCorruptHeader;

  WireHeader header;
  std::memcpy(&header, bytes.data(), sizeof(WireHeader));
  if (header.header_crc != header_fields_crc(header)) {
    return ParseStatus::kCorruptHeader;
  }
  if (header.format_version != kCkptFormatVersion) {
    log_once(log::Level::kError,
             "ckpt-version-" + std::to_string(header.format_version),
             "checkpoint format v" + std::to_string(header.format_version) +
                 " is newer than this reader (v" +
                 std::to_string(kCkptFormatVersion) + "); refusing to parse");
    return ParseStatus::kBadVersion;
  }
  if (header.chunk_bytes == 0) return ParseStatus::kCorruptHeader;

  const std::size_t dir_begin = sizeof(WireHeader);
  const std::size_t dir_end = dir_begin + header.dir_bytes;
  if (dir_end + sizeof(std::uint32_t) > bytes.size()) {
    return ParseStatus::kCorruptHeader;
  }
  std::uint32_t dir_crc = 0;
  std::memcpy(&dir_crc, bytes.data() + dir_end, sizeof(dir_crc));
  if (crc32(bytes.data() + dir_begin, header.dir_bytes) != dir_crc) {
    return ParseStatus::kCorruptHeader;
  }

  out.meta.snapshot.step = header.step;
  out.meta.snapshot.scale_factor = header.scale_factor;
  out.meta.snapshot.rank = header.rank;
  out.meta.snapshot.num_ranks = header.num_ranks;
  out.meta.snapshot.particle_count = header.particle_count;
  out.meta.snapshot.format_version = header.format_version;
  out.meta.kind = static_cast<CkptKind>(header.kind);
  out.meta.base_step = header.base_step;
  out.meta.chain_index = header.chain_index;
  out.meta.chunk_bytes = header.chunk_bytes;

  // Walk the (CRC-verified) directory, then locate each carried chunk's
  // payload by accumulating lengths in directory order.
  std::size_t cursor = dir_begin;
  std::uint64_t payload_offset = dir_end + sizeof(std::uint32_t);
  out.columns.resize(header.num_columns);
  for (std::uint32_t c = 0; c < header.num_columns; ++c) {
    ParsedColumn& col = out.columns[c];
    if (cursor + kNameBytes > dir_end) return ParseStatus::kCorruptHeader;
    const char* name = reinterpret_cast<const char*>(bytes.data() + cursor);
    col.name.assign(name, strnlen(name, kNameBytes));
    cursor += kNameBytes;
    std::uint32_t type = 0, present = 0;
    if (!read_pod(bytes, cursor, dir_end, type) ||
        !read_pod(bytes, cursor, dir_end, col.elem_size) ||
        !read_pod(bytes, cursor, dir_end, col.elem_count) ||
        !read_pod(bytes, cursor, dir_end, col.num_chunks) ||
        !read_pod(bytes, cursor, dir_end, present)) {
      return ParseStatus::kCorruptHeader;
    }
    col.type = static_cast<ColumnType>(type);
    const std::uint64_t col_bytes = col.elem_count * col.elem_size;
    if (col.num_chunks != num_chunks_for(col_bytes, header.chunk_bytes) ||
        present > col.num_chunks) {
      return ParseStatus::kCorruptHeader;
    }
    col.chunks.resize(present);
    for (std::uint32_t i = 0; i < present; ++i) {
      ParsedChunk& chunk = col.chunks[i];
      if (!read_pod(bytes, cursor, dir_end, chunk.index) ||
          !read_pod(bytes, cursor, dir_end, chunk.length) ||
          !read_pod(bytes, cursor, dir_end, chunk.crc)) {
        return ParseStatus::kCorruptHeader;
      }
      if (chunk.index >= col.num_chunks ||
          chunk.length !=
              chunk_length(col_bytes, header.chunk_bytes, chunk.index)) {
        return ParseStatus::kCorruptHeader;
      }
      chunk.offset = payload_offset;
      payload_offset += chunk.length;
      // A chunk whose payload runs past the end of the file (torn write)
      // or whose bytes fail the CRC (bit flip) is damage localized to
      // this chunk — the rest of the file stays usable.
      chunk.valid =
          chunk.offset + chunk.length <= bytes.size() &&
          crc32(bytes.data() + chunk.offset, chunk.length) == chunk.crc;
      ++out.chunks_checked;
      if (!chunk.valid) ++out.chunks_damaged;
    }
  }
  if (cursor != dir_end) return ParseStatus::kCorruptHeader;
  return ParseStatus::kOk;
}

bool apply_chunks(const ParsedCheckpoint& file,
                  const std::vector<std::uint8_t>& bytes,
                  std::span<const MutableColumnView> dest) {
  for (const ParsedColumn& col : file.columns) {
    const MutableColumnView* target = nullptr;
    for (const MutableColumnView& d : dest) {
      if (d.name == col.name) {
        target = &d;
        break;
      }
    }
    if (target == nullptr) {
      log_once(log::Level::kWarn, "ckpt-unknown-column-" + col.name,
               ("checkpoint column '" + col.name +
                "' is unknown to this reader; skipping it")
                   .c_str());
      continue;
    }
    if (static_cast<ColumnType>(col.type) != target->type ||
        col.elem_size != target->elem_size ||
        col.elem_count != target->elem_count) {
      HACC_LOG_ERROR(
          "checkpoint column '%s' mismatches destination "
          "(type %u/%u elem_size %u/%u count %llu/%llu)",
          col.name.c_str(), static_cast<unsigned>(col.type),
          static_cast<unsigned>(target->type), col.elem_size,
          target->elem_size,
          static_cast<unsigned long long>(col.elem_count),
          static_cast<unsigned long long>(target->elem_count));
      return false;
    }
    auto* data = static_cast<std::uint8_t*>(target->data);
    for (const ParsedChunk& chunk : col.chunks) {
      if (!chunk.valid) return false;
      std::memcpy(data + std::uint64_t{chunk.index} * file.meta.chunk_bytes,
                  bytes.data() + chunk.offset, chunk.length);
    }
  }
  return true;
}

bool is_complete(const ParsedCheckpoint& file) {
  for (const ParsedColumn& col : file.columns) {
    if (col.chunks.size() != col.num_chunks) return false;
    std::vector<std::uint8_t> covered(col.num_chunks, 0);
    for (const ParsedChunk& chunk : col.chunks) {
      if (!chunk.valid || chunk.index >= col.num_chunks) return false;
      covered[chunk.index] = 1;
    }
    if (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
      return false;
    }
  }
  return true;
}

CkptDiffPlanner::CkptDiffPlanner(const CkptConfig& config)
    : config_(config),
      tracker_(config.chunk_bytes, /*align_regions=*/true) {}

std::uint64_t CkptDiffPlanner::total_chunks(
    std::span<const ColumnView> columns) const {
  std::uint64_t total = 0;
  for (const ColumnView& col : columns) {
    total += num_chunks_for(
        col.bytes(), static_cast<std::uint32_t>(config_.chunk_bytes));
  }
  return total;
}

CkptDiffPlanner::Plan CkptDiffPlanner::finish_full(
    std::uint64_t step, std::span<const ColumnView> columns) {
  chain_root_ = step;
  chain_index_ = 0;
  prev_step_ = step;
  Plan plan;
  plan.kind = CkptKind::kFull;
  plan.base_step = step;
  plan.chain_index = 0;
  plan.chunks_total = total_chunks(columns);
  plan.chunks_written = plan.chunks_total;
  plan.chain_root = step;
  return plan;
}

CkptDiffPlanner::Plan CkptDiffPlanner::plan(
    std::uint64_t step, std::span<const ColumnView> columns) {
  std::vector<util::PagedSnapshot::Region> regions;
  regions.reserve(columns.size());
  for (const ColumnView& col : columns) {
    regions.push_back({col.data, static_cast<std::size_t>(col.bytes())});
  }
  tracker_.capture(regions);

  if (!config_.diff) return finish_full(step, columns);
  if (chain_index_ >= static_cast<std::uint32_t>(
                          std::max(0, config_.diff_max_chain))) {
    return finish_full(step, columns);
  }
  const auto changed = tracker_.changed_pages();
  if (!changed.has_value()) {
    // First capture, or the column layout changed (particle count moved):
    // there is no page correspondence to diff against.
    return finish_full(step, columns);
  }

  Plan plan;
  plan.mask.resize(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const std::size_t first = tracker_.region_first_page(c);
    const std::size_t count = tracker_.region_num_pages(c);
    plan.mask[c].assign(count, 0);
    for (std::size_t k = 0; k < count; ++k) {
      plan.mask[c][k] = (*changed)[first + k];
      if (plan.mask[c][k]) ++plan.chunks_written;
    }
    plan.chunks_total += count;
  }
  if (plan.chunks_written == plan.chunks_total) {
    // Everything moved — a diff would be a full file with extra chain
    // risk. Write a real full and reset the chain instead.
    return finish_full(step, columns);
  }
  plan.kind = CkptKind::kDiff;
  plan.base_step = prev_step_;
  plan.chain_index = ++chain_index_;
  plan.chain_root = chain_root_;
  prev_step_ = step;
  return plan;
}

CkptDiffPlanner::Plan CkptDiffPlanner::plan_full(
    std::uint64_t step, std::span<const ColumnView> columns) {
  std::vector<util::PagedSnapshot::Region> regions;
  regions.reserve(columns.size());
  for (const ColumnView& col : columns) {
    regions.push_back({col.data, static_cast<std::size_t>(col.bytes())});
  }
  tracker_.capture(regions);
  return finish_full(step, columns);
}

}  // namespace crkhacc::io
