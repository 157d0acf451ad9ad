// Self-describing chunked column checkpoint format ("CKC2", format v2).
//
// Modeled on MP-Gadget's bigfile layout: a checkpoint is a small header
// plus a column directory (names, dtypes, element counts) followed by
// fixed-size column chunks, each carrying its own length and CRC32. A
// torn write or bit flip therefore damages *a chunk*, not the file — the
// reader reports exactly which column/chunk is bad, and the offline
// audit tool (io/ckpt_audit.h) can patch it back from a redundant tier
// copy without the simulator running.
//
// Differential checkpoints ride on the same layout: a diff file lists
// every column at its full chunk count but carries only the chunks whose
// page CRC changed since the previous write (tracked by CkptDiffPlanner
// via util::PagedSnapshot in region-aligned mode, page == chunk). Files
// chain full -> diff -> diff ... via `base_step`, bounded by
// `diff_max_chain` before the next forced full; replaying the chain is
// bitwise identical to a full-write restore.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/particles.h"
#include "util/snapshot.h"

namespace crkhacc::io {

/// Checkpoint wire-format version this build writes and reads.
/// v1 was the opaque "GIO1" record blob (single whole-payload CRC);
/// v2 is this chunked column format. v1 files are detected and rejected
/// with a clear error, never misparsed.
inline constexpr std::uint32_t kCkptFormatVersion = 2;

/// Run metadata of one rank's checkpoint file.
struct SnapshotMeta {
  std::uint64_t step = 0;
  double scale_factor = 1.0;
  std::int32_t rank = 0;
  std::int32_t num_ranks = 1;
  std::uint64_t particle_count = 0;  ///< filled on write
  std::uint32_t format_version = kCkptFormatVersion;  ///< filled on read
};

/// Knobs for the checkpoint writer/reader; embedded in both SimConfig
/// (param file) and MultiTierConfig (writer).
struct CkptConfig {
  bool diff = false;          ///< write differential checkpoints
  int diff_max_chain = 7;     ///< diffs allowed after a full before the next forced full
  std::size_t chunk_bytes = util::PagedSnapshot::kDefaultPageBytes;
  bool redundant_local = false;   ///< keep the node-local copy after the PFS bleed (repair source)
  bool audit_on_restore = false;  ///< run ckpt_audit (repairing if possible) before recovery
};

enum class CkptKind : std::uint32_t { kFull = 0, kDiff = 1 };

enum class ColumnType : std::uint32_t { kU8 = 1, kU64 = 2, kF32 = 3 };

/// A read-only view of one SoA column to serialize.
struct ColumnView {
  std::string name;
  ColumnType type = ColumnType::kF32;
  std::uint32_t elem_size = 4;
  const void* data = nullptr;
  std::uint64_t elem_count = 0;
  std::uint64_t bytes() const { return elem_count * elem_size; }
};

/// A writable view of one SoA column to restore into.
struct MutableColumnView {
  std::string name;
  ColumnType type = ColumnType::kF32;
  std::uint32_t elem_size = 4;
  void* data = nullptr;
  std::uint64_t elem_count = 0;
  std::uint64_t bytes() const { return elem_count * elem_size; }
};

/// The checkpointed particle columns: the state columns of
/// kParticleColumns (core/particles.h), in its order, under its names,
/// with the dtype of each column's element type. Scratch columns
/// (ax/ay/az/du) are recomputed after restore and not serialized.
std::vector<ColumnView> particle_columns(const Particles& p);
std::vector<MutableColumnView> particle_columns(Particles& p);

/// Header contents of one checkpoint file.
struct CkptFileMeta {
  SnapshotMeta snapshot;
  CkptKind kind = CkptKind::kFull;
  std::uint64_t base_step = 0;   ///< previous file in the chain (== step for fulls)
  std::uint32_t chain_index = 0; ///< 0 for fulls, 1..diff_max_chain for diffs
  std::uint32_t chunk_bytes = 0;
};

/// Per-column chunk selection for a differential write: mask[c][k] != 0
/// means chunk k of column c is carried in the file.
using ChunkMask = std::vector<std::vector<std::uint8_t>>;

/// Serialize `columns` into the CKC2 wire format. `mask == nullptr`
/// writes every chunk (full file); otherwise only the selected chunks
/// are carried (diff file). meta.snapshot.particle_count must equal the
/// element count of every column.
std::vector<std::uint8_t> encode_checkpoint(const CkptFileMeta& meta,
                                            std::span<const ColumnView> columns,
                                            const ChunkMask* mask = nullptr);

/// One chunk as recorded in a file's directory, with its payload
/// location and integrity verdict.
struct ParsedChunk {
  std::uint32_t index = 0;   ///< chunk index within the column
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;  ///< payload byte offset within the file
  bool valid = false;        ///< payload present and CRC matches
};

struct ParsedColumn {
  std::string name;
  ColumnType type = ColumnType::kF32;
  std::uint32_t elem_size = 0;
  std::uint64_t elem_count = 0;
  std::uint32_t num_chunks = 0;      ///< chunk count of the whole column
  std::vector<ParsedChunk> chunks;   ///< chunks carried in this file
};

struct ParsedCheckpoint {
  CkptFileMeta meta;
  std::vector<ParsedColumn> columns;
  std::uint64_t chunks_checked = 0;
  std::uint64_t chunks_damaged = 0;
  bool all_chunks_valid() const { return chunks_damaged == 0; }
};

enum class ParseStatus {
  kOk,             ///< header + directory intact; chunks individually flagged
  kNotCkpt,        ///< unrecognized magic
  kLegacy,         ///< v1 "GIO1" blob — rejected, warn-once
  kBadVersion,     ///< written by a newer format than this reader
  kCorruptHeader,  ///< header/directory truncated or CRC mismatch
};

/// Parse a CKC2 file. On kOk, `out` describes every column and flags
/// each carried chunk's integrity individually — a damaged chunk does
/// NOT fail the parse, it is localized. Any other status leaves `out`
/// unspecified.
ParseStatus parse_checkpoint(const std::vector<std::uint8_t>& bytes,
                             ParsedCheckpoint& out);

/// Copy every valid carried chunk of `file` into the matching (by name)
/// destination column. Unknown column names are skipped with a warn-once
/// (forward compatibility); a known column whose dtype/element count
/// disagrees with its destination fails. Returns false if any carried
/// chunk is damaged or a known column mismatches.
bool apply_chunks(const ParsedCheckpoint& file,
                  const std::vector<std::uint8_t>& bytes,
                  std::span<const MutableColumnView> dest);

/// True if every column's chunks are all carried and valid (i.e. the
/// file alone fully reconstructs the state — fulls should satisfy this).
bool is_complete(const ParsedCheckpoint& file);

/// Plans full vs differential checkpoint writes for one rank. Captures
/// the column payload into a region-aligned PagedSnapshot (page ==
/// chunk) and diffs page CRCs against the previous write; the baseline
/// advances only when plan() is called, so withheld checkpoints (e.g.
/// SDC escalation) never desynchronize the chain.
class CkptDiffPlanner {
 public:
  explicit CkptDiffPlanner(const CkptConfig& config);

  struct Plan {
    CkptKind kind = CkptKind::kFull;
    std::uint64_t base_step = 0;
    std::uint32_t chain_index = 0;
    ChunkMask mask;  ///< empty for full writes
    std::uint64_t chunks_total = 0;
    std::uint64_t chunks_written = 0;
    std::uint64_t chain_root = 0;  ///< step of the full anchoring this chain
  };

  /// Decide what the checkpoint of `step` should carry, and advance the
  /// baseline to the current column contents.
  Plan plan(std::uint64_t step, std::span<const ColumnView> columns);

  /// Same, but forced full (used by the direct-write fallback path).
  Plan plan_full(std::uint64_t step, std::span<const ColumnView> columns);

 private:
  Plan finish_full(std::uint64_t step, std::span<const ColumnView> columns);
  std::uint64_t total_chunks(std::span<const ColumnView> columns) const;

  CkptConfig config_;
  util::PagedSnapshot tracker_;
  std::uint64_t chain_root_ = 0;
  std::uint64_t prev_step_ = 0;
  std::uint32_t chain_index_ = 0;
};

}  // namespace crkhacc::io
