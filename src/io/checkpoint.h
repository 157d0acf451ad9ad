// Checkpoint discovery, restart, and fault injection.
//
// Restart policy mirrors the paper's fault-tolerance loop: every PM step
// writes a full checkpoint; after an interruption, the run resumes from
// the newest step for which EVERY rank's file reached the PFS intact.
// "Intact" is verified end to end: the `.ok` completion marker carries the
// payload size and CRC32 stamped at write time, and both discovery
// (latest_complete_checkpoint) and restore (restore_checkpoint) recompute
// the CRC over the bytes actually on the PFS. Partial checkpoints — a
// fault mid-bleed — and silently corrupted ones (torn writes, bit flips
// at rest) are skipped automatically.
//
// FaultInjector models the machine's mean time to interrupt: a
// deterministic counter-based draw per step, so tests can replay the
// exact same failure schedule. It is virtual so tests can script exact
// interruption points.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/particles.h"
#include "io/column_file.h"
#include "io/storage.h"
#include "util/rng.h"

namespace crkhacc::io {

/// Contents of a checkpoint completion marker (`.ok` file): the integrity
/// contract between the writer that bled the file and any later restart.
struct CheckpointMarker {
  std::uint64_t payload_bytes = 0;  ///< size of the checkpoint file
  std::uint32_t payload_crc = 0;    ///< CRC32 of the checkpoint file
};

/// Marker wire format: magic + payload size + payload CRC, closed by a
/// CRC over the marker itself (a torn marker write must not validate).
std::vector<std::uint8_t> encode_marker(const CheckpointMarker& marker);
bool decode_marker(const std::vector<std::uint8_t>& bytes,
                   CheckpointMarker& out);

/// Steps with a checkpoint directory on the PFS, newest first. Existence
/// only — no integrity validation (recovery probes candidates in order).
std::vector<std::uint64_t> checkpoint_steps(ThrottledStore& pfs);

/// Full integrity check of one rank's file at `step`: marker present and
/// well-formed, payload present, size and CRC32 match the marker, and the
/// file parses as format v2. A differential checkpoint additionally
/// requires every ancestor in its chain (diff -> ... -> full) to pass the
/// same check — a diff whose base was pruned or damaged is not restorable
/// and must not be selected by latest_complete_checkpoint.
bool verify_checkpoint_rank(ThrottledStore& pfs, std::uint64_t step, int rank);

/// Writer-rank count a checkpoint step records about itself: the
/// `num_ranks` stamped into rank 0's verified file meta. 0 when rank 0's
/// file is absent or fails verification — a step with no restorable
/// rank-0 file was never collectively committed. This is what makes a
/// step directory self-describing: a later run with a different rank
/// count (e.g. after a shrink) can still tell which files constitute a
/// complete commit.
int checkpoint_writer_count(ThrottledStore& pfs, std::uint64_t step);

/// Newest collectively-committed step on the PFS: the newest step whose
/// files 0..M-1 all pass verify_checkpoint_rank, where M is the writer
/// count the step records about itself (checkpoint_writer_count). nullopt
/// if none.
///
/// `num_ranks` is the rank set the caller expects; a directory written by
/// a *different* rank count M (e.g. before a shrink) is tolerated rather
/// than silently skipped — the step is returned with a one-shot warning
/// naming the expected vs found rank set, and the caller adopts the
/// extra (or missing) domains by round-robin remap on restore. A step
/// only partially bled before a rank died (files recording M writers but
/// fewer verifiable) never qualifies under any reader rank count.
std::optional<std::uint64_t> latest_complete_checkpoint(ThrottledStore& pfs,
                                                        int num_ranks);

/// Load rank `rank`'s particles from checkpoint `step` on the PFS after
/// validating the marker CRC against the stored bytes. A differential
/// checkpoint is restored by replaying its chain: the anchoring full is
/// decoded first, then each diff's carried chunks are overlaid oldest to
/// newest — bitwise identical to restoring a full written at `step`.
/// Returns false on any integrity failure anywhere in the chain.
bool restore_checkpoint(ThrottledStore& pfs, std::uint64_t step, int rank,
                        SnapshotMeta& meta, Particles& out);

/// Deterministic interruption schedule: kills happen when the per-step
/// hazard draw falls below dt/mtti.
class FaultInjector {
 public:
  /// mtti in the same time unit as the dt passed to should_fail.
  FaultInjector(double mtti, std::uint64_t seed)
      : mtti_(mtti), rng_(seed, /*stream=*/0xFA17) {}
  virtual ~FaultInjector() = default;

  /// True if the machine is interrupted during this execution attempt
  /// (`trial` must increase monotonically across retries of the same
  /// step, or a deterministic failure would recur forever).
  virtual bool should_fail(std::uint64_t trial, double dt) const {
    if (mtti_ <= 0.0) return false;
    return rng_.uniform(trial) < dt / mtti_;
  }

 private:
  double mtti_;
  CounterRng rng_;
};

}  // namespace crkhacc::io
