// Multi-tiered checkpoint writer (Section IV-B4).
//
// Per rank: synchronized writes go to the node-local tier (NVMe); a
// background bleeder thread then moves completed files to the PFS tier
// and stamps a completion marker, while a pruning pass removes
// checkpoints older than the retention window on both tiers. The
// simulation thread only ever blocks on the fast local write — the PFS
// never sits on the critical path, which is how the paper sustains an
// effective bandwidth above Orion's direct-write peak.
//
// Fault hardening: every tier write is verified by read-back against the
// payload CRC32 and retried with bounded exponential backoff (torn
// writes, bit flips, and transient EIO are injectable via the stores'
// FaultPolicy). Completion markers carry the payload size + CRC, so a
// checkpoint only counts as complete once its bytes are provably intact
// on the PFS. If the node-local tier fails hard (sticky ENOSPC), the
// writer degrades gracefully to verified direct-to-PFS writes.
//
// write_checkpoint_direct() is the baseline: a synchronous write straight
// to the shared PFS, blocking the simulation for the full channel time.
//
// Checkpoints are written in the chunked column format (io/column_file.h).
// With CkptConfig::diff enabled the writer emits differential files —
// only the column chunks whose page CRC moved since the previous write —
// chained full -> diff -> ... with a bounded length; prune() is
// chain-aware and never drops a full (or intermediate diff) that a
// retained checkpoint still replays through. redundant_local keeps the
// node-local copy after the bleed as a repair source for ckpt_audit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/particles.h"
#include "io/column_file.h"
#include "io/storage.h"

namespace crkhacc::io {

struct MultiTierConfig {
  int rank = 0;
  int checkpoint_window = 2;  ///< keep this many most-recent steps
  int max_write_attempts = 4;   ///< verified-write attempts per tier op
  double backoff_base_s = 1e-3; ///< first retry delay (doubles per retry)
  double backoff_max_s = 5e-2;  ///< backoff ceiling
  CkptConfig ckpt{};            ///< checkpoint format / differential knobs
};

/// One checkpoint's accounting.
struct IoRecord {
  std::uint64_t step = 0;
  std::uint64_t bytes = 0;
  double local_seconds = 0.0;  ///< simulation-blocking time
  double pfs_seconds = 0.0;    ///< asynchronous bleed time
  bool bled = false;
  bool diff = false;                 ///< differential (vs full) write
  std::uint64_t chunks_written = 0;  ///< chunks carried in the file
  std::uint64_t chunks_total = 0;    ///< chunks a full write would carry
};

/// Fault-handling accounting across the writer's lifetime.
struct IoStats {
  std::uint64_t local_retries = 0;    ///< re-attempted node-local writes
  std::uint64_t pfs_retries = 0;      ///< re-attempted PFS writes
  std::uint64_t verify_failures = 0;  ///< read-back CRC mismatches caught
  std::uint64_t bleed_failures = 0;   ///< checkpoints that never completed
  bool degraded_to_direct = false;    ///< node-local tier abandoned
  std::uint64_t full_checkpoints = 0;
  std::uint64_t diff_checkpoints = 0;
  std::uint64_t chunks_written = 0;   ///< column chunks carried in files
  std::uint64_t chunks_skipped = 0;   ///< unchanged chunks elided by diffs
  std::uint64_t longest_chain = 0;    ///< deepest diff chain index reached
};

class MultiTierWriter {
 public:
  MultiTierWriter(ThrottledStore& local, ThrottledStore& pfs,
                  const MultiTierConfig& config);
  ~MultiTierWriter();

  MultiTierWriter(const MultiTierWriter&) = delete;
  MultiTierWriter& operator=(const MultiTierWriter&) = delete;

  /// Multi-tier path: blocking local write + queued async bleed.
  /// Returns the seconds the simulation was blocked.
  double write_checkpoint(const SnapshotMeta& meta, const Particles& particles);

  /// Baseline: synchronous write directly to the PFS (blocks for the
  /// full shared-channel service time).
  double write_checkpoint_direct(const SnapshotMeta& meta,
                                 const Particles& particles);

  /// Block until every queued bleed and prune has completed — or until
  /// the writer is shut down, whichever comes first.
  void drain();

  /// Stop the bleeder promptly, abandoning any still-queued bleeds, and
  /// release every blocked drain(). Idempotent; the destructor calls it.
  /// drain() first if settled bleeds are required.
  void shutdown();

  /// Accounting snapshot (drain() first for settled pfs numbers).
  std::vector<IoRecord> records() const;

  IoStats stats() const;

  std::uint64_t bytes_written() const;

  /// The tiers this writer is bound to. The node-local tier doubles as
  /// the redundant repair source for ckpt_audit when
  /// CkptConfig::redundant_local keeps copies after the bleed.
  ThrottledStore& local_tier() { return local_; }
  ThrottledStore& pfs_tier() { return pfs_; }

  static std::string checkpoint_path(std::uint64_t step, int rank);
  static std::string marker_path(std::uint64_t step, int rank);

 private:
  void worker_loop();
  void prune(std::uint64_t newest_step);
  /// Plan full-vs-diff, encode, and account the plan in stats/records.
  std::vector<std::uint8_t> encode_planned(const SnapshotMeta& meta,
                                           const Particles& particles,
                                           bool force_full, IoRecord& record);
  /// Verified write with bounded-backoff retries: write, read back,
  /// compare CRC; returns true once the bytes are provably on `store`.
  bool write_verified(ThrottledStore& store,  const std::string& rel_path,
                      const std::vector<std::uint8_t>& data,
                      std::uint32_t crc, std::uint64_t& retry_counter);
  /// Verified write of payload + CRC marker to the PFS; true on success.
  bool publish_to_pfs(std::uint64_t step,
                      const std::vector<std::uint8_t>& bytes);

  ThrottledStore& local_;
  ThrottledStore& pfs_;
  MultiTierConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::uint64_t> queue_;  ///< steps awaiting bleed
  std::vector<IoRecord> records_;
  IoStats stats_;
  bool stopping_ = false;
  bool degraded_ = false;  ///< local tier failed; direct PFS mode
  std::size_t in_flight_ = 0;

  CkptDiffPlanner planner_;  ///< simulation-thread only

  std::mutex prune_mutex_;
  std::uint64_t prune_floor_ = 0;  ///< lowest step not yet pruned
  /// step -> step of the full anchoring its chain; pruning must keep
  /// every step >= the chain root of any retained checkpoint.
  std::map<std::uint64_t, std::uint64_t> chain_roots_;

  std::thread worker_;
};

}  // namespace crkhacc::io
