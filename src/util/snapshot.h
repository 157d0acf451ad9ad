// Paged, CRC32-verified, double-buffered in-memory snapshots.
//
// The SDC guardrail layer (core/sdc.h) snapshots rank-local particle
// state at every PM-step boundary so a failed post-step audit can roll
// the step back and replay it. This is the storage primitive: a set of
// byte regions copied into one contiguous buffer, checksummed per page
// (CRC32, util/crc32) so corruption of the *snapshot itself* — the same
// silent bit flips the snapshot exists to defend against — is detected
// before a restore can spread it back into live state.
//
// Captures are double-buffered: a new capture fills the inactive buffer
// and only then becomes the active one, so the previous snapshot stays
// intact until its replacement is complete. Buffers are reused across
// captures (no steady-state allocation once sizes stabilize).
//
// The differential-checkpoint layer (io/column_file.h) reuses the same
// page-CRC machinery in `align_regions` mode: every region starts on a
// page boundary (zero padding in between), so each page belongs to
// exactly one region and the page index doubles as a column chunk
// index. changed_pages() then diffs the active capture's page CRCs
// against the previous capture's, which is exactly the "which chunks
// moved since the last checkpoint" signal a differential write needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace crkhacc::util {

class PagedSnapshot {
 public:
  /// A source byte region to capture (one SoA field, typically).
  struct Region {
    const void* data = nullptr;
    std::size_t bytes = 0;
  };
  /// A destination byte region for restore; sizes must match the capture.
  struct MutableRegion {
    void* data = nullptr;
    std::size_t bytes = 0;
  };

  static constexpr std::size_t kDefaultPageBytes = 64 * 1024;

  /// `align_regions` starts every region on a page boundary (the gap is
  /// zero-filled), so a page never straddles two regions and the page
  /// index maps 1:1 onto a per-region chunk index. The default packed
  /// layout is unchanged for existing users (SDC guardrails).
  explicit PagedSnapshot(std::size_t page_bytes = kDefaultPageBytes,
                         bool align_regions = false);

  /// Copy `regions` into the inactive buffer, stamp per-page CRCs, and
  /// make it the active capture. The previously active capture remains
  /// valid until this returns.
  void capture(std::span<const Region> regions);

  /// True once capture() has completed at least once.
  bool valid() const { return active_ >= 0; }

  /// Recompute every page CRC of the active capture and compare against
  /// the values stamped at capture time. False = the snapshot buffer
  /// itself was corrupted.
  bool verify() const;

  /// Verify, then copy the active capture back out into `regions`.
  /// Region count and sizes must match the capture exactly (CHECK —
  /// a mismatch is a caller bug, not data corruption). Returns false
  /// without writing anything if verification fails.
  bool restore(std::span<const MutableRegion> regions) const;

  std::size_t page_bytes() const { return page_bytes_; }
  /// Payload bytes / page count / region count of the active capture.
  std::size_t bytes() const;
  std::size_t pages() const;
  std::size_t num_regions() const;
  std::size_t region_bytes(std::size_t r) const;

  /// First page index / page count of region `r` in the active capture.
  /// Requires `align_regions` mode (CHECK), where the mapping is exact.
  std::size_t region_first_page(std::size_t r) const;
  std::size_t region_num_pages(std::size_t r) const;

  /// One flag per page of the active capture: true = this page's CRC
  /// differs from the previous capture's. nullopt when there is no
  /// comparable previous capture (fewer than two captures, or the
  /// region layout changed between them) — callers must treat that as
  /// "everything changed".
  std::optional<std::vector<std::uint8_t>> changed_pages() const;

  /// Test hook: direct mutable access to the active capture's payload,
  /// for injecting snapshot-buffer corruption in tests.
  std::uint8_t* mutable_payload_for_test();

 private:
  struct Buffer {
    std::vector<std::uint8_t> data;
    std::vector<std::uint32_t> page_crc;
    std::vector<std::size_t> region_bytes;
    std::vector<std::size_t> region_offset;  ///< byte offset of each region
  };

  bool verify_buffer(const Buffer& buffer) const;

  std::size_t page_bytes_;
  bool align_regions_;
  Buffer buffers_[2];
  int active_ = -1;    ///< index of the valid capture; -1 = none yet
  int captures_ = 0;   ///< total completed captures (saturates at 2)
};

}  // namespace crkhacc::util
