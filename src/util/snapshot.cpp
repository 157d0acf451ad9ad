#include "util/snapshot.h"

#include <cstring>

#include "util/assertions.h"
#include "util/crc32.h"

namespace crkhacc::util {

PagedSnapshot::PagedSnapshot(std::size_t page_bytes, bool align_regions)
    : page_bytes_(page_bytes), align_regions_(align_regions) {
  CHECK(page_bytes_ > 0);
}

void PagedSnapshot::capture(std::span<const Region> regions) {
  Buffer& buffer = buffers_[active_ == 0 ? 1 : 0];
  buffer.region_bytes.resize(regions.size());
  buffer.region_offset.resize(regions.size());
  std::size_t total = 0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (align_regions_ && total % page_bytes_ != 0) {
      total += page_bytes_ - total % page_bytes_;
    }
    buffer.region_offset[r] = total;
    buffer.region_bytes[r] = regions[r].bytes;
    total += regions[r].bytes;
  }
  if (align_regions_) {
    buffer.data.assign(total, 0);  // zero-fill the alignment padding
  } else {
    buffer.data.resize(total);  // packed layout: fully overwritten below
  }
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (regions[r].bytes > 0) {
      std::memcpy(buffer.data.data() + buffer.region_offset[r],
                  regions[r].data, regions[r].bytes);
    }
  }
  const std::size_t num_pages = (total + page_bytes_ - 1) / page_bytes_;
  buffer.page_crc.resize(num_pages);
  for (std::size_t p = 0; p < num_pages; ++p) {
    const std::size_t begin = p * page_bytes_;
    const std::size_t size = std::min(page_bytes_, total - begin);
    buffer.page_crc[p] = crc32(buffer.data.data() + begin, size);
  }
  // Publish only once the copy and CRCs are complete: the previous
  // capture stays restorable right up to this point.
  active_ = (active_ == 0) ? 1 : 0;
  if (captures_ < 2) ++captures_;
}

bool PagedSnapshot::verify_buffer(const Buffer& buffer) const {
  const std::size_t total = buffer.data.size();
  for (std::size_t p = 0; p < buffer.page_crc.size(); ++p) {
    const std::size_t begin = p * page_bytes_;
    const std::size_t size = std::min(page_bytes_, total - begin);
    if (crc32(buffer.data.data() + begin, size) != buffer.page_crc[p]) {
      return false;
    }
  }
  return true;
}

bool PagedSnapshot::verify() const {
  CHECK(valid());
  return verify_buffer(buffers_[active_]);
}

bool PagedSnapshot::restore(std::span<const MutableRegion> regions) const {
  CHECK(valid());
  const Buffer& buffer = buffers_[active_];
  CHECK(regions.size() == buffer.region_bytes.size());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    CHECK(regions[r].bytes == buffer.region_bytes[r]);
  }
  if (!verify_buffer(buffer)) return false;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (regions[r].bytes > 0) {
      std::memcpy(regions[r].data,
                  buffer.data.data() + buffer.region_offset[r],
                  regions[r].bytes);
    }
  }
  return true;
}

std::size_t PagedSnapshot::bytes() const {
  return valid() ? buffers_[active_].data.size() : 0;
}

std::size_t PagedSnapshot::pages() const {
  return valid() ? buffers_[active_].page_crc.size() : 0;
}

std::size_t PagedSnapshot::num_regions() const {
  return valid() ? buffers_[active_].region_bytes.size() : 0;
}

std::size_t PagedSnapshot::region_bytes(std::size_t r) const {
  CHECK(valid());
  CHECK(r < buffers_[active_].region_bytes.size());
  return buffers_[active_].region_bytes[r];
}

std::size_t PagedSnapshot::region_first_page(std::size_t r) const {
  CHECK(valid());
  CHECK(align_regions_);
  CHECK(r < buffers_[active_].region_offset.size());
  return buffers_[active_].region_offset[r] / page_bytes_;
}

std::size_t PagedSnapshot::region_num_pages(std::size_t r) const {
  CHECK(valid());
  CHECK(align_regions_);
  const std::size_t bytes = region_bytes(r);
  return (bytes + page_bytes_ - 1) / page_bytes_;
}

std::optional<std::vector<std::uint8_t>> PagedSnapshot::changed_pages() const {
  CHECK(valid());
  if (captures_ < 2) return std::nullopt;
  const Buffer& cur = buffers_[active_];
  const Buffer& prev = buffers_[active_ == 0 ? 1 : 0];
  if (cur.region_bytes != prev.region_bytes ||
      cur.page_crc.size() != prev.page_crc.size()) {
    return std::nullopt;  // layout changed; no page correspondence
  }
  std::vector<std::uint8_t> changed(cur.page_crc.size(), 0);
  for (std::size_t p = 0; p < cur.page_crc.size(); ++p) {
    changed[p] = cur.page_crc[p] != prev.page_crc[p] ? 1 : 0;
  }
  return changed;
}

std::uint8_t* PagedSnapshot::mutable_payload_for_test() {
  CHECK(valid());
  return buffers_[active_].data.data();
}

}  // namespace crkhacc::util
