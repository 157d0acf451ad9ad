// Heap accounting for peak_heap_mb: hacc_bench replaces the global
// operator new/delete with versions that call glibc malloc/free exactly as
// the default ones do, and only count the usable bytes of every live
// block. The count covers every allocation the program makes through
// operator new (all of its containers), whichever thread or malloc arena
// serves it, so unlike the resident set it does not depend on how the
// allocator spreads blocks over per-thread arenas.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* note_alloc(void* p) {
  if (p == nullptr) return nullptr;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void* allocate(std::size_t n) {
  void* p = note_alloc(std::malloc(n == 0 ? 1 : n));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
  void* p = note_alloc(std::aligned_alloc(align, size));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return note_alloc(std::malloc(n == 0 ? 1 : n));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return note_alloc(std::malloc(n == 0 ? 1 : n));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace perfbench {

double peak_heap_mb() {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

void reset_peak_heap() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench
