// SIMD lane abstraction for the vector tile engine.
//
// The warp-split tile (gpu/warp.h) rotates half-warp lanes so that every
// lane meets every partner exactly once; the per-accumulator operand order
// is fixed by that rotation. The vector tile engine (gpu/warp_simd.h)
// evaluates kWidth of those lanes per instruction. The bitwise contract —
// vector tiles are bit-identical to the scalar tiles — holds because:
//
//  * every operation here is a single IEEE-754 elementwise op (add, sub,
//    mul, div, sqrt), which produces the same bits lane-by-lane as the
//    scalar instruction (no reassociation, no widened intermediates);
//  * the build disables FP contraction globally (-ffp-contract=off in the
//    top-level CMakeLists), so the SCALAR kernels are also evaluated
//    operation-for-operation as written — GCC's default contract=fast
//    would otherwise fuse scalar a*b+c into FMA and break the identity;
//  * min/max follow the std::min/std::max selection semantics exactly
//    (implemented as compare + blend, NOT the SSE minps/maxps NaN/-0.0
//    rules); negation flips the sign bit (x ^ -0.0f, never 0 - x, which
//    differs on signed zeros); masked lanes BLEND the accumulator rather
//    than adding a zero contribution (-0.0f + 0.0f == +0.0f would flip
//    signed zeros);
//  * the fused-math policy (FusedMath) is the one deliberate departure:
//    madd() maps to real FMA, trading bitwise identity for an explicitly
//    ULP-gated mode (LaunchConfig::simd_math = kFused, tests/test_simd).
//
// Backend selection is configure-time (top-level CMakeLists):
//   CRKHACC_SIMD_AVX2 -> AVX2 intrinsics (kAvailable, kIsaName "avx2").
//   otherwise         -> portable scalar lanes (kIsaName "none"), slower
//                        than the scalar tiles: no launch runs them; they
//                        only keep the kernels' SIMD surfaces compiling.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(CRKHACC_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace crkhacc::gpu {

/// Largest supported half-warp (AMD's 64-lane warp split in two).
/// Lives here (not warp.h) so the lane-buffer geometry below can depend
/// on it without a circular include.
inline constexpr std::uint32_t kMaxHalfWarp = 32;

namespace simd {

/// Lanes evaluated per vector instruction.
inline constexpr std::uint32_t kWidth = 8;

/// Whether the AVX2 backend is compiled in — the one ISA the vector tile
/// engine runs on.
#if defined(CRKHACC_SIMD_AVX2)
inline constexpr bool kAvailable = true;
inline constexpr const char* kIsaName = "avx2";
#else
inline constexpr bool kAvailable = false;
inline constexpr const char* kIsaName = "none";
#endif

/// Padded SoA slot count for one half-warp lane buffer: slot k holds lane
/// (k mod w), so a rotation by t is a contiguous (unaligned) load at
/// offset (base + t) mod w — base + t < w and k < kWidth keeps every such
/// load inside the padding. 40 floats = 160 bytes, a whole number of
/// 32-byte vectors.
inline constexpr std::uint32_t kLaneSlots = kMaxHalfWarp + kWidth;

/// One SoA field of a padded lane buffer. 32-byte aligned so block-base
/// loads (multiples of kWidth) can use aligned vector loads; rotated
/// partner loads go through loadu().
struct alignas(32) LaneArray {
  std::array<float, kLaneSlots> v{};

  float& operator[](std::uint32_t k) { return v[k]; }
  float operator[](std::uint32_t k) const { return v[k]; }
  float* data() { return v.data(); }
  const float* data() const { return v.data(); }
};

#if defined(CRKHACC_SIMD_AVX2)

struct vfloat {
  __m256 v;
};
/// Per-lane all-ones (true) / all-zeros (false) bit mask.
struct vmask {
  __m256 m;
};

inline vfloat broadcast(float x) { return {_mm256_set1_ps(x)}; }
inline vfloat vzero() { return {_mm256_setzero_ps()}; }
inline vfloat load_aligned(const float* p) { return {_mm256_load_ps(p)}; }
inline vfloat loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(float* p, vfloat a) { _mm256_storeu_ps(p, a.v); }

inline vfloat operator+(vfloat a, vfloat b) { return {_mm256_add_ps(a.v, b.v)}; }
inline vfloat operator-(vfloat a, vfloat b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline vfloat operator*(vfloat a, vfloat b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline vfloat operator/(vfloat a, vfloat b) { return {_mm256_div_ps(a.v, b.v)}; }
inline vfloat sqrt(vfloat a) { return {_mm256_sqrt_ps(a.v)}; }
/// Exact IEEE negation: flip the sign bit (0 - x would turn +0 into +0).
inline vfloat neg(vfloat a) {
  return {_mm256_xor_ps(a.v, _mm256_set1_ps(-0.0f))};
}

inline vmask cmp_lt(vfloat a, vfloat b) {
  return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
}
inline vmask cmp_gt(vfloat a, vfloat b) {
  return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
}
inline vmask operator&(vmask a, vmask b) {
  return {_mm256_and_ps(a.m, b.m)};
}
inline vmask operator|(vmask a, vmask b) {
  return {_mm256_or_ps(a.m, b.m)};
}
/// a where the mask lane is set, else b.
inline vfloat select(vmask m, vfloat a, vfloat b) {
  return {_mm256_blendv_ps(b.v, a.v, m.m)};
}
/// Reinterpret stored mask bits (LaneArray of 0x00000000 / 0xFFFFFFFF
/// lanes written via mask_on()) as a vmask.
inline vmask loadu_mask(const float* p) { return {_mm256_loadu_ps(p)}; }
/// Bit l of the result = lane l of the mask.
inline std::uint32_t mask_bits(vmask m) {
  return static_cast<std::uint32_t>(_mm256_movemask_ps(m.m));
}

/// Lane l of the result <- a[(l + n) mod kWidth] — the warp "shuffle".
inline vfloat rotate(vfloat a, std::uint32_t n) {
  alignas(32) std::int32_t idx[kWidth];
  for (std::uint32_t l = 0; l < kWidth; ++l) {
    idx[l] = static_cast<std::int32_t>((l + n) % kWidth);
  }
  return {_mm256_permutevar8x32_ps(
      a.v, _mm256_load_si256(reinterpret_cast<const __m256i*>(idx)))};
}

#else  // portable scalar lanes (kernel SIMD surfaces only)

struct vfloat {
  std::array<float, kWidth> v;
};
struct vmask {
  std::array<std::uint32_t, kWidth> m;
};

inline vfloat broadcast(float x) {
  vfloat r;
  r.v.fill(x);
  return r;
}
inline vfloat vzero() { return broadcast(0.0f); }
inline vfloat load_aligned(const float* p) {
  vfloat r;
  std::memcpy(r.v.data(), p, sizeof(r.v));
  return r;
}
inline vfloat loadu(const float* p) { return load_aligned(p); }
inline void store(float* p, vfloat a) { std::memcpy(p, a.v.data(), sizeof(a.v)); }

inline vfloat operator+(vfloat a, vfloat b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.v[l] = a.v[l] + b.v[l];
  return a;
}
inline vfloat operator-(vfloat a, vfloat b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.v[l] = a.v[l] - b.v[l];
  return a;
}
inline vfloat operator*(vfloat a, vfloat b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.v[l] = a.v[l] * b.v[l];
  return a;
}
inline vfloat operator/(vfloat a, vfloat b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.v[l] = a.v[l] / b.v[l];
  return a;
}
inline vfloat sqrt(vfloat a) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.v[l] = std::sqrt(a.v[l]);
  return a;
}
inline vfloat neg(vfloat a) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.v[l] = -a.v[l];
  return a;
}

inline vmask cmp_lt(vfloat a, vfloat b) {
  vmask r;
  for (std::uint32_t l = 0; l < kWidth; ++l) {
    r.m[l] = a.v[l] < b.v[l] ? 0xFFFFFFFFu : 0u;
  }
  return r;
}
inline vmask cmp_gt(vfloat a, vfloat b) {
  vmask r;
  for (std::uint32_t l = 0; l < kWidth; ++l) {
    r.m[l] = a.v[l] > b.v[l] ? 0xFFFFFFFFu : 0u;
  }
  return r;
}
inline vmask operator&(vmask a, vmask b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.m[l] &= b.m[l];
  return a;
}
inline vmask operator|(vmask a, vmask b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) a.m[l] |= b.m[l];
  return a;
}
inline vfloat select(vmask m, vfloat a, vfloat b) {
  for (std::uint32_t l = 0; l < kWidth; ++l) {
    if (m.m[l] == 0u) a.v[l] = b.v[l];
  }
  return a;
}
inline vmask loadu_mask(const float* p) {
  vmask r;
  std::memcpy(r.m.data(), p, sizeof(r.m));
  return r;
}
inline std::uint32_t mask_bits(vmask m) {
  std::uint32_t bits = 0;
  for (std::uint32_t l = 0; l < kWidth; ++l) {
    if (m.m[l] != 0u) bits |= 1u << l;
  }
  return bits;
}

inline vfloat rotate(vfloat a, std::uint32_t n) {
  vfloat r;
  for (std::uint32_t l = 0; l < kWidth; ++l) r.v[l] = a.v[(l + n) % kWidth];
  return r;
}

#endif  // backend

inline float extract(vfloat a, std::uint32_t l) {
  alignas(32) float out[kWidth];
  store(out, a);
  return out[l];
}

/// Strictly sequential lane sum: l0 + l1 + ... + l7. The defined order is
/// part of the lane-primitive contract (golden-tested in tests/test_simd)
/// so reductions stay deterministic across backends.
inline float reduce_add(vfloat a) {
  alignas(32) float out[kWidth];
  store(out, a);
  float sum = out[0];
  for (std::uint32_t l = 1; l < kWidth; ++l) sum += out[l];
  return sum;
}

/// {0, 1, ..., kWidth-1} — with broadcast + cmp_lt, the ragged-chunk lane
/// liveness test.
inline vfloat iota() {
  alignas(32) float out[kWidth];
  for (std::uint32_t l = 0; l < kWidth; ++l) out[l] = static_cast<float>(l);
  return load_aligned(out);
}

/// std::min semantics per lane: (b < a) ? b : a — NOT minps, whose NaN
/// and signed-zero behavior differs from the scalar kernels.
inline vfloat min_std(vfloat a, vfloat b) { return select(cmp_lt(b, a), b, a); }
/// std::max semantics per lane: (a < b) ? b : a.
inline vfloat max_std(vfloat a, vfloat b) { return select(cmp_lt(a, b), b, a); }

inline std::uint32_t popcount(vmask m) { return std::popcount(mask_bits(m)); }

/// The float whose bits are all-ones: a stored "true" mask lane. NaN as a
/// float, so masks built in LaneArrays are written via bit copy.
inline float mask_on() {
  const std::uint32_t bits = 0xFFFFFFFFu;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Math policy for the SIMD kernels: every scalar a*b + c site is written
/// as Math::madd(a, b, c).
///  * ExactMath — mul then add, two rounds: bit-identical to the scalar
///    kernels (the default, and the vector engine's bitwise contract).
///  * FusedMath — single-rounded FMA: faster and *more* accurate per
///    operation, but not bitwise vs. scalar; selected by
///    LaunchConfig::simd_math = kFused and gated by per-field ULP bounds
///    (tests/test_simd, bench/simd_lanes).
struct ExactMath {
  static constexpr const char* kName = "exact";
  static vfloat madd(vfloat a, vfloat b, vfloat c) { return a * b + c; }
};

struct FusedMath {
  static constexpr const char* kName = "fused";
  static vfloat madd(vfloat a, vfloat b, vfloat c) {
#if defined(CRKHACC_SIMD_AVX2)
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
    for (std::uint32_t l = 0; l < kWidth; ++l) {
      a.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
    }
    return a;
#endif
  }
};

}  // namespace simd
}  // namespace crkhacc::gpu
