// SPH smoothing kernels.
//
// The cubic B-spline (M4) kernel with support radius 2h, the default in
// CRKSPH's reference implementation, plus the Wendland C4 kernel used for
// high-neighbor-count configurations (CRKSPH evaluates ~270 neighbors per
// particle; Wendland kernels resist the pairing instability there).
// All functions are float-typed: the short-range solver runs FP32.
//
// Each shape also ships vector twins (w_v / dw_dr_v) for the vector tile
// engine: the SAME expression DAG per lane — every multiply, divide and
// constant in the same order, branches turned into masked selects — so
// with contraction disabled (-ffp-contract=off, top-level CMakeLists) the
// vector value of a live lane is bit-identical to the scalar call. Keep
// the scalar and vector bodies in lockstep when editing either.
#pragma once

#include <cmath>
#include <numbers>

#include "gpu/simd.h"

namespace crkhacc::sph {

/// Cubic B-spline kernel W(r, h); support is r < 2h.
struct CubicSpline {
  static constexpr float kSupport = 2.0f;  ///< support radius in units of h

  /// Kernel value.
  static float w(float r, float h) {
    const float q = r / h;
    if (q >= 2.0f) return 0.0f;
    const float sigma = static_cast<float>(1.0 / std::numbers::pi) / (h * h * h);
    if (q < 1.0f) {
      return sigma * (1.0f - 1.5f * q * q + 0.75f * q * q * q);
    }
    const float t = 2.0f - q;
    return sigma * 0.25f * t * t * t;
  }

  /// Radial derivative dW/dr (<= 0 everywhere).
  static float dw_dr(float r, float h) {
    const float q = r / h;
    if (q >= 2.0f) return 0.0f;
    const float sigma = static_cast<float>(1.0 / std::numbers::pi) / (h * h * h);
    if (q < 1.0f) {
      return sigma * (-3.0f * q + 2.25f * q * q) / h;
    }
    const float t = 2.0f - q;
    return sigma * (-0.75f * t * t) / h;
  }

  /// Vector twin of w(): both piecewise branches evaluated, blended by
  /// q < 1 then zeroed for q >= 2 — per lane, bitwise equal to w().
  static gpu::simd::vfloat w_v(gpu::simd::vfloat r, gpu::simd::vfloat h) {
    namespace v = gpu::simd;
    const v::vfloat q = r / h;
    const v::vfloat sigma =
        v::broadcast(static_cast<float>(1.0 / std::numbers::pi)) /
        (h * h * h);
    const v::vfloat inner =
        sigma * (v::broadcast(1.0f) - v::broadcast(1.5f) * q * q +
                 v::broadcast(0.75f) * q * q * q);
    const v::vfloat t = v::broadcast(2.0f) - q;
    const v::vfloat outer = sigma * v::broadcast(0.25f) * t * t * t;
    const v::vfloat val =
        v::select(v::cmp_lt(q, v::broadcast(1.0f)), inner, outer);
    return v::select(v::cmp_lt(q, v::broadcast(2.0f)), val, v::vzero());
  }

  /// Vector twin of dw_dr().
  static gpu::simd::vfloat dw_dr_v(gpu::simd::vfloat r, gpu::simd::vfloat h) {
    namespace v = gpu::simd;
    const v::vfloat q = r / h;
    const v::vfloat sigma =
        v::broadcast(static_cast<float>(1.0 / std::numbers::pi)) /
        (h * h * h);
    const v::vfloat inner =
        sigma * (v::broadcast(-3.0f) * q + v::broadcast(2.25f) * q * q) / h;
    const v::vfloat t = v::broadcast(2.0f) - q;
    const v::vfloat outer = sigma * (v::broadcast(-0.75f) * t * t) / h;
    const v::vfloat val =
        v::select(v::cmp_lt(q, v::broadcast(1.0f)), inner, outer);
    return v::select(v::cmp_lt(q, v::broadcast(2.0f)), val, v::vzero());
  }
};

/// Wendland C4 kernel; support r < 2h (rescaled so h has the same meaning
/// as the cubic spline).
struct WendlandC4 {
  static constexpr float kSupport = 2.0f;

  static float w(float r, float h) {
    const float q = r / (2.0f * h);  // native Wendland variable in [0,1]
    if (q >= 1.0f) return 0.0f;
    const float sigma =
        static_cast<float>(495.0 / (32.0 * std::numbers::pi)) /
        (8.0f * h * h * h);
    const float omq = 1.0f - q;
    const float omq2 = omq * omq;
    const float omq6 = omq2 * omq2 * omq2;
    return sigma * omq6 * (1.0f + 6.0f * q + (35.0f / 3.0f) * q * q);
  }

  static float dw_dr(float r, float h) {
    const float q = r / (2.0f * h);
    if (q >= 1.0f) return 0.0f;
    const float sigma =
        static_cast<float>(495.0 / (32.0 * std::numbers::pi)) /
        (8.0f * h * h * h);
    const float omq = 1.0f - q;
    const float omq2 = omq * omq;
    const float omq5 = omq2 * omq2 * omq;
    // d/dq of omq^6 (1 + 6q + 35/3 q^2) = omq^5 (-56/3 q) (1 + 5 q)
    const float dwdq = sigma * omq5 * (-56.0f / 3.0f) * q * (1.0f + 5.0f * q);
    return dwdq / (2.0f * h);
  }

  /// Vector twin of w() — see CubicSpline::w_v for the contract.
  static gpu::simd::vfloat w_v(gpu::simd::vfloat r, gpu::simd::vfloat h) {
    namespace v = gpu::simd;
    const v::vfloat q = r / (v::broadcast(2.0f) * h);
    const v::vfloat sigma =
        v::broadcast(static_cast<float>(495.0 / (32.0 * std::numbers::pi))) /
        (v::broadcast(8.0f) * h * h * h);
    const v::vfloat omq = v::broadcast(1.0f) - q;
    const v::vfloat omq2 = omq * omq;
    const v::vfloat omq6 = omq2 * omq2 * omq2;
    const v::vfloat val =
        sigma * omq6 *
        (v::broadcast(1.0f) + v::broadcast(6.0f) * q +
         v::broadcast(35.0f / 3.0f) * q * q);
    return v::select(v::cmp_lt(q, v::broadcast(1.0f)), val, v::vzero());
  }

  /// Vector twin of dw_dr().
  static gpu::simd::vfloat dw_dr_v(gpu::simd::vfloat r, gpu::simd::vfloat h) {
    namespace v = gpu::simd;
    const v::vfloat q = r / (v::broadcast(2.0f) * h);
    const v::vfloat sigma =
        v::broadcast(static_cast<float>(495.0 / (32.0 * std::numbers::pi))) /
        (v::broadcast(8.0f) * h * h * h);
    const v::vfloat omq = v::broadcast(1.0f) - q;
    const v::vfloat omq2 = omq * omq;
    const v::vfloat omq5 = omq2 * omq2 * omq;
    const v::vfloat dwdq = sigma * omq5 * v::broadcast(-56.0f / 3.0f) * q *
                           (v::broadcast(1.0f) + v::broadcast(5.0f) * q);
    const v::vfloat val = dwdq / (v::broadcast(2.0f) * h);
    return v::select(v::cmp_lt(q, v::broadcast(1.0f)), val, v::vzero());
  }
};

}  // namespace crkhacc::sph
