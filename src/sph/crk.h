// Conservative Reproducing Kernel (CRK) corrections.
//
// CRKSPH replaces the bare SPH kernel with a linearly-corrected
// interpolant
//
//   W^R_i(x_j) = A_i [ 1 + B_i . (x_i - x_j) ] W(|x_i - x_j|, h)
//
// whose coefficients are chosen so constant and linear fields are
// reproduced exactly:
//
//   B_i = +m2_i^{-1} m1_i,    A_i = 1 / (m0_i - m1_i . m2_i^{-1} m1_i)
//
// from the moments (d = x_j - x_i, V_j = m_j / rho_j):
//
//   m0 = sum_j V_j W_ij,  m1 = sum_j V_j d W_ij,  m2 = sum_j V_j d d^T W_ij.
//
// The moment accumulation is a pair kernel (sph/pair_kernels.h); the 3x3
// solve below is the per-particle "correction coefficient" kernel — the
// highest FP32-throughput kernel in CRK-HACC, used for the paper's peak
// FLOP measurements (Section V-B).
#pragma once

#include <array>

#include "gpu/simd.h"

namespace crkhacc::sph {

/// Accumulated geometric moments for one particle. m2 is symmetric,
/// stored as (xx, yy, zz, xy, xz, yz).
struct CrkMoments {
  float m0 = 0.0f;
  std::array<float, 3> m1{0.0f, 0.0f, 0.0f};
  std::array<float, 6> m2{0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
};

/// Correction coefficients.
struct CrkCoefficients {
  float a = 1.0f;                          ///< A_i (falls back to 1/m0)
  std::array<float, 3> b{0.0f, 0.0f, 0.0f};  ///< B_i (falls back to 0)
};

/// Solve the linear-order correction from accumulated moments. Degenerate
/// neighborhoods (singular m2, e.g. isolated or coplanar particles) fall
/// back to the zeroth-order correction A = 1/m0, B = 0, which still
/// reproduces constants. Analytic FLOP count: kSolveFlops per call.
CrkCoefficients solve_crk(const CrkMoments& moments);

/// FP32 operation count of one solve_crk call (FMA = 2), for the device
/// utilization accounting.
inline constexpr double kSolveFlops = 120.0;

/// Corrected kernel value W^R given bare kernel value w and d = x_i - x_j.
inline float corrected_w(const CrkCoefficients& c, float w,
                         const std::array<float, 3>& d) {
  return c.a * (1.0f + c.b[0] * d[0] + c.b[1] * d[1] + c.b[2] * d[2]) * w;
}

/// Gradient (w.r.t. x_i) of the corrected kernel, given the bare kernel
/// value w, its radial derivative dw/dr, the separation d = x_i - x_j and
/// r = |d|. (A, B are held fixed: first-order-correct gradient; the
/// conservative pair force symmetrizes over i and j so conservation does
/// not depend on this.)
inline std::array<float, 3> corrected_grad(const CrkCoefficients& c, float w,
                                           float dw_dr,
                                           const std::array<float, 3>& d,
                                           float r) {
  const float lin = 1.0f + c.b[0] * d[0] + c.b[1] * d[1] + c.b[2] * d[2];
  const float radial = (r > 1e-20f) ? c.a * lin * dw_dr / r : 0.0f;
  return {c.a * c.b[0] * w + radial * d[0],
          c.a * c.b[1] * w + radial * d[1],
          c.a * c.b[2] * w + radial * d[2]};
}

/// One vector lane-set of corrected-gradient components.
struct CorrectedGradV {
  gpu::simd::vfloat x, y, z;
};

/// Vector twin of corrected_grad for the vector momentum kernel: the same
/// per-lane expression DAG (the r > 1e-20 guard becomes a select; a*b+c
/// sites go through Math::madd so ExactMath reproduces the scalar bits
/// and FusedMath uses real FMA). Keep in lockstep with corrected_grad.
template <typename Math>
inline CorrectedGradV corrected_grad_v(
    gpu::simd::vfloat a, gpu::simd::vfloat bx, gpu::simd::vfloat by,
    gpu::simd::vfloat bz, gpu::simd::vfloat w, gpu::simd::vfloat dw_dr,
    gpu::simd::vfloat dx, gpu::simd::vfloat dy, gpu::simd::vfloat dz,
    gpu::simd::vfloat r) {
  namespace v = gpu::simd;
  const v::vfloat lin = Math::madd(
      bz, dz, Math::madd(by, dy, Math::madd(bx, dx, v::broadcast(1.0f))));
  const v::vfloat radial = v::select(v::cmp_gt(r, v::broadcast(1e-20f)),
                                     a * lin * dw_dr / r, v::vzero());
  return {Math::madd(radial, dx, a * bx * w),
          Math::madd(radial, dy, a * by * w),
          Math::madd(radial, dz, a * bz * w)};
}

}  // namespace crkhacc::sph
