// Separation of scales: long-range / short-range gravity split.
//
// The heart of the HACC design. The Poisson solve is spectrally filtered
// so the mesh handles only smooth, large-scale forces, and the residual
// short-range force — exactly the Newtonian force minus what the filtered
// mesh provides — is evaluated in direct particle pair sums that stay
// node-local. We use the Gaussian (Ewald/PME-style) split:
//
//   long-range filter  S(k)   = exp(-k^2 rs^2)
//   short-range factor f_s(r) = erfc(r / 2rs) + (r / rs sqrt(pi)) e^{-r^2/4rs^2}
//
// so that  f_long(r) + f_s(r) = 1  exactly, with f_s(r) -> 1 as r -> 0 and
// decaying like a Gaussian beyond a few rs. The paper's spectrally
// filtered PM uses a higher-order (sinc-compensated Gaussian) filter; the
// Gaussian variant preserves the identical architecture — low-noise
// handover on a compact scale — with a closed-form real-space complement.
//
// short_range_factor() is the double-precision definition of f_s: the
// cutoff bisection, the polynomial fit below, the direct-sum reference
// and the PM tests use it. The pair kernel runs on float lanes and uses
// the float approximant instead (SplitPolynomial):
//
//   f~_s(r) = 1 - r^3 P(t),   t = 2 r^2 / r_fit^2 - 1,   r in [0, r_fit]
//
// where r_fit is the next float above cutoff() rounded to float and P is
// the Chebyshev interpolant of (1 - f_s) / r^3, rewritten in monomial
// form for Horner evaluation. 1 - f_s = (r / rs)^3 / (6 sqrt(pi)) times
// a power series in r^2, so the quotient is smooth in t, and the r^3
// factor makes f~_s(0) exactly 1. The term count grows as the
// threshold shrinks (12 at 1e-2, 13 at 1e-3, 15 at 1e-4, 16 at 1e-5).
// |f~_s - f_s| stays within kApproxTolerance on every float r in
// [0, cutoff()); its floor of ~1e-6 is the float rounding of 1 - r^3 P
// near the cutoff, not the fit.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace crkhacc::mesh {

/// The pair kernel's float approximant of f_s (see the file comment).
/// The scalar evaluation below is the definition; the vector tile engine
/// (gravity::ShortRangeKernel::split_factor_simd) repeats its
/// elementwise ops in the same order, so both engines agree bit for bit.
struct SplitPolynomial {
  /// The fit's node count: the most terms a threshold may take.
  static constexpr std::uint32_t kMaxTerms = 32;

  float t_scale = 0.0f;  ///< 2 / r_fit^2
  std::uint32_t terms = 0;
  std::array<float, kMaxTerms> coeff{};  ///< P(t) = sum_k coeff[k] t^k

  /// f~_s at squared separation r2 = r * r.
  float evaluate(float r2) const {
    const float t = r2 * t_scale - 1.0f;
    float p = coeff[terms - 1];
    for (std::uint32_t k = terms - 1; k-- > 0;) p = p * t + coeff[k];
    return 1.0f - (std::sqrt(r2) * r2) * p;
  }
};

class ForceSplit {
 public:
  /// Largest |f~_s - f_s| over float r in [0, cutoff()) that the
  /// approximant promises; the constructor CHECKs it at probe points.
  static constexpr double kApproxTolerance = 2e-6;

  /// rs: split scale in comoving length units. The handover is compact:
  /// cutoff() returns the radius beyond which f_short < `threshold`
  /// (the residual pair-force error delegated entirely to the mesh).
  explicit ForceSplit(double rs, double threshold = 1e-4);

  double rs() const { return rs_; }
  double threshold() const { return threshold_; }

  /// k-space filter applied to the mesh potential.
  double long_range_filter(double k) const;

  /// Dimensionless short-range force factor f_s(r): multiplies the
  /// Newtonian pair force G m M / r^2.
  double short_range_factor(double r) const;

  /// Radius where the short-range factor drops below the threshold.
  double cutoff() const { return cutoff_; }

  /// Float approximant of short_range_factor on [0, cutoff()).
  const SplitPolynomial& polynomial() const { return polynomial_; }

 private:
  void fit_polynomial();

  double rs_;
  double threshold_;
  double cutoff_;
  SplitPolynomial polynomial_;
};

}  // namespace crkhacc::mesh
