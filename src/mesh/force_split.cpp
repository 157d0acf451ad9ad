#include "mesh/force_split.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "util/assertions.h"

namespace crkhacc::mesh {
namespace {

/// Share of the accuracy budget left to truncating the Chebyshev series
/// (the sum of the dropped coefficients times r_fit^3 bounds it); float
/// rounding takes the rest.
constexpr double kTruncationTolerance = 2.5e-7;

}  // namespace

ForceSplit::ForceSplit(double rs, double threshold)
    : rs_(rs), threshold_(threshold) {
  CHECK(rs > 0.0);
  CHECK(threshold > 0.0 && threshold < 1.0);
  // Solve f_s(r) = threshold by bisection; f_s decreases monotonically.
  double lo = 0.0, hi = 16.0 * rs;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (short_range_factor(mid) > threshold) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  cutoff_ = hi;
  fit_polynomial();
}

double ForceSplit::long_range_filter(double k) const {
  const double krs = k * rs_;
  return std::exp(-krs * krs);
}

double ForceSplit::short_range_factor(double r) const {
  if (r <= 0.0) return 1.0;
  const double x = r / (2.0 * rs_);
  return std::erfc(x) +
         (r / (rs_ * std::sqrt(std::numbers::pi))) * std::exp(-x * x);
}

void ForceSplit::fit_polynomial() {
  constexpr std::uint32_t kNodes = SplitPolynomial::kMaxTerms;
  // The fit covers every r a float kernel cutoff of at most cutoff()
  // lets through, in the t the kernel computes: t = r2 * t_scale - 1
  // with the float t_scale, so r^2 = (t + 1) / t_scale exactly.
  const double r_fit = std::nextafter(static_cast<float>(cutoff_),
                                      std::numeric_limits<float>::infinity());
  const float t_scale = static_cast<float>(2.0 / (r_fit * r_fit));
  const double inv_t_scale = 1.0 / static_cast<double>(t_scale);
  const double r_fit3 = r_fit * r_fit * r_fit;

  // Chebyshev interpolation of h(t) = (1 - f_s(r)) / r^3 at the kNodes
  // first-kind nodes t_j: cheb[k] = (2 / kNodes) sum_j h(t_j) T_k(t_j),
  // halved for k = 0, with T_k(t_j) from the recurrence
  // T_k = 2 t T_{k-1} - T_{k-2}. No node sits at r = 0.
  std::array<double, kNodes> cheb{};
  for (std::uint32_t j = 0; j < kNodes; ++j) {
    const double t = std::cos(std::numbers::pi * (j + 0.5) / kNodes);
    const double r = std::sqrt((t + 1.0) * inv_t_scale);
    const double value = (1.0 - short_range_factor(r)) / (r * r * r);
    double t_prev = 1.0, t_cur = t;
    cheb[0] += value;
    cheb[1] += value * t;
    for (std::uint32_t k = 2; k < kNodes; ++k) {
      const double t_next = 2.0 * t * t_cur - t_prev;
      cheb[k] += value * t_next;
      t_prev = t_cur;
      t_cur = t_next;
    }
  }
  for (std::uint32_t k = 0; k < kNodes; ++k) {
    cheb[k] *= (k == 0 ? 1.0 : 2.0) / kNodes;
  }

  // Fewest terms whose dropped tail stays within the truncation share.
  std::uint32_t terms = 1;
  double tail = 0.0;
  for (std::uint32_t k = kNodes; k-- > 1;) {
    tail += std::abs(cheb[k]) * r_fit3;
    if (tail > kTruncationTolerance) {
      terms = k + 1;
      break;
    }
  }

  // Monomial coefficients sum_k cheb[k] T_k(t); row k of `chebyshev`
  // holds T_k's, from the same recurrence.
  std::array<std::array<double, kNodes>, kNodes> chebyshev{};
  chebyshev[0][0] = 1.0;
  if (terms > 1) chebyshev[1][1] = 1.0;
  for (std::uint32_t k = 2; k < terms; ++k) {
    for (std::uint32_t i = 0; i <= k; ++i) {
      chebyshev[k][i] =
          (i > 0 ? 2.0 * chebyshev[k - 1][i - 1] : 0.0) - chebyshev[k - 2][i];
    }
  }
  std::array<double, kNodes> mono{};
  for (std::uint32_t k = 0; k < terms; ++k) {
    for (std::uint32_t i = 0; i <= k; ++i) mono[i] += cheb[k] * chebyshev[k][i];
  }

  // Round to float from the top degree down. Of each rounding error
  // d t^k, the part d (t^k - 2^{1-k} T_k) has lower degree and moves
  // into the coefficients still to be rounded, leaving d 2^{1-k} T_k.
  polynomial_.t_scale = t_scale;
  polynomial_.terms = terms;
  for (std::uint32_t k = terms; k-- > 0;) {
    polynomial_.coeff[k] = static_cast<float>(mono[k]);
    const double d = mono[k] - polynomial_.coeff[k];
    const double lead = std::ldexp(1.0, 1 - static_cast<int>(k));
    for (std::uint32_t i = 0; i < k; ++i) mono[i] -= d * lead * chebyshev[k][i];
  }

  // Probe the float evaluation against the definition, up to the last
  // float below the cutoff, so a threshold the fit cannot serve fails
  // here instead of skewing forces.
  float r_top = static_cast<float>(cutoff_);
  if (r_top >= cutoff_) r_top = std::nextafter(r_top, 0.0f);
  const std::uint32_t probes = 4 * terms;
  double worst = 0.0;
  for (std::uint32_t j = 0; j <= probes; ++j) {
    const float r =
        j == probes ? r_top : static_cast<float>(cutoff_ * j / probes);
    const double error =
        std::abs(polynomial_.evaluate(r * r) - short_range_factor(r));
    worst = std::isnan(error) ? error : std::max(worst, error);
  }
  CHECK_MSG(worst <= kApproxTolerance,
            ("float split polynomial misses f_s by " + std::to_string(worst) +
             " at rs " + std::to_string(rs_) + ", threshold " +
             std::to_string(threshold_))
                .c_str());
}

}  // namespace crkhacc::mesh
