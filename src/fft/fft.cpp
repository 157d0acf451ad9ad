#include "fft/fft.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <shared_mutex>
#include <utility>

#include "util/assertions.h"

namespace crkhacc::fft {
namespace {

constexpr double kPi = std::numbers::pi;

/// Immutable radix-2 plan: per-stage twiddle tables for both directions.
/// The tables are generated with the SAME first-order recurrence
/// (w = 1; w *= wlen) the original uncached butterfly loop evaluated
/// per block, so a cached transform is bitwise identical to the
/// recurrence-per-block one — every block of a stage consumed the exact
/// same w sequence.
struct Pow2Plan {
  std::size_t n = 0;
  /// stages[s][k]: twiddle k of the stage with len = 2^(s+1).
  std::vector<std::vector<Complex>> forward;
  std::vector<std::vector<Complex>> inverse;

  explicit Pow2Plan(std::size_t length) : n(length) {
    for (std::size_t len = 2; len <= n; len <<= 1) {
      forward.push_back(stage_table(len, false));
      inverse.push_back(stage_table(len, true));
    }
  }

  static std::vector<Complex> stage_table(std::size_t len, bool inv) {
    const double angle = (inv ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    std::vector<Complex> table(len / 2);
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      table[k] = w;
      w *= wlen;
    }
    return table;
  }
};

/// Iterative radix-2 Cooley-Tukey, bit-reversal permutation first;
/// twiddles come from the plan's per-stage tables.
void fft_pow2(Complex* a, std::size_t n, bool inverse, const Pow2Plan& plan) {
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  const auto& stages = inverse ? plan.inverse : plan.forward;
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++stage) {
    const std::vector<Complex>& tw = stages[stage];
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * tw[k];
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
      }
    }
  }
}

/// Immutable Bluestein plan for one (length, direction): the chirp, and
/// the convolution kernel b already forward-transformed to length m —
/// b depends only on (n, direction), so transforming it per call was
/// pure rework (and the cached spectrum is bitwise the value the per-call
/// transform produced).
struct BluesteinPlan {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<Complex> chirp;
  std::vector<Complex> b_fft;
  std::shared_ptr<const Pow2Plan> conv;  ///< radix-2 plan of length m

  BluesteinPlan(std::size_t length, bool inverse,
                std::shared_ptr<const Pow2Plan> conv_plan)
      : n(length), m(next_pow2(2 * length - 1)), conv(std::move(conv_plan)) {
    const double sign = inverse ? 1.0 : -1.0;
    // Chirp: w[k] = exp(sign * i * pi * k^2 / n). Computed with k^2 mod 2n
    // to keep the trig argument small for large k.
    chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t k2 = (k * k) % (2 * n);
      const double angle =
          sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
      chirp[k] = Complex(std::cos(angle), std::sin(angle));
    }
    b_fft.assign(m, Complex(0.0, 0.0));
    b_fft[0] = std::conj(chirp[0]);
    for (std::size_t k = 1; k < n; ++k) {
      b_fft[k] = b_fft[m - k] = std::conj(chirp[k]);
    }
    fft_pow2(b_fft.data(), m, false, *conv);
  }
};

// --- process-wide plan cache ----------------------------------------------
// Plans are immutable once built and shared via shared_ptr, so readers
// only need the shared lock; pool workers transforming lines
// concurrently never serialize against each other on a warm cache.
std::shared_mutex g_plans_mutex;
std::map<std::size_t, std::shared_ptr<const Pow2Plan>>& pow2_plans() {
  static std::map<std::size_t, std::shared_ptr<const Pow2Plan>> plans;
  return plans;
}
std::map<std::pair<std::size_t, bool>, std::shared_ptr<const BluesteinPlan>>&
bluestein_plans() {
  static std::map<std::pair<std::size_t, bool>,
                  std::shared_ptr<const BluesteinPlan>>
      plans;
  return plans;
}
std::atomic<std::uint64_t> g_plan_hits{0};
std::atomic<std::uint64_t> g_plan_misses{0};

std::shared_ptr<const Pow2Plan> acquire_pow2(std::size_t n) {
  {
    std::shared_lock lock(g_plans_mutex);
    auto it = pow2_plans().find(n);
    if (it != pow2_plans().end()) {
      g_plan_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  auto plan = std::make_shared<const Pow2Plan>(n);
  std::unique_lock lock(g_plans_mutex);
  auto [it, inserted] = pow2_plans().emplace(n, std::move(plan));
  (inserted ? g_plan_misses : g_plan_hits)
      .fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::shared_ptr<const BluesteinPlan> acquire_bluestein(std::size_t n,
                                                       bool inverse) {
  const auto key = std::make_pair(n, inverse);
  {
    std::shared_lock lock(g_plans_mutex);
    auto it = bluestein_plans().find(key);
    if (it != bluestein_plans().end()) {
      g_plan_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  auto conv = acquire_pow2(next_pow2(2 * n - 1));
  auto plan = std::make_shared<const BluesteinPlan>(n, inverse, std::move(conv));
  std::unique_lock lock(g_plans_mutex);
  auto [it, inserted] = bluestein_plans().emplace(key, std::move(plan));
  (inserted ? g_plan_misses : g_plan_hits)
      .fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

/// Bluestein chirp-z transform for arbitrary n, via a power-of-two
/// cyclic convolution of length m >= 2n-1; `work` holds m values.
void fft_bluestein(Complex* data, const BluesteinPlan& plan, Complex* work) {
  const std::size_t n = plan.n;
  const std::size_t m = plan.m;
  for (std::size_t k = 0; k < n; ++k) work[k] = data[k] * plan.chirp[k];
  std::fill(work + n, work + m, Complex(0.0, 0.0));

  fft_pow2(work, m, false, *plan.conv);
  for (std::size_t k = 0; k < m; ++k) work[k] *= plan.b_fft[k];
  fft_pow2(work, m, true, *plan.conv);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    data[k] = work[k] * inv_m * plan.chirp[k];
  }
}

}  // namespace

bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

PlanCacheStats plan_cache_stats() {
  PlanCacheStats stats;
  stats.hits = g_plan_hits.load(std::memory_order_relaxed);
  stats.misses = g_plan_misses.load(std::memory_order_relaxed);
  return stats;
}

void transform(std::vector<Complex>& data, bool inverse) {
  transform_lines(data.data(), data.size(), 1, 1, 0, inverse);
}

void transform_lines(Complex* base, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t dist, bool inverse) {
  if (n <= 1 || count == 0) return;
  std::shared_ptr<const Pow2Plan> pow2;
  std::shared_ptr<const BluesteinPlan> bluestein;
  if (is_pow2(n)) {
    pow2 = acquire_pow2(n);
  } else {
    bluestein = acquire_bluestein(n, inverse);
  }
  // One scratch buffer for the batch: the gathered copy of a strided
  // line, then Bluestein's length-m convolution buffer.
  const bool strided = stride != 1;
  const std::size_t gather = strided ? n : 0;
  std::vector<Complex> scratch(gather + (bluestein ? bluestein->m : 0));
  Complex* work = scratch.data() + gather;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < count; ++j) {
    Complex* line = base + j * dist;
    Complex* data = line;
    if (strided) {
      data = scratch.data();
      for (std::size_t i = 0; i < n; ++i) data[i] = line[i * stride];
    }
    if (pow2) {
      fft_pow2(data, n, inverse, *pow2);
    } else {
      fft_bluestein(data, *bluestein, work);
    }
    if (inverse) {
      for (std::size_t k = 0; k < n; ++k) data[k] *= inv_n;
    }
    if (strided) {
      for (std::size_t i = 0; i < n; ++i) line[i * stride] = data[i];
    }
  }
}

void transform_3d(std::vector<Complex>& data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse) {
  CHECK(data.size() == nx * ny * nz);
  // x lines (contiguous).
  transform_lines(data.data(), nx, 1, ny * nz, nx, inverse);
  // y lines (stride nx), one batch per z plane.
  for (std::size_t z = 0; z < nz; ++z) {
    transform_lines(data.data() + z * ny * nx, ny, nx, nx, 1, inverse);
  }
  // z lines (stride nx*ny).
  transform_lines(data.data(), nz, nx * ny, nx * ny, 1, inverse);
}

}  // namespace crkhacc::fft
