// Serial FFTs: iterative radix-2 for power-of-two lengths plus Bluestein's
// chirp-z algorithm for arbitrary lengths, and 3-D transforms built on the
// 1-D core.
//
// This is the single-node kernel underneath the distributed SWFFT-analog
// (fft/distributed_fft.h). The spectral long-range gravity solve needs
// FP64 throughout — the paper runs its FFT stack in double precision to
// preserve spectral accuracy while the short-range solver runs FP32.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace crkhacc::fft {

using Complex = std::complex<double>;

/// In-place forward (inverse=false) or inverse (inverse=true) DFT of
/// length n = data.size(). Arbitrary n >= 1; power-of-two sizes take the
/// radix-2 path, others Bluestein. The inverse includes the 1/n factor, so
/// fft(inverse(x)) == x.
void transform(std::vector<Complex>& data, bool inverse);

/// In-place transforms of `count` lines of length n within a larger
/// array: line j starts at base + j * dist and steps by `stride`. The
/// plan is acquired once per call and one scratch buffer serves every
/// line, so a pass over a slab costs one plan lookup, not one per line.
/// Strided lines are gathered into the scratch buffer, transformed and
/// scattered back.
void transform_lines(Complex* base, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t dist, bool inverse);

/// True if n is a power of two (and > 0).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// 3-D in-place transform of an nx*ny*nz array stored x-fastest:
/// data[(z*ny + y)*nx + x]. Inverse includes the full 1/(nx*ny*nz) factor.
void transform_3d(std::vector<Complex>& data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse);

/// Plan-cache accounting. Transforms acquire immutable plans (per-stage
/// twiddle tables for radix-2 lengths; chirp + pre-transformed
/// convolution kernel for Bluestein lengths) from a process-wide cache
/// keyed on (length, direction), once per `transform` / `transform_lines`
/// call. Plans are built once and shared by every Simulation /
/// SimContext in the process; the tables are generated with the exact
/// recurrence the uncached loop used, so cached and uncached transforms
/// are bitwise identical.
struct PlanCacheStats {
  std::uint64_t hits = 0;    ///< calls served by an existing plan
  std::uint64_t misses = 0;  ///< plans built (one per distinct key)
};

/// Snapshot of the process-wide plan-cache counters.
PlanCacheStats plan_cache_stats();

}  // namespace crkhacc::fft
